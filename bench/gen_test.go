package main

import (
	"bytes"
	"testing"
)

func TestSameSeedSameSchedule(t *testing.T) {
	for _, wl := range workloadSpecs {
		a, err := newPlan(wl.Name, 7, 2)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := newPlan(wl.Name, 7, 2)
		c, _ := newPlan(wl.Name, 8, 2)
		if a.hash() != b.hash() {
			t.Errorf("%s: two generations with seed 7 differ: %s vs %s", wl.Name, a.hash(), b.hash())
		}
		// paper_sim generates nothing: it runs the committed traces.
		if differs := a.hash() != c.hash(); differs != (wl.Name != wlPaperSim) {
			t.Errorf("%s: seeds 7 and 8 generate different schedules: %v", wl.Name, differs)
		}
	}
	if _, err := newPlan("no_such_workload", 1, 2); err == nil {
		t.Error("an unknown workload got a plan")
	}
}

func TestPayloadIsAFunctionOfItsSeed(t *testing.T) {
	a, b, c := make([]byte, 4099), make([]byte, 4099), make([]byte, 4099)
	fillPayload(a, 1)
	fillPayload(b, 1)
	fillPayload(c, 2)
	if !bytes.Equal(a, b) {
		t.Error("one seed, two payloads")
	}
	if bytes.Equal(a, c) || crc32c(a) == crc32c(c) {
		t.Error("two seeds, one payload")
	}
}
