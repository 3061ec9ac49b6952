package main

import "testing"

// TestSmoke drives every workload, untraced and traced, at smoke
// geometry. It checks that they run, verify their outputs and report
// every metric of the contract — never how fast.
func TestSmoke(t *testing.T) {
	defer func(full geometry) { g = full }(g)
	if err := runSmoke(1); err != nil {
		t.Fatal(err)
	}
}
