package wal

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
)

func collect(t *testing.T, l *Log) [][]byte {
	t.Helper()
	var out [][]byte
	n, err := l.Replay(func(p []byte) error {
		out = append(out, append([]byte(nil), p...))
		return nil
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if n != len(out) {
		t.Fatalf("replay reported %d records, delivered %d", n, len(out))
	}
	return out
}

func testRoundTrip(t *testing.T, be Backend) {
	l := New(be)
	want := [][]byte{[]byte("one"), []byte(""), []byte("three records, one empty")}
	for _, p := range want {
		if err := l.Append(p); err != nil {
			t.Fatalf("append: %v", err)
		}
	}
	got := collect(t, l)
	if len(got) != len(want) {
		t.Fatalf("got %d records, want %d", len(got), len(want))
	}
	for i := range want {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("record %d: got %q want %q", i, got[i], want[i])
		}
	}
	if err := l.Truncate(); err != nil {
		t.Fatalf("truncate: %v", err)
	}
	if got := collect(t, l); len(got) != 0 {
		t.Fatalf("after truncate: %d records, want 0", len(got))
	}
}

func TestMemRoundTrip(t *testing.T) { testRoundTrip(t, NewMem()) }

func TestFileRoundTrip(t *testing.T) {
	be, err := OpenFile(t.TempDir(), "wal")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	testRoundTrip(t, be)
}

func TestFileSurvivesReopen(t *testing.T) {
	dir := t.TempDir()
	be, err := OpenFile(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	l := New(be)
	if err := l.Append([]byte("persisted")); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	be2, err := OpenFile(dir, "wal")
	if err != nil {
		t.Fatal(err)
	}
	defer be2.Close()
	got := collect(t, New(be2))
	if len(got) != 1 || string(got[0]) != "persisted" {
		t.Fatalf("reopened log: %q", got)
	}
}

// A torn or bit-flipped tail record is dropped silently; every intact
// record before it replays.
func TestReplayStopsAtCorruptTail(t *testing.T) {
	be := NewMem()
	l := New(be)
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte(i), byte(i), byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	// Flip a byte inside the last record's payload.
	be.mu.Lock()
	be.buf[len(be.buf)-1] ^= 0xFF
	be.mu.Unlock()
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("corrupt tail: replayed %d records, want 2", len(got))
	}
	// Tear the tail mid-record.
	be.mu.Lock()
	be.buf = be.buf[:len(be.buf)-5]
	be.mu.Unlock()
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("torn tail: replayed %d records, want 2", len(got))
	}
}

func TestReplayPropagatesFnError(t *testing.T) {
	l := New(NewMem())
	for i := 0; i < 3; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			t.Fatal(err)
		}
	}
	boom := errors.New("boom")
	n, err := l.Replay(func(p []byte) error {
		if p[0] == 1 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) || n != 1 {
		t.Fatalf("replay = (%d, %v), want (1, boom)", n, err)
	}
}

// CrashAfter(k) lets exactly k more appends become durable; the rest
// fail with ErrCrashed and write nothing, and Revive resumes with the
// surviving contents intact.
func TestMemCrashAfter(t *testing.T) {
	be := NewMem()
	l := New(be)
	be.CrashAfter(2)
	var failedAt int
	for i := 0; i < 5; i++ {
		if err := l.Append([]byte{byte(i)}); err != nil {
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("append %d: %v, want ErrCrashed", i, err)
			}
			if failedAt == 0 {
				failedAt = i + 1
			}
		}
	}
	if failedAt != 3 {
		t.Fatalf("first failed append was #%d, want #3", failedAt)
	}
	if got := collect(t, l); len(got) != 2 {
		t.Fatalf("after crash: %d records survive, want 2", len(got))
	}
	be.Revive()
	if err := l.Append([]byte("resumed")); err != nil {
		t.Fatalf("append after revive: %v", err)
	}
	got := collect(t, l)
	if len(got) != 3 || string(got[2]) != "resumed" {
		t.Fatalf("after revive: %q", got)
	}
}

// Journaling must stay off the migration hot path: framing one record
// into a warm in-memory log is at most one (amortized) allocation.
// Gated in `make bench-alloc`.
func TestWALAppendAllocCeiling(t *testing.T) {
	be := NewMem()
	l := New(be)
	payload := bytes.Repeat([]byte("x"), 128)
	// Warm up the scratch buffer and the backend's append buffer.
	for i := 0; i < 64; i++ {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	avg := testing.AllocsPerRun(1000, func() {
		if err := l.Append(payload); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("wal append allocs/op: %.3f", avg)
	if avg > 1.0 {
		t.Fatalf("wal append allocates %.3f/op, ceiling 1.0", avg)
	}
}

func BenchmarkWALAppend(b *testing.B) {
	l := New(NewMem())
	payload := bytes.Repeat([]byte("x"), 128)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWALReplay(b *testing.B) {
	l := New(NewMem())
	for i := 0; i < 1024; i++ {
		if err := l.Append([]byte(fmt.Sprintf("record-%d", i))); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		n, err := l.Replay(func([]byte) error { return nil })
		if err != nil || n != 1024 {
			b.Fatalf("replay = (%d, %v)", n, err)
		}
	}
}
