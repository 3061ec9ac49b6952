package bufpool

import (
	"sync"
	"testing"
)

func TestArenaSlotClasses(t *testing.T) {
	a := NewArena()
	defer a.Close()
	if slots, chunks := a.Usage(); slots != 0 || chunks != 0 {
		t.Fatalf("a new arena holds %d slots in %d chunks, want nothing mapped", slots, chunks)
	}
	for _, c := range []struct{ n, class int }{
		{1, 512}, {512, 512}, {513, 1024}, {1 << 20, 1 << 20}, {(1 << 20) + 1, 2 << 20},
		{16 << 20, 16 << 20}, {(16 << 20) + 1, 32 << 20},
	} {
		s := a.Alloc(c.n)
		if len(s.Bytes()) != c.n || cap(s.Bytes()) != c.n || len(s.buf) != c.class {
			t.Errorf("Alloc(%d): %d bytes in a %d-byte slot, want a %d-byte slot", c.n, len(s.Bytes()), len(s.buf), c.class)
		}
		s.Bytes()[c.n-1] = 1 // the memory is mapped and writable
		s.Release()
	}
}

// A freed slot is the next one its class hands out (LIFO), a held one
// never is, and reuse maps nothing new.
func TestArenaRecyclesSlots(t *testing.T) {
	a := NewArena()
	defer a.Close()
	x, y := a.Alloc(4096), a.Alloc(4000)
	if &x.Bytes()[0] == &y.Bytes()[0] {
		t.Fatal("two live slots share memory")
	}
	_, chunks := a.Usage()
	x.Retain()
	x.Release()
	if z := a.Alloc(4096); &z.Bytes()[0] == &x.Bytes()[0] {
		t.Fatal("a slot still referenced was handed out again")
	} else {
		z.Release()
	}
	x.Release()
	if z := a.Alloc(3000); &z.Bytes()[0] != &x.Bytes()[0] {
		t.Error("the last slot freed was not the first reused")
	} else {
		z.Release()
	}
	y.Release()
	if slots, now := a.Usage(); slots != 0 || now != chunks {
		t.Errorf("after reuse: %d slots held, %d chunks (was %d)", slots, now, chunks)
	}
}

// Close unmaps nothing while a slot is held, then everything on its
// release, and refuses new slots.
func TestArenaCloseWaitsForLastRelease(t *testing.T) {
	a := NewArena()
	s := a.Alloc(100)
	copy(s.Bytes(), "held across Close")
	a.Close()
	if a.Alloc(1) != nil {
		t.Fatal("a closed arena handed out a slot")
	}
	if slots, chunks := a.Usage(); slots != 1 || chunks != 1 {
		t.Fatalf("closed arena with a held slot: %d slots, %d chunks; want its chunk still mapped", slots, chunks)
	}
	if string(s.Bytes()[:17]) != "held across Close" {
		t.Fatal("a held slot's bytes changed at Close")
	}
	s.Release()
	if slots, chunks := a.Usage(); slots != 0 || chunks != 0 {
		t.Fatalf("after the last release: %d slots, %d chunks; want nothing mapped", slots, chunks)
	}
}

func TestArenaMisuseFailsLoudly(t *testing.T) {
	a := NewArena()
	defer a.Close()
	s := a.Alloc(10)
	s.Release()
	for name, misuse := range map[string]func(){
		"release twice":      s.Release,
		"retain after free":  s.Retain,
		"alloc non-positive": func() { a.Alloc(0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			misuse()
		}()
		s.refs.Store(0) // undo what the misuse did to the count
	}
}

// Put refuses a slot's bytes even when their length is a pool class
// (cap == len == class), so no later Get hands out replica memory.
func TestPutDropsArenaMemory(t *testing.T) {
	a := NewArena()
	defer a.Close()
	s := a.Alloc(4096)
	defer s.Release()
	slot := s.Bytes()
	if cap(slot) != 4096 {
		t.Fatalf("slot cap %d, want a class size", cap(slot))
	}
	if !inArena(slot) || !inArena(slot[4095:]) {
		t.Fatal("a slot's bytes are not recognised as arena memory")
	}
	if inArena(make([]byte, 4096)) {
		t.Fatal("heap memory is taken for arena memory")
	}
	Put(slot)
	for i := 0; i < 64; i++ {
		if b := Get(4096); &b[0] == &slot[0] {
			t.Fatalf("Get %d handed out the slot's memory after it was Put", i)
		}
	}
}

// Once an arena unmaps its chunks they are no longer arena memory, and
// another arena's chunks still are.
func TestArenaRangesFollowMapAndUnmap(t *testing.T) {
	a, b := NewArena(), NewArena()
	defer b.Close()
	sa, sb := a.Alloc(512), b.Alloc(512)
	defer sb.Release()
	ra := rangeOf(sa.Bytes())
	sa.Release()
	a.Close()
	for _, r := range *mapped.Load() {
		if r.lo <= ra.lo && ra.lo < r.hi {
			t.Fatal("an unmapped chunk is still listed as arena memory")
		}
	}
	if !inArena(sb.Bytes()) {
		t.Fatal("closing one arena dropped another's chunks")
	}
}

// Put reads the published chunk list while arenas map and unmap chunks:
// run under -race, the list is only ever replaced, never changed in
// place.
func TestPutWhileArenasMapAndUnmap(t *testing.T) {
	var wg sync.WaitGroup
	for g := 0; g < 2; g++ {
		wg.Add(2)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				a := NewArena()
				s := a.Alloc(4096)
				Put(s.Bytes())
				s.Release()
				a.Close()
			}
		}()
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				Put(Get(4096))
			}
		}()
	}
	wg.Wait()
}
