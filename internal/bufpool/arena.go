package bufpool

import (
	"cmp"
	"math/bits"
	"slices"
	"sync"
	"sync/atomic"
	"syscall"
	"unsafe"
)

// chunkBytes is how much memory the arena maps at a time for a slot
// class: one largest pool class. A class bigger than that gets a chunk
// of its own size, one slot.
const chunkBytes = 1 << maxClassBits

// poisonByte fills freed slots and MakeNoZero memory in race builds
// (see poison).
const poisonByte = 0xDB

// Arena is memory outside the Go heap for data that lives long and
// turns over: a datanode's stored replicas, a client's cached blocks.
// It maps anonymous memory in chunks, on the first Alloc of a class,
// and cuts each chunk into slots of one power-of-two class (the pool's
// classes, 512 B upwards). A freed
// slot goes on its class's LIFO free list, so the next Alloc of that
// class reuses the memory that was touched last; chunks are unmapped
// only once the arena is closed and its last slot released.
//
// Because the memory is not on the heap, the collector neither scans it
// nor counts it toward its heap goal: a replica costs its bytes once,
// not twice at GOGC=100. The price is the ownership rule of Slot, which
// the collector can no longer enforce. Safe for concurrent use.
type Arena struct {
	mu     sync.Mutex
	free   [64][]*Slot // by class bits; LIFO
	carve  [64]carving // by class bits: the chunk slots are cut from
	chunks [][]byte
	used   int // slots handed out and not yet freed
	closed bool
}

// carving is the chunk a class cuts fresh slots from, and how far in.
type carving struct {
	chunk []byte
	next  int
}

// Slot is one reference-counted piece of an Arena. Alloc hands it out
// holding one reference. Every holder that reads or writes its bytes
// holds a reference of its own (Retain) and gives it back (Release)
// when it is done; the last Release frees the slot for the next Alloc.
// Using the bytes after giving the reference back is the fatal misuse:
// they may belong to another slot holder by then, and in race builds
// they are overwritten with a poison pattern when the slot is freed.
// Unlike a pooled buffer, a slot must be released: a forgotten
// reference keeps its chunk mapped for the life of the process.
type Slot struct {
	a    *Arena
	buf  []byte // the whole slot, 1<<bits bytes
	n    int    // bytes in use
	bits uint8
	refs atomic.Int32
}

// NewArena returns an empty arena; it maps nothing until the first
// Alloc.
func NewArena() *Arena { return &Arena{} }

// Alloc returns a slot of n bytes (n > 0) holding one reference, or nil
// once the arena is closed. Its contents are unspecified.
func (a *Arena) Alloc(n int) *Slot {
	if n <= 0 {
		panic("bufpool: Alloc of a non-positive size")
	}
	b := uint8(max(minClassBits, bits.Len(uint(n-1))))
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.closed {
		return nil
	}
	var s *Slot
	if free := a.free[b]; len(free) > 0 {
		s = free[len(free)-1]
		free[len(free)-1] = nil
		a.free[b] = free[:len(free)-1]
	} else {
		s = a.carveLocked(b)
	}
	s.n = n
	s.refs.Store(1)
	a.used++
	return s
}

// carveLocked cuts a fresh slot of class b, mapping a chunk if the
// class has none with room left.
func (a *Arena) carveLocked(b uint8) *Slot {
	size := 1 << b
	c := &a.carve[b]
	if c.next == len(c.chunk) {
		chunk, err := syscall.Mmap(-1, 0, max(chunkBytes, size),
			syscall.PROT_READ|syscall.PROT_WRITE, syscall.MAP_ANON|syscall.MAP_PRIVATE)
		if err != nil {
			panic("bufpool: arena mmap: " + err.Error())
		}
		a.chunks = append(a.chunks, chunk)
		publishMapped(chunk, nil)
		*c = carving{chunk: chunk}
	}
	s := &Slot{a: a, buf: c.chunk[c.next : c.next+size : c.next+size], bits: b}
	c.next += size
	return s
}

// Bytes returns the slot's n bytes. They stay valid while the caller
// holds a reference.
func (s *Slot) Bytes() []byte { return s.buf[:s.n:s.n] }

// Retain takes one more reference. The caller must already hold one.
func (s *Slot) Retain() {
	if s.refs.Add(1) <= 1 {
		panic("bufpool: Retain of a released slot")
	}
}

// Release gives one reference back; the last one frees the slot.
func (s *Slot) Release() {
	switch r := s.refs.Add(-1); {
	case r < 0:
		panic("bufpool: slot released twice")
	case r == 0:
		s.a.recycle(s)
	}
}

func (a *Arena) recycle(s *Slot) {
	if poison {
		for i := range s.buf[:s.n] {
			s.buf[i] = poisonByte
		}
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	a.free[s.bits] = append(a.free[s.bits], s)
	a.used--
	a.unmapIfDoneLocked()
}

// Close refuses further Allocs. The chunks are unmapped at once if no
// slot is outstanding, and otherwise when the last one is released.
func (a *Arena) Close() {
	a.mu.Lock()
	defer a.mu.Unlock()
	a.closed = true
	a.unmapIfDoneLocked()
}

func (a *Arena) unmapIfDoneLocked() {
	if !a.closed || a.used > 0 || a.chunks == nil {
		return
	}
	publishMapped(nil, a.chunks)
	for _, c := range a.chunks {
		if err := syscall.Munmap(c); err != nil {
			panic("bufpool: arena munmap: " + err.Error())
		}
	}
	a.chunks = nil
	a.free = [64][]*Slot{}
	a.carve = [64]carving{}
}

// Usage reports the slots handed out and not yet freed, and the chunks
// mapped.
func (a *Arena) Usage() (slots, chunks int) {
	a.mu.Lock()
	defer a.mu.Unlock()
	return a.used, len(a.chunks)
}

// mapped is the address ranges of every arena chunk mapped in the
// process, sorted, so that Put can refuse slot memory. It is replaced
// under mappedMu and never changed in place, so Put reads it without a
// lock.
var (
	mappedMu sync.Mutex
	mapped   atomic.Pointer[[]addrRange]
)

// addrRange is the half-open address range [lo, hi) of one chunk.
type addrRange struct{ lo, hi uintptr }

func rangeOf(b []byte) addrRange {
	lo := uintptr(unsafe.Pointer(unsafe.SliceData(b)))
	return addrRange{lo, lo + uintptr(cap(b))}
}

// publishMapped publishes the chunk list with add (when not nil) mapped
// and every chunk of drop unmapped.
func publishMapped(add []byte, drop [][]byte) {
	mappedMu.Lock()
	defer mappedMu.Unlock()
	var next []addrRange
	if old := mapped.Load(); old != nil {
		next = slices.DeleteFunc(slices.Clone(*old), func(r addrRange) bool {
			return slices.ContainsFunc(drop, func(d []byte) bool { return rangeOf(d) == r })
		})
	}
	if add != nil {
		next = append(next, rangeOf(add))
		slices.SortFunc(next, func(x, y addrRange) int { return cmp.Compare(x.lo, y.lo) })
	}
	mapped.Store(&next)
}

// inArena reports whether b's backing array lies in a mapped arena chunk.
func inArena(b []byte) bool {
	rs := mapped.Load()
	if rs == nil {
		return false
	}
	_, found := slices.BinarySearchFunc(*rs, rangeOf(b).lo, func(r addrRange, p uintptr) int {
		switch {
		case r.hi <= p:
			return -1
		case r.lo > p:
			return 1
		}
		return 0
	})
	return found
}
