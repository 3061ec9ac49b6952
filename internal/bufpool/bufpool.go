// Package bufpool provides size-classed []byte reuse for the block
// data path, the slot arena that stored replicas live in, and
// MakeNoZero, the heap allocation without zero-fill behind both the
// pool's refills and ReadFile's result.
//
// Buffers are grouped into power-of-two size classes backed by
// sync.Pool. Get(n) returns a slice with len == n taken from the
// smallest class that fits; Put returns a slice to the class matching
// its capacity. The pool is safe for concurrent use. A buffer's
// contents are unspecified, and a fresh one is not zeroed either: a
// class refills, and a size above the largest class is allocated, with
// MakeNoZero, so every caller writes a buffer before reading it, and in
// race builds a read of a byte nobody wrote sees the poison.
//
// Ownership contract (see DESIGN.md "Wire format & buffer ownership"):
// a buffer obtained from Get has exactly one owner at a time. Only the
// sole owner may Put it, and only when no alias to the buffer can
// still be read. Forgetting to Put a pooled buffer is safe — it is
// simply garbage collected. Putting a buffer that is still referenced
// elsewhere is the one fatal misuse: a later Get may hand the same
// backing array to an unrelated writer.
//
// Arena slots (arena.go) are the opposite case on the first point: their
// memory is outside the Go heap and the collector never frees it, so
// every reference to a slot must be released, and a slot's bytes are
// never Put. Put checks this itself: it drops any slice whose backing
// array lies in a mapped arena chunk, so a slot's bytes put by mistake
// never reach a later Get.
package bufpool

import "sync"

const (
	// minClassBits is the smallest pooled size class (512 B);
	// requests below it still get a 512 B-capacity buffer so tiny
	// payloads round-trip through the pool too.
	minClassBits = 9
	// maxClassBits is the largest pooled size class (16 MiB). Larger
	// buffers are allocated directly and dropped on Put.
	maxClassBits = 24
	numClasses   = maxClassBits - minClassBits + 1
)

var classes [numClasses]sync.Pool

// boxes recycles the *[]byte headers that carry buffers through the
// class pools, so a steady-state Get/Put cycle allocates nothing: without
// it every Put would heap-allocate a fresh slice-header box.
var boxes = sync.Pool{New: func() any { return new([]byte) }}

func init() {
	for i := range classes {
		size := 1 << (minClassBits + i)
		classes[i].New = func() any {
			b := MakeNoZero(size)
			return &b
		}
	}
}

// classFor returns the index of the smallest class whose buffers hold
// at least n bytes, or -1 when n exceeds the largest class.
func classFor(n int) int {
	for i := 0; i < numClasses; i++ {
		if n <= 1<<(minClassBits+i) {
			return i
		}
	}
	return -1
}

// Get returns a buffer with len == n. The contents are unspecified:
// callers must overwrite the buffer before reading it.
func Get(n int) []byte {
	if n < 0 {
		panic("bufpool.Get: negative size")
	}
	ci := classFor(n)
	if ci < 0 {
		return MakeNoZero(n)
	}
	bp := classes[ci].Get().(*[]byte)
	b := (*bp)[:n]
	*bp = nil
	boxes.Put(bp)
	return b
}

// Put returns b to its size class. Buffers whose capacity does not
// exactly match a class (e.g. subsliced or app-allocated buffers) and
// buffers larger than the biggest class are dropped for the garbage
// collector, never pooled — pooling them would shrink the class over
// time. So are an arena slot's bytes, whatever their size: a slot goes
// back through its Release, and pooling its memory would hand a stored
// replica to the next Get.
func Put(b []byte) {
	c := cap(b)
	if c == 0 {
		return
	}
	ci := classFor(c)
	if ci < 0 || c != 1<<(minClassBits+ci) || inArena(b) {
		return
	}
	bp := boxes.Get().(*[]byte)
	*bp = b[:c]
	classes[ci].Put(bp)
}
