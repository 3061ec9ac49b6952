package bufpool

import "unsafe"

// mallocgc is the runtime's allocator, which the runtime exports for
// linkname use with this signature. A nil type allocates memory the
// collector does not scan; needzero false skips clearing memory the
// heap reused.
//
//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

// MakeNoZero returns a Go-heap slice with len == cap == n whose contents
// are unspecified: make([]byte, n) without the zero-fill. It is for
// memory every byte of which its caller overwrites before anyone reads
// it (a pool refill, a receive destination), where clearing it first
// would only write each byte twice. In race builds it is filled with the
// arena's poison byte, so a read before the write sees the poison
// rather than zeros that pass for data.
func MakeNoZero(n int) []byte {
	if n < 0 {
		panic("bufpool: MakeNoZero of a negative size")
	}
	b := unsafe.Slice((*byte)(mallocgc(uintptr(n), nil, false)), n)
	if poison {
		for i := range b {
			b[i] = poisonByte
		}
	}
	return b
}
