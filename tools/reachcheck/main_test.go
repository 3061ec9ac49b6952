package main

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// A bodyless declaration has no code of its own for a binary to link,
// so it is never reported: a //go:linkname pull of a runtime function
// would otherwise always read as unlinked.
func TestParseDeclsSkipsBodylessFunctions(t *testing.T) {
	dir := t.TempDir()
	src := `package p

import "unsafe"

//go:linkname mallocgc runtime.mallocgc
func mallocgc(size uintptr, typ unsafe.Pointer, needzero bool) unsafe.Pointer

func init() {}

func withBody() {}

type T struct{}

func (*T) method() {}
`
	if err := os.WriteFile(filepath.Join(dir, "p.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	decls, err := parseDecls([]pkgInfo{{path: "m/p", name: "p", dir: dir, files: []string{"p.go"}}})
	if err != nil {
		t.Fatal(err)
	}
	var keys []string
	for _, d := range decls {
		keys = append(keys, d.key)
	}
	if want := []string{"m/p.withBody", "m/p.T.method"}; !slices.Equal(keys, want) {
		t.Fatalf("declarations %v, want %v", keys, want)
	}
}
