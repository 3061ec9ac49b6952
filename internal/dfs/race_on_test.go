//go:build race

package dfs

// raceEnabled gates the allocation ceilings: under the race detector
// sync.Pool drops a quarter of what is put into it, so bufpool buffers
// are allocated again however carefully they are given back.
const raceEnabled = true
