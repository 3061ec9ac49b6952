//go:build race

package bufpool

// poisonFreedSlots overwrites a slot's bytes when it is freed. The race
// detector does not watch memory outside the Go heap, so in race builds
// a read of a released slot meets the poison and fails its checksum
// instead of passing silently.
const poisonFreedSlots = true
