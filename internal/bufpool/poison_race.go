//go:build race

package bufpool

// poison fills memory whose contents are unspecified with poisonByte:
// a slot's bytes when it is freed, and MakeNoZero's fresh memory. The
// race detector watches neither memory outside the Go heap nor a read
// of bytes nobody wrote, so in race builds such a read meets the poison
// and fails its checksum or comparison instead of passing silently.
const poison = true
