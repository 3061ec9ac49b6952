//go:build race

package blockcache

// raceEnabled says whether freed arena slots are poisoned (race builds
// fill them with bufpool's poison pattern).
const raceEnabled = true
