//go:build !race

package blockcache

const raceEnabled = false
