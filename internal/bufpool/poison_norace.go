//go:build !race

package bufpool

const poisonFreedSlots = false
