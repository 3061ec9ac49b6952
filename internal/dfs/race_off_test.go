//go:build !race

package dfs

const raceEnabled = false
