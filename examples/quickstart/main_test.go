package main

// Example runs the example end to end on the virtual clock, so its
// output repeats byte for byte and `go test` checks it.
func Example() {
	main()
	// Output:
	// wrote /data/input (512 MB)
	// cold read:     3.178358696s
	// migrate enqueued 8 blocks (512 MB)
	// all blocks pinned after 1.80200204s of lead-time
	// migrated read: 621.728215ms (5x faster)
	// pinned after evict: 0 bytes
}
