package main

// Example runs the example end to end on the virtual clock, so its
// output repeats byte for byte and `go test` checks it.
func Example() {
	main()
	// Output:
	// 1. migrated 256 MB for job1 (pinned: 256 MB)
	// 2. Ignem master restarted (new epoch, empty state)
	// 3. slaves purged job1's stale pins; only job2's 64 MB remain (pinned: 64 MB)
	// 4. all slave processes restarted; pinned memory discarded (pinned: 0 MB)
	// 5. data still readable from disk after slave restart (621.728215ms)
	// 6. datanode dn0 died
	// 7. namenode expired the dead node; reads fail over to surviving replicas
	// 8. journaled master restarted (epoch 1 -> 1, pinned: 128 MB)
	// 9. the resumed master evicted job4 (pinned: 0 MB)
}
