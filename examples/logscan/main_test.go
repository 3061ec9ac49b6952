package main

// Example runs the example end to end on the virtual clock, so its
// output repeats byte for byte and `go test` checks it.
func Example() {
	main()
	// Output:
	// HDFS                   3348 ERRORs/day, mean block read  25.12ms,   0% of reads from memory
	// Ignem                  3348 ERRORs/day, mean block read   0.97ms, 100% of reads from memory
}
