package main

// Example runs the example end to end on the virtual clock, so its
// output repeats byte for byte and `go test` checks it.
func Example() {
	main()
	// Output:
	// stored 6 corpus files
	// job finished in 9.989s (input 384 KB)
	// top words:
	//   the          25079
	//   and          10217
	//   credit       5965
	//   report       4070
	//   account      3043
	// all migrated memory released
}
