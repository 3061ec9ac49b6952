package main

// Example runs the example end to end on the virtual clock, so its
// output repeats byte for byte and `go test` checks it.
func Example() {
	main()
	// Output:
	// query        HDFS      Ignem    speedup
	// q52         11.9s       8.9s        25%
	// q42         10.9s       7.9s        27%
	// q3          11.6s       8.6s        26%
}
