package main

// Example runs the program and pins its printout: the simulator is
// deterministic for a fixed seed, so a change that moves any figure below
// fails go test.
func Example() {
	main()
	// Output:
	// workload: 106589 events, 20847 pointer overwrites, 193.2 garbage bytes per overwrite
	// collections:      22
	// requested GC I/O: 10.00%
	// achieved GC I/O:   9.83% of total I/O
	// mean garbage:     39.46% of database size
	// reclaimed:        1300040 of 4026740 garbage bytes
	//
	// SAGA (10% garbage, FGS/HB): achieved 12.90% garbage with 38.74% GC I/O over 99 collections
}
