package main

// Example runs the program and pins its printout: the simulator is
// deterministic for a fixed seed, so a change that moves any figure below
// fails go test.
func Example() {
	main()
	// Output:
	// composed workload: 140309 events, 24886 overwrites, 4.84 MB of garbage across 12 phases
	// phases: [GenDB Q1 Q4 T6 Replace Reorg1 T2a Traverse Q7 T8 Replace Reorg2]
	//
	// SAGA(10%, FGS/HB) across the composed workload:
	//   collections:  110
	//   mean garbage: 14.31% (min 9.92% / max 20.74%)
	//   GC I/O share: 32.96%
	//   reclaimed:    3.90 of 4.84 MB
}
