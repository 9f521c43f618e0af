package main

// Example runs the program and pins its printout: the simulator is
// deterministic for a fixed seed, so a change that moves any figure below
// fails go test.
func Example() {
	main()
	// Output:
	// workload: 106800 events with 1500 idle ticks between phases
	//
	// SAIO(10%)                          collections= 21  gcIO= 9.47%  mean garbage=40.20%  reclaimed=30.3%
	// SAIO(10%) + opportunism            collections= 49  gcIO=18.57%  mean garbage=14.46%  reclaimed=64.9%
	// Coupled(io=10%, garb=10%)          collections= 45  gcIO=22.71%  mean garbage=29.22%  reclaimed=67.2%
	//
	// opportunism converts idle time into reclaimed garbage at zero cost to the
	// application; the coupled policy spends I/O only where garbage pressure justifies it.
}
