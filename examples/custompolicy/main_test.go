package main

// Example runs the program and pins its printout: the simulator is
// deterministic for a fixed seed, so a change that moves any figure below
// fails go test.
func Example() {
	main()
	// Output:
	// duty-cycle(5/1000)    gcIO= 8.18%  garbage mean=37.82% (min 30.04% / max 45.07%)  collections=25
	// saio(8%)              gcIO= 7.58%  garbage mean=41.72% (min 34.11% / max 48.30%)  collections=17
	//
	// the duty cycle reached 8.18% GC I/O only because its burst/rest constants happen
	// to suit this workload; SAIO was told 8.18% and achieved 7.58% by feedback alone.
	// change the workload and the duty cycle drifts while SAIO re-converges (§2.1).
}
