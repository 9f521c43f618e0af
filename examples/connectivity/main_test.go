package main

// Example runs the program and pins its printout: the simulator is
// deterministic for a fixed seed, so a change that moves any figure below
// fails go test.
func Example() {
	main()
	// Output:
	// connectivity sensitivity (requested vs achieved)
	//
	// conn  policy                 requested   achieved   collections
	// 3     SAIO                          10%      9.63%       22
	// 3     SAIO                          25%     24.64%       60
	// 3     SAGA/oracle                    5%      5.03%      275
	// 3     SAGA/fgs-hb                    5%      7.63%      179
	// 3     SAGA/oracle                   15%     15.76%       82
	// 3     SAGA/fgs-hb                   15%     19.64%       59
	//
	// 6     SAIO                          10%      9.88%       37
	// 6     SAIO                          25%     24.91%       97
	// 6     SAGA/oracle                    5%      5.05%      526
	// 6     SAGA/fgs-hb                    5%      9.31%      234
	// 6     SAGA/oracle                   15%     15.24%      129
	// 6     SAGA/fgs-hb                   15%     20.77%       94
	//
	// 9     SAIO                          10%      9.94%       42
	// 9     SAIO                          25%     24.86%      115
	// 9     SAGA/oracle                    5%      5.09%      830
	// 9     SAGA/fgs-hb                    5%     12.07%      268
	// 9     SAGA/oracle                   15%     15.08%      253
	// 9     SAGA/fgs-hb                   15%     25.34%      129
	//
	// paper shape: accuracy holds across connectivities (Figure 8)
}
