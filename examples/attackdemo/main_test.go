package main

// Example runs the attack demo as `go run` does. The network and the
// colluders are seeded, so the output is exact.
func Example() {
	main()
	// Output:
	// Building a 150-node network; 20% of it is about to turn hostile ...
	// 30 colluders installed: they now serve successor lists pointing at each other
	//
	// time     malicious remaining    CA reports     revocations
	// 1m        30 ############################## 114            0
	// 2m        14 ##############     287            16
	// 3m         5 #####              343            25
	// 4m         3 ###                353            27
	// 5m         1 #                  356            29
	// 6m         0                    357            30
	// 7m         0                    357            30
	// 8m         0                    357            30
	// 9m         0                    357            30
	// 10m        0                    357            30
	// 11m        0                    357            30
	//
	// Final: 0 attackers still active, 30 revocations, 275 false alarms
	// The network cleaned itself up — exactly the paper's Fig. 3(a).
}
