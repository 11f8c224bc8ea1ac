package main

// Example runs the quickstart as `go run` does. The facade builds a seeded
// simulation, so the output is exact.
func Example() {
	main()
	// Output:
	// Building a 64-node Octopus network ...
	//   alice@example    -> node  16 (41f27cc6)  queries=6 dummies=6 latency=2.224s ✓
	//   bob@example      -> node  30 (6e661e92)  queries=7 dummies=6 latency=2.991s ✓
	//   the-white-whale  -> node  41 (9b6cffa2)  queries=6 dummies=6 latency=1.588s ✓
	//
	// Initiator stats: 3 lookups, 41 queries (18 dummies), relay pool 5, 35 walks
	// CA casework: 0 reports, 0 revocations (an honest network stays clean)
}
