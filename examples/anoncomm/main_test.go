package main

// Example runs the circuit as `go run` does. Relay choice is seeded, and the
// onion keys drawn from crypto/rand show only in lengths, so the output is
// exact.
func Example() {
	main()
	// Output:
	// Building an 80-node anonymity network over Octopus ...
	//   relay 1 selected: node   1 (lookup sent 9 real + 6 dummy queries)
	//   relay 2 selected: node  19 (lookup sent 5 real + 6 dummy queries)
	//   relay 3 selected: node  36 (lookup sent 6 real + 6 dummy queries)
	//
	// Circuit 1 -> 19 -> 36, onion 114 bytes for a 30-byte payload
	//   relay 1 (node 1): forward to node 19 (86 bytes remain opaque)
	//   relay 2 (node 19): forward to node 36 (58 bytes remain opaque)
	//   relay 3 (node 36): exit — payload "GET /hidden-service/index.html"
	//
	// Reply unwrapped by the initiator: "<html>hidden service says hi</html>"
}
