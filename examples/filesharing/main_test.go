package main

// Example runs the file-sharing swarm as `go run` does. The facade builds a
// seeded simulation, so the output is exact.
func Example() {
	main()
	// Output:
	// Building a 96-node file-sharing swarm over Octopus ...
	// Published descriptors:
	//   ubuntu-24.04.iso           stored at node 5
	//   moby-dick.epub             stored at node 22
	//   holiday-photos.tar         stored at node 82
	//   popular-dataset.parquet    stored at node 46
	//   obscure-demo-tape.flac     stored at node 44
	//
	// Anonymous retrievals:
	//   peer  3 -> ubuntu-24.04.iso           node   5 in 0s (0 real + 6 dummy queries) ok
	//   peer 17 -> moby-dick.epub             node  22 in 0s (0 real + 6 dummy queries) ok
	//   peer 42 -> holiday-photos.tar         node  82 in 1.903s (8 real + 6 dummy queries) ok
	//   peer 63 -> popular-dataset.parquet    node  46 in 2.787s (10 real + 6 dummy queries) ok
	//   peer 80 -> obscure-demo-tape.flac     node  44 in 2.073s (7 real + 6 dummy queries) ok
	//
	// 5/5 descriptors located correctly and anonymously
}
