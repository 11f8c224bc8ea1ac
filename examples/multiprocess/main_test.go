package main

import "testing"

// TestRun runs the example as `go run` does: process B exits 0 only once
// its lookup across the process boundary has completed and verified.
func TestRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns OS processes and builds a binary")
	}
	if err := run(); err != nil {
		t.Fatal(err)
	}
}
