package main

import (
	"strings"
	"testing"
)

// TestRun runs the example as `go run` does. Hop counts and wall times vary
// from run to run, so it checks that every lookup reached the ring's owner
// and that every message had a wire codec.
func TestRun(t *testing.T) {
	var out strings.Builder
	if err := run(&out); err != nil {
		t.Fatal(err)
	}
	lookups := 0
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, " -> node ") {
			lookups++
			if !strings.HasSuffix(line, ") ok") {
				t.Errorf("lookup did not reach the owner: %s", line)
			}
		}
	}
	if lookups != 6 {
		t.Errorf("%d lookup lines, want 6:\n%s", lookups, out.String())
	}
	if !strings.Contains(out.String(), "\nCodec errors: 0 ") {
		t.Errorf("no \"Codec errors: 0\" line:\n%s", out.String())
	}
}
