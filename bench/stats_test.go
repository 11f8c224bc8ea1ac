package main

import "testing"

func TestTailPercentile(t *testing.T) {
	cases := []struct {
		n    int
		want float64
		p    float64
		ok   bool
	}{
		{1000, 99, 99, true},   // exactly ten beyond p99
		{999, 99, 98, false},   // nine beyond p99: fall back one rung
		{231, 99, 95, false},   // a short window supports only p95
		{200, 95, 95, true},    // exactly ten beyond p95
		{199, 95, 90, false},   // nine beyond p95
		{15, 99, 50, false},    // nothing on the ladder has ten beyond it
		{0, 99, 50, false},     // empty sample
		{100000, 99, 99, true}, // never reports higher than asked
	}
	for _, c := range cases {
		p, ok := tailPercentile(c.n, c.want)
		if p != c.p || ok != c.ok {
			t.Errorf("tailPercentile(%d, %v) = %v, %v; want %v, %v", c.n, c.want, p, ok, c.p, c.ok)
		}
	}
}

func TestRatioZeroDenominator(t *testing.T) {
	if got := ratio(5, 0); got != 0 {
		t.Errorf("ratio(5, 0) = %v, want 0", got)
	}
	if got := ratio(6, 3); got != 2 {
		t.Errorf("ratio(6, 3) = %v, want 2", got)
	}
}
