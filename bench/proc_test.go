package main

import (
	"testing"
	"time"
)

func TestParseProcStatCPU(t *testing.T) {
	// The comm field may hold spaces and parentheses; utime=250 and
	// stime=50 ticks are fields 14 and 15.
	stat := "4242 (octo pus) d) S 1 4242 4242 0 -1 4194560 900 0 0 0 250 50 0 0 20 0 9 0 12345 1234567 890 18446744073709551615 1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0"
	got, err := parseProcStatCPU(stat)
	if err != nil {
		t.Fatal(err)
	}
	if want := 3 * time.Second; got != want {
		t.Errorf("cpu = %v, want %v", got, want)
	}
	for _, bad := range []string{"", "4242 octopusd S 1", "4242 (octopusd) S 1 2 3", "1 (x) S 1 1 1 0 -1 0 0 0 0 0 abc 5 0"} {
		if _, err := parseProcStatCPU(bad); err == nil {
			t.Errorf("parseProcStatCPU(%q) succeeded, want an error", bad)
		}
	}
}

func TestParseProcStatusHWM(t *testing.T) {
	status := "Name:\toctopusd\nVmPeak:\t 1300000 kB\nVmHWM:\t   46080 kB\nVmRSS:\t   40000 kB\n"
	got, err := parseProcStatusHWM(status)
	if err != nil {
		t.Fatal(err)
	}
	if want := uint64(45 << 20); got != want {
		t.Errorf("hwm = %d, want %d", got, want)
	}
	for _, bad := range []string{"Name:\tx\n", "VmHWM:\t12 MB\n", "VmHWM:\tlots kB\n"} {
		if _, err := parseProcStatusHWM(bad); err == nil {
			t.Errorf("parseProcStatusHWM(%q) succeeded, want an error", bad)
		}
	}
}
