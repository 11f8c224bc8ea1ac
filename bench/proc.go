package main

import (
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"
)

// clockTick is the kernel's USER_HZ, the unit of utime/stime in
// /proc/<pid>/stat. It is 100 on every Linux architecture Go supports;
// reading it properly needs sysconf(3), which needs cgo.
const clockTick = 100

// parseProcStatCPU extracts utime+stime from the text of /proc/<pid>/stat.
// The second field is the executable name in parentheses and may itself
// contain spaces and parentheses, so fields are counted from the last ')'.
func parseProcStatCPU(stat string) (time.Duration, error) {
	end := strings.LastIndexByte(stat, ')')
	if end < 0 {
		return 0, fmt.Errorf("proc stat: no ')' in %q", stat)
	}
	// After the comm field: state is field 3, so utime (14) and stime (15)
	// are at indexes 11 and 12 of the remainder.
	f := strings.Fields(stat[end+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields after comm, want >= 13", len(f))
	}
	utime, err := strconv.ParseUint(f[11], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat utime: %w", err)
	}
	stime, err := strconv.ParseUint(f[12], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("proc stat stime: %w", err)
	}
	return time.Duration(utime+stime) * time.Second / clockTick, nil
}

// parseProcStatusHWM extracts VmHWM (peak resident set) in bytes from the
// text of /proc/<pid>/status.
func parseProcStatusHWM(status string) (uint64, error) {
	for _, line := range strings.Split(status, "\n") {
		rest, ok := strings.CutPrefix(line, "VmHWM:")
		if !ok {
			continue
		}
		f := strings.Fields(rest)
		if len(f) != 2 || f[1] != "kB" {
			return 0, fmt.Errorf("proc status: unexpected VmHWM line %q", line)
		}
		kb, err := strconv.ParseUint(f[0], 10, 64)
		if err != nil {
			return 0, fmt.Errorf("proc status VmHWM: %w", err)
		}
		return kb << 10, nil
	}
	return 0, fmt.Errorf("proc status: no VmHWM line")
}

// procCPU reads the CPU time a process has consumed so far.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatCPU(string(b))
}

// procHWM reads a process's peak resident set in bytes.
func procHWM(pid int) (uint64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStatusHWM(string(b))
}
