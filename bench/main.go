// Command bench is the repository's wall-clock benchmark. It drives real
// octopusd processes over loopback TCP with three client workloads, runs the
// deterministic simulator as a fourth, checks every answer against ground
// truth, and prints end-to-end metrics (untraced) or per-layer metrics
// (-trace) by name with their units. README.md in this directory is the
// glossary; BENCHMARK.json at the repository root is the contract the
// benchmark driver holds it to.
//
//	go run ./bench                        all four workloads, 40 s windows
//	go run ./bench -trace                 the same with tracing on: per-layer numbers
//	go run ./bench -workload tcp-lookup-hot -seed 7 -seconds 12
//	go run ./bench -compare a.json b.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
)

func main() { os.Exit(run()) }

func run() (code int) {
	// Daemons die with the benchmark on every exit path: normal return and
	// error return through this defer, a panic on this goroutine through it
	// too (the panic continues afterwards), signals through the handler
	// below, and anything harsher through the daemons' Pdeathsig.
	defer killAllRings()
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		s := <-sigc
		fmt.Fprintf(os.Stderr, "bench: %v, stopping daemons\n", s)
		killAllRings()
		os.Exit(130)
	}()

	var (
		wlName  = flag.String("workload", "", "run only this workload (default: all four) and end with the driver's one-line JSON result")
		seed    = flag.Int64("seed", 1, "workload seed: drives the ring seed, key draws and op mix")
		seconds = flag.Int("seconds", 40, "measured window in seconds (the simulator workload sizes its fixed virtual schedule from it)")
		traced  = flag.Bool("trace", false, "run with tracing on and report the per-layer metrics instead of the end-to-end ones")
		compare = flag.Bool("compare", false, "compare two all-workload result files given as arguments; exit non-zero if any end-to-end metric differs by more than its bound")
	)
	flag.BoolVar(&breakTruth, "break-truth", false, "self-test: corrupt the expected answers, so the run must report wrong answers and exit non-zero")
	if err := flag.CommandLine.Parse(normalizeArgs(os.Args[1:])); err != nil {
		return 2
	}
	if *compare {
		if flag.NArg() != 2 {
			fmt.Fprintln(os.Stderr, "bench: -compare takes two result files")
			return 2
		}
		return compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1))
	}
	if flag.NArg() != 0 || *seconds < 1 || (*wlName != "" && !isWorkload(*wlName)) {
		fmt.Fprintf(os.Stderr, "bench: bad arguments %q\n", os.Args[1:])
		flag.Usage()
		return 2
	}

	rep := newReport(*seed, *seconds, *traced)
	for _, w := range workloads {
		if *wlName != "" && w.Name != *wlName {
			continue
		}
		fmt.Fprintf(os.Stderr, "bench: running %s (seed %d, %d s, trace %v)\n", w.Name, *seed, *seconds, *traced)
		res, err := runWorkload(w.Name, *seed, *seconds, *traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.Name, err)
			return 1
		}
		res.printText(os.Stdout)
		rep.Results = append(rep.Results, res)
		one := *rep
		one.Results = []*wlResult{res}
		if err := one.save(reportPath(w.Name, *traced)); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		if !res.Correct {
			code = 1
		}
	}

	if *wlName != "" {
		line, err := rep.Results[0].contractLine(*traced)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %v\n", err)
			return 1
		}
		fmt.Println(line)
		return code
	}
	path := reportPath("", *traced)
	if err := rep.save(path); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	fmt.Printf("\nJSON (also written to %s):\n", path)
	enc := json.NewEncoder(os.Stdout)
	enc.SetIndent("", "  ")
	if err := enc.Encode(rep); err != nil {
		fmt.Fprintf(os.Stderr, "bench: %v\n", err)
		return 1
	}
	return code
}

// normalizeArgs lets -trace be given the driver's way, as "--trace 0" or
// "--trace 1": the flag package would read a boolean flag's detached value
// as the first positional argument and stop parsing.
func normalizeArgs(args []string) []string {
	out := make([]string, 0, len(args))
	for i := 0; i < len(args); i++ {
		a := args[i]
		if (a == "-trace" || a == "--trace") && i+1 < len(args) {
			switch args[i+1] {
			case "0", "1", "true", "false":
				a += "=" + args[i+1]
				i++
			}
		}
		out = append(out, a)
	}
	return out
}

// runWorkload runs one workload and completes its result: the verdict and,
// for a traced run, the layer probes and the tracing overhead.
func runWorkload(wl string, seed int64, seconds int, traced bool) (*wlResult, error) {
	var res *wlResult
	var err error
	if wl == wlSim {
		res, err = runSim(seed, seconds, traced)
	} else {
		res, err = runTCP(wl, seed, seconds, traced)
	}
	if err != nil {
		return nil, err
	}
	res.finish()
	if !traced {
		return res, nil
	}
	switch wl {
	case wlUniform:
		if err := tcpProbes(res); err != nil {
			return nil, fmt.Errorf("layer probes: %w", err)
		}
	case wlSim:
		simProbes(res)
	}
	// Tracing overhead needs the untraced run of the same workload; it is
	// read from where that run left it.
	base, err := loadReport(reportPath(wl, false))
	if err != nil || base.result(wl) == nil {
		res.note("trace_overhead_frac needs an untraced run of this workload first (no %s)", reportPath(wl, false))
		return res, nil
	}
	if base.Seconds != seconds {
		res.note("trace_overhead_frac compares against an untraced run of %d s, this run is %d s", base.Seconds, seconds)
	}
	// Rates on both sides (ops/s for tcp, events/s for the simulator, whose
	// event count is fixed, so this is also traced wall ÷ untraced wall − 1):
	// positive means tracing costs.
	rate := "ops_per_s"
	if wl == wlSim {
		rate = "sim_events_per_s"
	}
	res.set("trace_overhead_frac", ratio(base.result(wl).Metrics[rate].Value, res.tracedRate)-1, 0)
	return res, nil
}
