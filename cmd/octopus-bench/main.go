// Command octopus-bench regenerates every table and figure of the paper's
// evaluation. Each subcommand prints the same rows or series the paper
// reports.
//
// Usage:
//
//	octopus-bench [flags] <experiment>
//
// Experiments: table1 table2 table3 fig3a fig3b fig3c fig4 fig5a fig5b
// fig5c fig6 fig7a fig7b fig9 load storage chaos all
//
// `load` goes beyond the paper: it drives a serving deployment with an
// open-loop arrival process and reports the throughput ceiling and latency
// percentiles as a function of α (lookup parallelism) and the managed
// relay-pair pool (see internal/experiments/load.go).
//
// `storage` drives the replicated key-value store (internal/store) with an
// open-loop read/write mix under churn and reports hit rate and latency
// percentiles per mix (see internal/experiments/storage.go).
//
// `chaos` drives the full system through a scripted storm — correlated 40%
// mass-kill, rolling asymmetric partitions, loss/jitter bursts, flash-crowd
// rejoin — and reports lookup success rate, store hit rate, and
// time-to-recovery against explicit SLOs (see internal/experiments/chaos.go).
//
// The -scale flag shrinks every experiment for quick runs (0.1 ≈ seconds,
// 1.0 = paper scale). The -tier flag switches load/storage/chaos onto the
// one-hop routing tier; -nodes overrides their ring size (the nightly
// one-hop load job runs -tier onehop -nodes 10000).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"github.com/octopus-dht/octopus/internal/adversary"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/experiments"
	"github.com/octopus-dht/octopus/internal/metrics"
	"github.com/octopus-dht/octopus/internal/obs"
)

func main() {
	if err := run(os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "octopus-bench:", err)
		os.Exit(1)
	}
}

type options struct {
	scale      float64
	seed       int64
	tier       string
	nodes      int
	metricsOut string
}

func run(w io.Writer, args []string) error {
	fs := flag.NewFlagSet("octopus-bench", flag.ContinueOnError)
	scale := fs.Float64("scale", 0.3, "experiment scale factor (1.0 = paper scale)")
	seed := fs.Int64("seed", 1, "simulation seed")
	tier := fs.String("tier", core.TierFinger, "load/storage/chaos: routing tier (\"finger\" or \"onehop\")")
	nodes := fs.Int("nodes", 0, "load/storage/chaos: override the ring size (0 = scaled default)")
	metricsOut := fs.String("metrics-out", "", "load/chaos: write a Prometheus text snapshot of the deployment's metrics to this file after the run")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *tier != core.TierFinger && *tier != core.TierOneHop {
		return fmt.Errorf("-tier %q: want %q or %q", *tier, core.TierFinger, core.TierOneHop)
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: octopus-bench [-scale f] [-seed n] <%s>", "table1|table2|table3|fig3a|fig3b|fig3c|fig4|fig5a|fig5b|fig5c|fig6|fig7a|fig7b|fig9|load|storage|chaos|all")
	}
	opt := options{scale: *scale, seed: *seed, tier: *tier, nodes: *nodes, metricsOut: *metricsOut}

	all := map[string]func(io.Writer, options) error{
		"table1": table1, "table2": table2, "table3": table3,
		"fig3a": fig3a, "fig3b": fig3b, "fig3c": fig3c, "fig4": fig4,
		"fig5a": fig5a, "fig5b": fig5b, "fig5c": fig5c, "fig6": fig6,
		"fig7a": fig7a, "fig7b": fig7b, "fig9": fig9, "load": load,
		"storage": storage, "chaos": chaos,
	}
	name := fs.Arg(0)
	if name == "all" {
		order := []string{"table1", "table2", "table3", "fig3a", "fig3b", "fig3c",
			"fig4", "fig5a", "fig5b", "fig5c", "fig6", "fig7a", "fig7b", "fig9", "load",
			"storage", "chaos"}
		for _, n := range order {
			if err := all[n](w, opt); err != nil {
				return fmt.Errorf("%s: %w", n, err)
			}
		}
		return nil
	}
	fn, ok := all[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q", name)
	}
	return fn(w, opt)
}

func scaled[T int | time.Duration](base T, scale float64, floor T) T {
	return max(T(float64(base)*scale), floor)
}

// securityConfig assembles a scaled §5 configuration.
func securityConfig(opt options) experiments.SecurityConfig {
	cfg := experiments.DefaultSecurityConfig()
	cfg.N = scaled(1000, opt.scale, 200)
	cfg.Duration = scaled(1000*time.Second, 1, 1000*time.Second)
	cfg.SampleEvery = 50 * time.Second
	cfg.Seed = opt.seed
	return cfg
}

func table1(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Table 1: error rate of end-to-end timing analysis attack ==")
	n := scaled(1_000_000, opt.scale, 100_000)
	rows := experiments.RunTable1(n, scaled(1000, opt.scale, 200), opt.seed)
	fmt.Fprintf(w, "%-12s %-8s %-12s %-14s %s\n", "max delay", "alpha", "error rate", "leak (bits)", "candidates")
	for _, r := range rows {
		alpha := fmt.Sprintf("%.1f%%", r.Alpha*100)
		errRate := fmt.Sprintf("%.2f%%", r.ErrorRate*100)
		fmt.Fprintf(w, "%-12v %-8s %-12s %-14.3f %d\n",
			r.MaxDelay, alpha, errRate, r.InfoLeak, r.Candidates)
	}
	fmt.Fprintln(w)
	return nil
}

func table2(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Table 2: false positive/negative/alarm rates (attack rate 100%) ==")
	base := securityConfig(opt)
	rows := experiments.RunTable2(base)
	fmt.Fprintf(w, "%-26s %-10s %-12s %-12s %s\n", "attack", "lifetime", "false pos", "false neg", "false alarm")
	for _, r := range rows {
		fp := fmt.Sprintf("%.2f%%", r.FalsePositive*100)
		fn := fmt.Sprintf("%.2f%%", r.FalseNegative*100)
		fa := fmt.Sprintf("%.2f%%", r.FalseAlarm*100)
		fmt.Fprintf(w, "%-26s %-10v %-12s %-12s %s\n", r.Attack, r.ChurnMean, fp, fn, fa)
	}
	fmt.Fprintln(w)
	return nil
}

func table3(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Table 3: efficiency comparison (207-node testbed) ==")
	cfg := experiments.DefaultEfficiencyConfig()
	cfg.Lookups = scaled(2000, opt.scale, 200)
	cfg.Seed = opt.seed
	rows := []experiments.SchemeEfficiency{
		experiments.RunOctopusEfficiency(cfg),
		experiments.RunChordEfficiency(cfg),
		experiments.RunHaloEfficiency(cfg),
	}
	fmt.Fprintf(w, "%-9s %-11s %-13s %-18s %s\n",
		"scheme", "mean lat", "median lat", "bw @LK=5min", "bw @LK=10min")
	for _, r := range rows {
		fmt.Fprintf(w, "%-9s %-11.2fs %-13.2fs %-18.2f %.2f kbps\n",
			r.Name, r.MeanLatency.Seconds(), r.MedianLatency.Seconds(),
			r.BandwidthKbps[5*time.Minute], r.BandwidthKbps[10*time.Minute])
	}
	fmt.Fprintln(w)
	return nil
}

// securitySeries runs one attack and prints its malicious-fraction decay;
// attack sets up the run at each attack rate.
func securitySeries(w io.Writer, opt options, title string, attack func(cfg *experiments.SecurityConfig, rate float64)) error {
	fmt.Fprintln(w, title)
	for _, rate := range []float64{1.0, 0.5} {
		cfg := securityConfig(opt)
		attack(&cfg, rate)
		res := experiments.RunSecurity(cfg)
		fmt.Fprintf(w, "-- attack rate = %.0f%% --\n", rate*100)
		fmt.Fprint(w, res.MaliciousSeries().Format("fraction of malicious nodes"))
	}
	fmt.Fprintln(w)
	return nil
}

func fig3a(w io.Writer, opt options) error {
	return securitySeries(w, opt, "== Fig 3(a): malicious nodes remaining under lookup bias attack ==",
		func(cfg *experiments.SecurityConfig, rate float64) {
			cfg.Strategy = adversary.Strategy{AttackRate: rate, BiasLookups: true}
		})
}

func fig3b(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 3(b): all lookups vs biased lookups (lookup bias attack) ==")
	cfg := securityConfig(opt)
	cfg.Strategy = adversary.Strategy{AttackRate: 1, BiasLookups: true}
	cfg.LookupEvery = time.Minute
	res := experiments.RunSecurity(cfg)
	fmt.Fprintf(w, "%-12s %-12s %s\n", "time(s)", "lookups", "biased")
	for _, s := range res.Samples {
		fmt.Fprintf(w, "%-12.0f %-12d %d\n", s.T.Seconds(), s.Lookups, s.Biased)
	}
	fmt.Fprintln(w)
	return nil
}

func fig3c(w io.Writer, opt options) error {
	return securitySeries(w, opt, "== Fig 3(c): malicious nodes remaining under fingertable manipulation ==",
		func(cfg *experiments.SecurityConfig, rate float64) {
			cfg.Strategy = adversary.Strategy{AttackRate: rate, ManipulateFingers: true, ConsistentPredRate: 0.5}
		})
}

func fig4(w io.Writer, opt options) error {
	return securitySeries(w, opt, "== Fig 4: malicious nodes remaining under fingertable pollution ==",
		func(cfg *experiments.SecurityConfig, rate float64) {
			cfg.Strategy = adversary.Strategy{
				AttackRate: rate, BiasLookups: true,
				ManipulateFingers: true, ConsistentPredRate: 0.5,
			}
		})
}

func anonConfig(opt options) experiments.AnonymityConfig {
	cfg := experiments.DefaultAnonymityConfig()
	cfg.N = scaled(100_000, opt.scale, 10_000)
	cfg.Trials = scaled(300, opt.scale, 120)
	cfg.PreSimRuns = scaled(3000, opt.scale, 1000)
	cfg.Seed = opt.seed
	return cfg
}

func printAnonCurves(w io.Writer, curves []experiments.AnonymityCurve, target bool) {
	for _, c := range curves {
		fmt.Fprintf(w, "-- %s --\n", c.Label)
		fmt.Fprintf(w, "%-8s %-10s %-10s %s\n", "f", "H (bits)", "ideal", "leak")
		for _, p := range c.Points {
			h, ideal := p.Result.HInitiator, p.Result.IdealInitiator
			if target {
				h, ideal = p.Result.HTarget, p.Result.IdealTarget
			}
			fmt.Fprintf(w, "%-8.2f %-10.2f %-10.2f %.2f\n", p.F, h, ideal, ideal-h)
		}
	}
	fmt.Fprintln(w)
}

func fig5a(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 5(a): initiator anonymity H(I) of Octopus ==")
	printAnonCurves(w, experiments.RunFig5a(anonConfig(opt)), false)
	return nil
}

func fig5b(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 5(b): initiator anonymity comparison (alpha = 1%) ==")
	printAnonCurves(w, experiments.RunComparison(anonConfig(opt)), false)
	return nil
}

func fig5c(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 5(c): target anonymity H(T) of Octopus ==")
	printAnonCurves(w, experiments.RunFig5c(anonConfig(opt)), true)
	return nil
}

func fig6(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 6: target anonymity comparison (alpha = 1%) ==")
	printAnonCurves(w, experiments.RunComparison(anonConfig(opt)), true)
	return nil
}

func fig7a(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 7(a): CDF of lookup latency ==")
	cfg := experiments.DefaultEfficiencyConfig()
	cfg.Lookups = scaled(2000, opt.scale, 200)
	cfg.Seed = opt.seed
	for _, r := range []experiments.SchemeEfficiency{
		experiments.RunChordEfficiency(cfg),
		experiments.RunOctopusEfficiency(cfg),
		experiments.RunHaloEfficiency(cfg),
	} {
		fmt.Fprintf(w, "-- %s --\n", r.Name)
		fmt.Fprint(w, metrics.FormatCDF(r.CDF, "latency(ms)", 1000))
	}
	fmt.Fprintln(w)
	return nil
}

func fig7b(w io.Writer, opt options) error {
	fmt.Fprintln(w, "== Fig 7(b): CA workload (messages/s) per attack ==")
	attacks := []struct {
		name     string
		strategy adversary.Strategy
	}{
		{"lookup bias", adversary.Strategy{AttackRate: 1, BiasLookups: true}},
		{"FT manipulation", adversary.Strategy{AttackRate: 1, ManipulateFingers: true, ConsistentPredRate: 0.5}},
		{"FT pollution", adversary.Strategy{AttackRate: 1, BiasLookups: true, ManipulateFingers: true, ConsistentPredRate: 0.5}},
	}
	for _, atk := range attacks {
		cfg := securityConfig(opt)
		cfg.Strategy = atk.strategy
		res := experiments.RunSecurity(cfg)
		fmt.Fprintf(w, "-- %s --\n", atk.name)
		fmt.Fprint(w, res.CAWorkloadSeries().Format("CA messages/s"))
	}
	fmt.Fprintln(w)
	return nil
}

// load sweeps the serving path's throughput ceiling over α and the
// managed-pool target, at a fixed open-loop offered load.
func load(w io.Writer, opt options) error {
	fmt.Fprintf(w, "== Load: anonymous-lookup serving throughput vs α and pool (open loop, %s tier) ==\n", opt.tier)
	base := experiments.DefaultLoadConfig()
	base.N = scaled(base.N, opt.scale, 80)
	if opt.nodes > 0 {
		base.N = opt.nodes
	}
	base.Duration = scaled(base.Duration, opt.scale, 45*time.Second)
	base.Tier = opt.tier
	base.Seed = opt.seed
	if opt.metricsOut != "" {
		// Same collector surface octopusd serves over HTTP; the snapshot
		// (tier sizes, staleness, maintenance bytes) lands in a file the
		// nightly one-hop job uploads. Only the last sweep row is
		// registered — each row is its own deployment.
		base.Collector = obs.NewCollector()
	}
	rows := []struct {
		name                 string
		alpha, pool, workers int
	}{
		{"sequential", 1, 0, 1}, // the paper's one-at-a-time path
		{"α=1 +pool", 1, 16, 8},
		{"α=3 -pool", 3, 0, 8},
		{"α=3 +pool", 3, 16, 8},
	}
	fmt.Fprintf(w, "offered %.0f lookups/s over %v, %d nodes, %d serving\n",
		base.Rate, base.Duration, base.N, base.ServingNodes)
	fmt.Fprintf(w, "%-12s %-10s %-10s %-9s %-9s %-9s %-9s %-15s %s\n",
		"config", "done/s", "rejected", "p50", "p95", "p99", "wait", "fallback pairs", "tier-maint")
	for i, row := range rows {
		cfg := base
		cfg.Alpha, cfg.Pool, cfg.Workers = row.alpha, row.pool, row.workers
		if i < len(rows)-1 {
			cfg.Collector = nil
		}
		r := experiments.RunLoad(cfg)
		fmt.Fprintf(w, "%-12s %-10.2f %-10d %-9s %-9s %-9s %-9s %-15d %dB\n",
			row.name, r.Throughput, r.Rejected,
			r.P50.Round(10*time.Millisecond), r.P95.Round(10*time.Millisecond),
			r.P99.Round(10*time.Millisecond), r.MeanWait.Round(10*time.Millisecond),
			r.FallbackPairs, r.TierMaintBytes)
	}
	if base.Collector != nil {
		if err := writeMetrics(opt.metricsOut, base.Collector); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics snapshot written to %s\n", opt.metricsOut)
	}
	fmt.Fprintln(w)
	return nil
}

// writeMetrics dumps a collector's snapshot as Prometheus text.
func writeMetrics(path string, c *obs.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := obs.WriteText(f, c.Snapshot()); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// storage drives the replicated key-value store with a read/write mix under
// churn and reports hit rate and latency percentiles per mix.
func storage(w io.Writer, opt options) error {
	fmt.Fprintf(w, "== Storage: replicated KV over anonymous lookups (open-loop mix, churn, %s tier) ==\n", opt.tier)
	base := experiments.DefaultStorageConfig()
	base.N = scaled(base.N, opt.scale, 80)
	if opt.nodes > 0 {
		base.N = opt.nodes
	}
	base.Duration = scaled(base.Duration, opt.scale, 45*time.Second)
	base.Tier = opt.tier
	base.Seed = opt.seed
	rows := []struct {
		name  string
		reads float64
		kills int
	}{
		{"read-heavy", 0.75, 0},
		{"write-heavy", 0.25, 0},
		{"read-heavy +churn", 0.75, base.Kills},
		{"write-heavy +churn", 0.25, base.Kills},
	}
	fmt.Fprintf(w, "offered %.0f ops/s over %v, %d nodes, %d gateways, %d keys, %d replicas\n",
		base.Rate, base.Duration, base.N, base.ServingNodes, base.Keys, base.Replicas)
	fmt.Fprintf(w, "%-20s %-7s %-9s %-9s %-9s %-9s %-9s %-8s %s\n",
		"config", "hit%", "get-p50", "get-p95", "put-p50", "put-p95", "misses", "kills", "pulled")
	for _, row := range rows {
		cfg := base
		cfg.ReadFraction, cfg.Kills = row.reads, row.kills
		r := experiments.RunStorage(cfg)
		fmt.Fprintf(w, "%-20s %-7.2f %-9s %-9s %-9s %-9s %-9d %-8d %d\n",
			row.name, r.HitRate*100,
			r.GetP50.Round(10*time.Millisecond), r.GetP95.Round(10*time.Millisecond),
			r.PutP50.Round(10*time.Millisecond), r.PutP95.Round(10*time.Millisecond),
			r.Misses, r.Kills, r.Pulled)
	}
	fmt.Fprintln(w)
	return nil
}

// chaos drives the disaster drill: a scripted kill-storm with rolling
// partitions and a flash-crowd rejoin, judged against explicit SLOs.
func chaos(w io.Writer, opt options) error {
	fmt.Fprintf(w, "== Chaos: scripted storm survival vs SLOs (40%% kill, partitions, flash rejoin, %s tier) ==\n", opt.tier)
	cfg := experiments.DefaultChaosConfig()
	cfg.N = scaled(cfg.N, opt.scale, 200)
	if opt.nodes > 0 {
		cfg.N = opt.nodes
	}
	cfg.PostRecovery = scaled(cfg.PostRecovery, opt.scale, time.Minute)
	cfg.Tier = opt.tier
	cfg.Seed = opt.seed
	if opt.metricsOut != "" {
		// Same collector surface octopusd serves over HTTP; here the
		// snapshot lands in a file (the nightly chaos job uploads it).
		cfg.Collector = obs.NewCollector()
	}
	r := experiments.RunChaos(cfg)
	if cfg.Collector != nil {
		if err := writeMetrics(opt.metricsOut, cfg.Collector); err != nil {
			return err
		}
		fmt.Fprintf(w, "metrics snapshot written to %s\n", opt.metricsOut)
	}
	fmt.Fprintf(w, "%d nodes, %d gateways, storm: %d killed / %d rejoined (%d refused)\n",
		cfg.N, cfg.ServingNodes, r.Killed, r.Rejoined, r.RejoinFailed)
	fmt.Fprintf(w, "%-14s %-10s %-10s %-10s %-10s %s\n",
		"phase", "lookups", "success%", "gets", "hit%", "misses")
	for _, row := range []struct {
		name string
		p    experiments.ChaosPhase
	}{{"baseline", r.Baseline}, {"storm", r.Storm}, {"post-recovery", r.PostRecovery}} {
		fmt.Fprintf(w, "%-14s %-10d %-10.2f %-10d %-10.2f %d\n",
			row.name, row.p.Lookups, row.p.LookupSuccess*100,
			row.p.Gets, row.p.HitRate*100, row.p.Misses)
	}
	fmt.Fprintf(w, "tier maintenance: %d B total, %.1f B/node/s\n",
		r.TierMaintBytes, r.TierMaintBytesPerNodeSec)
	verdict := "PASS"
	if !r.Pass {
		verdict = "FAIL"
	}
	fmt.Fprintf(w, "recovered=%v time-to-recovery=%v  SLO: lookup ≥%.0f%%, hit ≥%.0f%% → %s\n",
		r.Recovered, r.TimeToRecovery,
		r.SLO.LookupSuccess*100, r.SLO.StoreHit*100, verdict)
	if !r.Pass {
		fmt.Fprintf(w, "--- storm event log (seed %d) ---\n%s", cfg.Seed, r.StormLog)
	}
	fmt.Fprintln(w)
	return nil
}

func fig9(w io.Writer, opt options) error {
	return securitySeries(w, opt, "== Fig 9: malicious nodes remaining under selective DoS ==",
		func(cfg *experiments.SecurityConfig, rate float64) {
			cfg.Strategy = adversary.Strategy{AttackRate: rate, SelectiveDrop: true}
			cfg.LookupEvery = time.Minute
			cfg.DoSDefense = true
		})
}
