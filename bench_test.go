// Benchmark harness: one testing.B target per table and figure of the
// paper's evaluation (README.md maps each to its experiment runner), at
// bench-friendly scale. The full-scale numbers come from cmd/octopus-bench;
// these targets exercise the identical code paths and report the headline
// metric of each experiment as a custom unit. Table 1's timing attack and
// the load, storage and one-hop chaos headlines are seeded runs pinned
// exactly by TestSeededDigests (internal/experiments) instead.
package octopus

import (
	"math/rand"
	"os"
	"strconv"
	"strings"
	"testing"
	"time"

	"github.com/octopus-dht/octopus/internal/adversary"
	"github.com/octopus-dht/octopus/internal/anonymity"
	"github.com/octopus-dht/octopus/internal/chord"
	"github.com/octopus-dht/octopus/internal/core"
	"github.com/octopus-dht/octopus/internal/experiments"
	"github.com/octopus-dht/octopus/internal/id"
	"github.com/octopus-dht/octopus/internal/transport"
	"github.com/octopus-dht/octopus/internal/transport/chantransport"
	"github.com/octopus-dht/octopus/internal/xcrypto"
)

func benchSecurityConfig(strategy adversary.Strategy) experiments.SecurityConfig {
	return experiments.SecurityConfig{
		N:           150,
		F:           0.20,
		Strategy:    strategy,
		Duration:    400 * time.Second,
		SampleEvery: 100 * time.Second,
		Seed:        1,
	}
}

func benchAnonConfig(scheme anonymity.Scheme, dummies int) anonymity.Config {
	return anonymity.Config{
		N:          4000,
		F:          0.20,
		Alpha:      0.01,
		Dummies:    dummies,
		WalkLength: 3,
		SuccList:   6,
		Scheme:     scheme,
		Trials:     60,
		PreSimRuns: 600,
		Seed:       1,
	}
}

func BenchmarkTable2Identification(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSecurityConfig(adversary.Strategy{AttackRate: 1, BiasLookups: true})
		cfg.ChurnMean = 60 * time.Minute
		cfg.Seed = int64(i + 1)
		res := experiments.RunSecurity(cfg)
		b.ReportMetric(res.FalsePositiveRate*100, "FP%")
		b.ReportMetric(res.FalseNegativeRate*100, "FN%")
	}
}

func BenchmarkTable3Efficiency(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultEfficiencyConfig()
		cfg.Lookups = 60
		cfg.WarmUp = 90 * time.Second
		cfg.BandwidthWindow = 3 * time.Minute
		cfg.Seed = int64(i + 1)
		res := experiments.RunOctopusEfficiency(cfg)
		b.ReportMetric(res.MeanLatency.Seconds(), "mean-s")
		b.ReportMetric(res.BandwidthKbps[5*time.Minute], "kbps@5m")
	}
}

func benchDecay(b *testing.B, strategy adversary.Strategy, lookups, dos bool) {
	b.Helper()
	for i := 0; i < b.N; i++ {
		cfg := benchSecurityConfig(strategy)
		if lookups {
			cfg.LookupEvery = time.Minute
		}
		cfg.DoSDefense = dos
		cfg.Seed = int64(i + 1)
		res := experiments.RunSecurity(cfg)
		b.ReportMetric(res.FinalMalicious*100, "final-mal%")
		if lookups {
			b.ReportMetric(float64(res.TotalBiased), "biased")
		}
	}
}

func BenchmarkFig3aLookupBias(b *testing.B) {
	benchDecay(b, adversary.Strategy{AttackRate: 1, BiasLookups: true}, false, false)
}

func BenchmarkFig3bBiasedLookups(b *testing.B) {
	benchDecay(b, adversary.Strategy{AttackRate: 1, BiasLookups: true}, true, false)
}

func BenchmarkFig3cManipulation(b *testing.B) {
	benchDecay(b, adversary.Strategy{
		AttackRate: 1, ManipulateFingers: true, ConsistentPredRate: 0.5}, false, false)
}

func BenchmarkFig4Pollution(b *testing.B) {
	benchDecay(b, adversary.Strategy{
		AttackRate: 1, BiasLookups: true, ManipulateFingers: true,
		ConsistentPredRate: 0.5}, false, false)
}

func BenchmarkFig9SelectiveDoS(b *testing.B) {
	benchDecay(b, adversary.Strategy{AttackRate: 1, SelectiveDrop: true}, true, true)
}

func BenchmarkFig5aInitiatorAnonymity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, 6)).Analyze()
		b.ReportMetric(res.LeakInitiator, "leakI-bits")
	}
}

func BenchmarkFig5bInitiatorComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oct := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, 6)).Analyze()
		nis := anonymity.New(benchAnonConfig(anonymity.SchemeNISAN, 0)).Analyze()
		b.ReportMetric(nis.LeakInitiator/oct.LeakInitiator, "nisan/octopus")
	}
}

func BenchmarkFig5cTargetAnonymity(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, 6)).Analyze()
		b.ReportMetric(res.LeakTarget, "leakT-bits")
	}
}

func BenchmarkFig6TargetComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		oct := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, 6)).Analyze()
		nis := anonymity.New(benchAnonConfig(anonymity.SchemeNISAN, 0)).Analyze()
		b.ReportMetric(nis.LeakTarget/oct.LeakTarget, "nisan/octopus")
	}
}

func BenchmarkFig7aLatencyCDF(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := experiments.DefaultEfficiencyConfig()
		cfg.Lookups = 60
		cfg.WarmUp = 90 * time.Second
		cfg.BandwidthWindow = time.Minute
		cfg.Seed = int64(i + 1)
		res := experiments.RunChordEfficiency(cfg)
		b.ReportMetric(res.MedianLatency.Seconds(), "median-s")
	}
}

func BenchmarkFig7bCAWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := benchSecurityConfig(adversary.Strategy{AttackRate: 1, BiasLookups: true})
		cfg.Seed = int64(i + 1)
		res := experiments.RunSecurity(cfg)
		pts := res.CAWorkloadSeries().Points
		if len(pts) > 0 {
			b.ReportMetric(pts[0].V, "peak-msg/s")
			b.ReportMetric(pts[len(pts)-1].V, "final-msg/s")
		}
	}
}

// tierLoadConfig is the routing-tier comparison point: 10k simulated
// nodes, α=1, no result cache and uniform keys, so every lookup pays the
// tier's full post-walk convergence cost — the axis under measurement.
// Rate and window are modest because the headline is latency, not
// throughput: ~120 offered lookups give a stable p95 without inflating
// the (already large) 10k-node simulation.
func tierLoadConfig(tier string) experiments.LoadConfig {
	cfg := experiments.DefaultLoadConfig()
	cfg.N = 10_000
	cfg.Tier = tier
	cfg.ServingNodes = 4
	cfg.Clients = 8
	cfg.Rate = 2
	cfg.Duration = time.Minute
	cfg.WarmUp = 30 * time.Second
	cfg.Alpha = 1
	cfg.Pool = 16
	cfg.CacheSize = 0
	cfg.HotKeys = 0
	return cfg
}

// BenchmarkTierLoad10k is the routing-tier headline: the load experiment
// at 10k simulated nodes, same seed and offered load, finger tier versus
// one-hop tier. The one-hop tier's reason to exist is cutting the
// multi-hop convergence phase to a single confirming query, and p95-gain
// is that claim as a number: the benchmark fails below 4 (seed 1 reads 6.14).
// Runs minutes, not seconds (two to four on a 2-core box), so it runs
// nightly, not in tier-1: pass -timeout 15m and -benchtime 1x.
// peak-rss-MB is the process's VmHWM after both runs and finger-peak-rss-MB
// after the finger run alone, the 10k memory figures ROADMAP item 8 tracks
// (0 where /proc is missing). Run the benchmark alone (-run '^$' -bench
// TierLoad10k), or an earlier one's peak counts.
func BenchmarkTierLoad10k(b *testing.B) {
	for i := 0; i < b.N; i++ {
		finger := experiments.RunLoad(tierLoadConfig(core.TierFinger))
		b.ReportMetric(peakRSSMB(), "finger-peak-rss-MB")
		onehop := experiments.RunLoad(tierLoadConfig(core.TierOneHop))
		gain := finger.P95.Seconds() / onehop.P95.Seconds()
		b.ReportMetric(finger.P95.Seconds(), "finger-p95-s")
		b.ReportMetric(onehop.P95.Seconds(), "onehop-p95-s")
		b.ReportMetric(gain, "p95-gain")
		b.ReportMetric(peakRSSMB(), "peak-rss-MB")
		if gain < 4 {
			b.Fatalf("finger p95 %v / one-hop p95 %v = %.3f, want ≥ 4", finger.P95, onehop.P95, gain)
		}
	}
}

// peakRSSMB reads the process's peak resident set (VmHWM) in MB from
// /proc/self/status, or 0 when the file or the line is missing.
func peakRSSMB() float64 {
	status, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	for _, line := range strings.Split(string(status), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, _ := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(rest, "kB")), 64)
			return kb / 1024
		}
	}
	return 0
}

// --- Ablations ---

// BenchmarkAblationDummyPlacement compares target-anonymity leak with and
// without dummy queries.
func BenchmarkAblationDummyPlacement(b *testing.B) {
	for _, dummies := range []int{0, 6} {
		b.Run(map[int]string{0: "none", 6: "six"}[dummies], func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				res := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, dummies)).Analyze()
				b.ReportMetric(res.LeakTarget, "leakT-bits")
			}
		})
	}
}

// BenchmarkAblationPathSplitting quantifies §4.2's argument: a single shared
// path makes every query linkable to the same exit, collapsing the dummy
// defense. Modeled by comparing Octopus (split paths) against NISAN-style
// full linkage.
func BenchmarkAblationPathSplitting(b *testing.B) {
	for i := 0; i < b.N; i++ {
		split := anonymity.New(benchAnonConfig(anonymity.SchemeOctopus, 6)).Analyze()
		linked := anonymity.New(benchAnonConfig(anonymity.SchemeNISAN, 6)).Analyze()
		b.ReportMetric(split.LeakTarget, "split-leakT")
		b.ReportMetric(linked.LeakTarget, "linked-leakT")
	}
}

// --- Transport & codec hot path ---
//
// The wire codec and the transport RPC loop are the hot path of any real
// deployment: every message of every lookup crosses them. These benchmarks
// track encode/decode/size cost for the dominant message (a signed routing
// table) and the full serialized RPC round-trip over the concurrent
// channel transport.

// benchTable builds a representative signed table: 12 fingers with
// exponents, 6 successors, a 40-byte signature.
func benchTable() chord.GetTableResp {
	rng := rand.New(rand.NewSource(1))
	rt := chord.RoutingTable{
		Owner:     chord.Peer{ID: id.ID(rng.Uint64()), Addr: 1},
		Timestamp: 90 * time.Second,
		Sig:       make([]byte, 40),
	}
	rng.Read(rt.Sig)
	for i := 0; i < 12; i++ {
		rt.Fingers = append(rt.Fingers, chord.Peer{ID: id.ID(rng.Uint64()), Addr: transport.Addr(2 + i)})
		rt.FingerExps = append(rt.FingerExps, uint8(52+i))
	}
	for i := 0; i < 6; i++ {
		rt.Successors = append(rt.Successors, chord.Peer{ID: id.ID(rng.Uint64()), Addr: transport.Addr(20 + i)})
	}
	return chord.GetTableResp{Table: rt}
}

func BenchmarkCodecEncodeTable(b *testing.B) {
	var msg transport.Message = benchTable() // box once; the codec is what's measured
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		enc, err := transport.EncodeTo(buf[:0], msg)
		if err != nil {
			b.Fatal(err)
		}
		buf = enc
		b.SetBytes(int64(len(enc)))
	}
}

func BenchmarkCodecDecodeTable(b *testing.B) {
	enc, err := transport.Encode(benchTable())
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(enc)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := transport.Decode(enc)
		if err != nil {
			b.Fatal(err)
		}
		if _, ok := m.(chord.GetTableResp); !ok {
			b.Fatalf("decoded %T", m)
		}
	}
}

// BenchmarkCodecSizeTable measures the counting-mode encoder behind every
// Size() call — it runs once per sent message for bandwidth accounting.
func BenchmarkCodecSizeTable(b *testing.B) {
	msg := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if msg.Size() == 0 {
			b.Fatal("zero size")
		}
	}
}

// BenchmarkTableSign and BenchmarkTableVerify measure what every table-
// carrying message pays under the simulation scheme: the canonical signed
// bytes built in a pooled buffer, one SHA-256 over them, and for Sign the
// 40-byte signature — its only allocation; Verify makes none.
func BenchmarkTableSign(b *testing.B) {
	rt, scheme, kp := benchSignedTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := rt.Sign(scheme, kp); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTableVerify(b *testing.B) {
	rt, scheme, kp := benchSignedTable(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !rt.VerifySig(scheme, kp.Public) {
			b.Fatal("signature rejected")
		}
	}
}

// benchSignedTable is benchTable's table, signed under a fixed SimScheme key.
func benchSignedTable(b *testing.B) (chord.RoutingTable, xcrypto.Scheme, xcrypto.KeyPair) {
	rt := benchTable().Table
	scheme := xcrypto.SimScheme{}
	kp, err := scheme.GenerateKey(rand.New(rand.NewSource(2)))
	if err != nil {
		b.Fatal(err)
	}
	if err := rt.Sign(scheme, kp); err != nil {
		b.Fatal(err)
	}
	return rt, scheme, kp
}

// BenchmarkChanTransportRPC measures the full serialized round-trip:
// encode → deliver to the callee goroutine → decode → handle → encode →
// deliver back → decode.
func BenchmarkChanTransportRPC(b *testing.B) {
	net := chantransport.New(2, 1)
	defer net.Close()
	resp := benchTable()
	net.Bind(0, func(transport.Addr, transport.Message) (transport.Message, bool) {
		return resp, true
	})
	net.Bind(1, func(transport.Addr, transport.Message) (transport.Message, bool) {
		return nil, false
	})
	var req transport.Message = chord.GetTableReq{IncludeSuccessors: true}
	done := make(chan error, 1)
	// Hoisted so the loop measures the transport round-trip, not the
	// harness's own closure construction.
	cb := func(_ transport.Message, err error) { done <- err }
	call := func() { net.Call(1, 0, req, 5*time.Second, cb) }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		net.After(1, 0, call)
		if err := <-done; err != nil {
			b.Fatal(err)
		}
	}
}
