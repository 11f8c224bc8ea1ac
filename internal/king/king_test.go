package king

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"github.com/octopus-dht/octopus/internal/simnet"
)

func TestBaseSymmetric(t *testing.T) {
	m := New(1)
	f := func(a, b uint16) bool {
		x, y := simnet.Address(a), simnet.Address(b)
		return m.Base(x, y) == m.Base(y, x)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBaseDeterministic(t *testing.T) {
	m1, m2 := New(7), New(7)
	for i := 0; i < 100; i++ {
		a, b := simnet.Address(i), simnet.Address(i*13+1)
		if m1.Base(a, b) != m2.Base(a, b) {
			t.Fatalf("models with same seed disagree at (%d,%d)", a, b)
		}
	}
}

func TestDistinctSeedsDiffer(t *testing.T) {
	m1, m2 := New(1), New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if m1.Base(0, simnet.Address(i+1)) == m2.Base(0, simnet.Address(i+1)) {
			same++
		}
	}
	if same > 5 {
		t.Errorf("%d/100 pairs identical across seeds", same)
	}
}

func TestMeanRTTCalibration(t *testing.T) {
	m := New(3)
	var sum time.Duration
	const n = 20000
	for i := 0; i < n; i++ {
		sum += m.Base(simnet.Address(2*i), simnet.Address(2*i+1))
	}
	meanOneWay := sum / n
	meanRTT := 2 * meanOneWay
	lo, hi := 170*time.Millisecond, 195*time.Millisecond
	if meanRTT < lo || meanRTT > hi {
		t.Errorf("mean RTT = %v, want within [%v, %v]", meanRTT, lo, hi)
	}
}

func TestHeterogeneity(t *testing.T) {
	m := New(3)
	var lats []float64
	for i := 0; i < 10000; i++ {
		lats = append(lats, m.Base(simnet.Address(2*i), simnet.Address(2*i+1)).Seconds())
	}
	var mean, sq float64
	for _, l := range lats {
		mean += l
	}
	mean /= float64(len(lats))
	for _, l := range lats {
		sq += (l - mean) * (l - mean)
	}
	sd := math.Sqrt(sq / float64(len(lats)))
	// A log-normal with sigma 0.6 has coefficient of variation ≈ 0.66;
	// require clearly heterogeneous latencies, unlike a constant model.
	if sd/mean < 0.4 {
		t.Errorf("coefficient of variation = %.2f, latencies not heterogeneous", sd/mean)
	}
}

func TestJitterWindow(t *testing.T) {
	tests := []struct {
		base, want time.Duration
	}{
		{200 * time.Millisecond, 10 * time.Millisecond},  // capped at 10ms
		{50 * time.Millisecond, 5 * time.Millisecond},    // 10% of base
		{1 * time.Millisecond, 100 * time.Microsecond},   // 10% of base
		{100 * time.Millisecond, 10 * time.Millisecond},  // boundary
		{2000 * time.Millisecond, 10 * time.Millisecond}, // heavy tail still capped
	}
	for _, tt := range tests {
		if got := JitterWindow(tt.base); got != tt.want {
			t.Errorf("JitterWindow(%v) = %v, want %v", tt.base, got, tt.want)
		}
	}
}

func TestSampleWithinJitterBounds(t *testing.T) {
	m := New(5)
	rng := rand.New(rand.NewSource(1))
	a, b := simnet.Address(1), simnet.Address(2)
	base := m.Base(a, b)
	w := JitterWindow(base)
	for i := 0; i < 1000; i++ {
		s := m.Sample(a, b, rng)
		if s < base || s >= base+w {
			t.Fatalf("sample %v outside [base, base+window) = [%v, %v)", s, base, base+w)
		}
	}
}

func TestSelfLatencySmall(t *testing.T) {
	m := New(1)
	if got := m.Base(4, 4); got > time.Millisecond {
		t.Errorf("self latency = %v, want < 1ms", got)
	}
}

func TestBasePositive(t *testing.T) {
	m := New(11)
	f := func(a, b uint32) bool {
		return m.Base(simnet.Address(a), simnet.Address(b)) > 0
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestNewWithCustomMean(t *testing.T) {
	m := NewWith(1, 20*time.Millisecond, 0.3)
	var sum time.Duration
	const n = 5000
	for i := 0; i < n; i++ {
		sum += m.Base(simnet.Address(2*i), simnet.Address(2*i+1))
	}
	meanRTT := 2 * sum / n
	if meanRTT < 18*time.Millisecond || meanRTT > 22*time.Millisecond {
		t.Errorf("custom mean RTT = %v, want ≈20ms", meanRTT)
	}
}

// TestModelSharedAcrossGoroutines: a Model holds no mutable state, so
// goroutines sharing one, each walking the pairs in its own order, read the
// latencies a lone caller reads. Run it under -race to check the sharing.
func TestModelSharedAcrossGoroutines(t *testing.T) {
	pairs := 20_000
	if testing.Short() {
		pairs = 2_000
	}
	m := New(11)
	rng := rand.New(rand.NewSource(11))
	a := make([]simnet.Address, pairs)
	b := make([]simnet.Address, pairs)
	want := make([]time.Duration, pairs)
	for i := range a {
		a[i], b[i] = simnet.Address(rng.Intn(1<<20)), simnet.Address(rng.Intn(1<<20))
		want[i] = m.Base(a[i], b[i])
	}
	const workers = 4
	bad := make([]int, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for _, i := range rand.New(rand.NewSource(int64(w))).Perm(pairs) {
				if m.Base(a[i], b[i]) != want[i] || m.Base(b[i], a[i]) != want[i] {
					bad[w]++
				}
			}
		}(w)
	}
	wg.Wait()
	for w, n := range bad {
		if n != 0 {
			t.Errorf("goroutine %d read %d of %d pairs differently from a lone caller", w, n, pairs)
		}
	}
}

func BenchmarkBase(b *testing.B) {
	m := New(1)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Base(simnet.Address(i), simnet.Address(i*7+3))
	}
}

func BenchmarkSample(b *testing.B) {
	m := New(1)
	rng := rand.New(rand.NewSource(2))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Sample(simnet.Address(i), simnet.Address(i*7+3), rng)
	}
}
