package stats

import (
	"math"
	"math/rand"
	"testing"
)

func gaussian(n int, seed int64) []float64 {
	rng := rand.New(rand.NewSource(seed))
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = rng.NormFloat64()
	}
	return xs
}

func TestJarqueBeraAcceptsGaussian(t *testing.T) {
	_, p := JarqueBera(gaussian(5000, 11))
	if p < 0.01 {
		t.Errorf("JB rejected Gaussian data: p = %v", p)
	}
}

func TestJarqueBeraRejectsSkewed(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	xs := make([]float64, 5000)
	for i := range xs {
		xs[i] = math.Exp(rng.NormFloat64()) // log-normal, heavily skewed
	}
	_, p := JarqueBera(xs)
	if p > 1e-6 {
		t.Errorf("JB accepted log-normal data: p = %v", p)
	}
}

func TestJarqueBeraSmallSample(t *testing.T) {
	if s, p := JarqueBera([]float64{1, 2, 3}); !math.IsNaN(s) || !math.IsNaN(p) {
		t.Error("small sample did not return NaN")
	}
}

func TestRunsTestAcceptsIID(t *testing.T) {
	_, p := RunsTest(gaussian(5000, 13))
	if p < 0.01 {
		t.Errorf("runs test rejected iid data: p = %v", p)
	}
}

func TestRunsTestRejectsTrend(t *testing.T) {
	// A monotone ramp has exactly 2 runs about its median.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i)
	}
	z, p := RunsTest(xs)
	if p > 1e-10 {
		t.Errorf("runs test accepted a ramp: z=%v p=%v", z, p)
	}
}

func TestRunsTestRejectsAlternating(t *testing.T) {
	// Perfect alternation has the maximum number of runs — also not iid.
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 2)
	}
	_, p := RunsTest(xs)
	if p > 1e-10 {
		t.Errorf("runs test accepted alternation: p = %v", p)
	}
}

func TestRunsTestDegenerate(t *testing.T) {
	if _, p := RunsTest([]float64{1, 2}); !math.IsNaN(p) {
		t.Error("tiny sample did not return NaN")
	}
	// All-equal series: every value ties the median.
	xs := make([]float64, 100)
	if _, p := RunsTest(xs); !math.IsNaN(p) {
		t.Error("constant series did not return NaN")
	}
}

func TestPruneStateVars(t *testing.T) {
	n := 2000
	rng := rand.New(rand.NewSource(14))
	gauss := make([]float64, n) // integrated noise: increments iid normal
	constant := make([]float64, n)
	ramp := make([]float64, n)    // constant increments
	skewInc := make([]float64, n) // wildly non-normal increments
	acc := 0.0
	for i := 0; i < n; i++ {
		acc += rng.NormFloat64()
		gauss[i] = acc
		constant[i] = 3.14
		ramp[i] = float64(i) * 0.5
		if i > 0 {
			skewInc[i] = skewInc[i-1] + math.Exp(rng.NormFloat64()*3)
		}
	}
	names := []string{"v.gauss", "v.const", "v.ramp", "v.skew"}
	res := PruneStateVars(names, [][]float64{gauss, constant, ramp, skewInc},
		DefaultPruneOptions())
	want := map[string]bool{
		"v.gauss": true,
		"v.const": false,
		"v.ramp":  false, // constant increments
		"v.skew":  false, // non-normal increments
	}
	for _, r := range res {
		if r.Kept != want[r.Name] {
			t.Errorf("%s kept=%v (%s), want %v", r.Name, r.Kept, r.Reason, want[r.Name])
		}
		if !r.Kept && r.Reason == "" {
			t.Errorf("%s pruned without a reason", r.Name)
		}
	}
}

// TestPruneStateVarsNonFinite pins that a series holding a NaN or ±Inf is
// dropped before its tests run, wherever the bad sample falls: neither
// mistaken for a constant nor kept on NaN p-values.
func TestPruneStateVarsNonFinite(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	for _, tc := range []struct {
		name string
		at   int // -1: every sample
		v    float64
	}{
		{"nan first", 0, nan}, {"nan middle", 100, nan}, {"nan last", 199, nan},
		{"all nan", -1, nan}, {"+inf", 17, inf}, {"-inf", 42, -inf},
	} {
		xs := gaussian(200, 3)
		for i := range xs {
			if i == tc.at || tc.at < 0 {
				xs[i] = tc.v
			}
		}
		for _, opts := range []PruneOptions{DefaultPruneOptions(), {ConstTol: 1e-12}} {
			r := PruneStateVars([]string{"v"}, [][]float64{xs}, opts)[0]
			if r.Kept || r.Reason != "non-finite value" {
				t.Errorf("%s (alpha %g): kept=%v reason=%q, want dropped as non-finite value",
					tc.name, opts.Alpha, r.Kept, r.Reason)
			}
		}
	}
}

func TestPruneStateVarsTooFew(t *testing.T) {
	res := PruneStateVars([]string{"x"}, [][]float64{{1, 2, 3}}, DefaultPruneOptions())
	if res[0].Kept || res[0].Reason != "too few samples" {
		t.Errorf("short series: %+v", res[0])
	}
}

func TestMedian(t *testing.T) {
	approx(t, "odd", median([]float64{3, 1, 2}, nil), 2, 1e-12)
	approx(t, "even", median([]float64{4, 1, 3, 2}, make([]float64, 0, 4)), 2.5, 1e-12)
	if m := median([]float64{4, math.NaN(), 3, 2}, nil); !math.IsNaN(m) {
		t.Errorf("median with NaN = %v, want NaN", m)
	}
}

// TestRunsTestNaN: increments holding a NaN have no median, so the runs
// test reports NaN, NaN wherever the NaN sits, as the prune stage's
// Jarque-Bera p-value already does.
func TestRunsTestNaN(t *testing.T) {
	for _, tc := range []struct {
		name string
		at   func(n int) int
	}{
		{"first", func(int) int { return 0 }},
		{"middle", func(n int) int { return n / 2 }},
		{"last", func(n int) int { return n - 1 }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			xs := gaussian(501, 21)
			xs[tc.at(len(xs))] = math.NaN()
			if z, p := RunsTest(xs); !math.IsNaN(z) || !math.IsNaN(p) {
				t.Errorf("z, p = %v, %v, want NaN, NaN", z, p)
			}
		})
	}
}

// TestPruneStateVarsAllocs: one worker reuses its increments and sort
// buffers across variables, so allocations do not grow with their count.
func TestPruneStateVarsAllocs(t *testing.T) {
	opts := DefaultPruneOptions()
	allocs := func(v int) float64 {
		series := benchSeries(v, 500)
		names := make([]string, v)
		for i := range names {
			names[i] = "v"
		}
		return testing.AllocsPerRun(10, func() { PruneStateVarsWorkers(names, series, opts, 1) })
	}
	if a8, a64 := allocs(8), allocs(64); a8 != a64 {
		t.Errorf("allocs per prune: %v at V=8, %v at V=64; want equal", a8, a64)
	}
}
