package main

import (
	"math"
	"testing"
)

func seq(n int) sample {
	s := make(sample, n)
	for i := range s {
		s[i] = float64(n - i) // descending, so sorting matters
	}
	return s
}

func TestMedian(t *testing.T) {
	for _, tc := range []struct {
		s    sample
		want float64
	}{
		{sample{3}, 3},
		{sample{5, 1, 3}, 3},
		{sample{4, 1, 3, 2}, 2.5},
	} {
		if got := tc.s.median(); got != tc.want {
			t.Errorf("median(%v) = %v, want %v", tc.s, got, tc.want)
		}
	}
	if !math.IsNaN(sample{}.median()) {
		t.Error("median of no samples should be NaN")
	}
}

func TestPercentileNearestRank(t *testing.T) {
	for _, tc := range []struct {
		n          int
		q          float64
		want       float64
		wantBeyond int
	}{
		{10, 0.5, 5, 5},
		{10, 0.9, 9, 1},
		{100, 0.9, 90, 10},
		{99, 0.9, 90, 9}, // rank ceil(89.1) = 90
		{110, 0.9, 99, 11},
		{1, 0.9, 1, 0},
	} {
		v, beyond := seq(tc.n).percentile(tc.q)
		if v != tc.want || beyond != tc.wantBeyond {
			t.Errorf("n=%d q=%v: got (%v, %d beyond), want (%v, %d)", tc.n, tc.q, v, beyond, tc.want, tc.wantBeyond)
		}
	}
}

// A tail percentile is reported only with at least ten samples beyond it:
// for p90 that takes 100 samples.
func TestTailNeedsTenBeyond(t *testing.T) {
	if _, ok := seq(99).tail(0.9); ok {
		t.Error("p90 of 99 samples has 9 beyond it and must not be reported")
	}
	if v, ok := seq(100).tail(0.9); !ok || v != 90 {
		t.Errorf("p90 of 100 samples = (%v, %v), want (90, true)", v, ok)
	}
	if _, ok := seq(20).tail(0.5); !ok {
		t.Error("p50 of 20 samples has 10 beyond it and should be reported")
	}
}

func TestOverhead(t *testing.T) {
	if got := overhead(110, 100); math.Abs(got-0.1) > 1e-12 {
		t.Errorf("overhead(110, 100) = %v, want 0.1", got)
	}
	if got := overhead(95, 100); math.Abs(got+0.05) > 1e-12 {
		t.Errorf("overhead(95, 100) = %v, want -0.05", got)
	}
	if !math.IsNaN(overhead(1, 0)) {
		t.Error("overhead against a zero baseline should be NaN")
	}
}
