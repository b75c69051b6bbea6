package stats

import (
	"math"
	"slices"

	"github.com/ares-cps/ares/internal/par"
)

// JarqueBera runs the Jarque-Bera normality test, returning the statistic
// and its p-value (χ², 2 degrees of freedom). Small p-values reject
// normality. Algorithm 1 prunes state variables that are "not NormDist".
func JarqueBera(xs []float64) (stat, pValue float64) {
	n := float64(len(xs))
	if n < 8 {
		return math.NaN(), math.NaN()
	}
	s := Skewness(xs)
	k := Kurtosis(xs)
	stat = n / 6 * (s*s + k*k/4)
	pValue = 1 - ChiSquareCDF(stat, 2)
	return stat, pValue
}

// RunsTest runs the Wald-Wolfowitz runs test for randomness/independence
// about the median, returning the z statistic and two-sided p-value. Small
// p-values reject independence. Algorithm 1 prunes variables that are
// "not iid". A series holding a NaN has no median, so like the other
// degenerate cases it returns NaN, NaN.
func RunsTest(xs []float64) (z, pValue float64) {
	return runsTest(xs, nil)
}

// runsTest is RunsTest sorting its median copy in buf when it has room.
func runsTest(xs, buf []float64) (z, pValue float64) {
	if len(xs) < 8 {
		return math.NaN(), math.NaN()
	}
	med := median(xs, buf)
	if math.IsNaN(med) {
		return math.NaN(), math.NaN()
	}
	// Classify each sample above/below the median, dropping ties, and
	// count the runs of equal classes in the same pass. The median only
	// enters == and > comparisons, which treat ±0 alike, so the order
	// equal values sort in cannot change the result.
	var n1, n2 float64
	runs := 1.0
	prev := false
	for _, x := range xs {
		if x == med {
			continue
		}
		above := x > med
		if n1+n2 > 0 && above != prev {
			runs++
		}
		if above {
			n1++
		} else {
			n2++
		}
		prev = above
	}
	if n1+n2 < 8 || n1 == 0 || n2 == 0 {
		return math.NaN(), math.NaN()
	}
	n := n1 + n2
	expRuns := 2*n1*n2/n + 1
	varRuns := 2 * n1 * n2 * (2*n1*n2 - n) / (n * n * (n - 1))
	if varRuns <= 0 {
		return math.NaN(), math.NaN()
	}
	z = (runs - expRuns) / math.Sqrt(varRuns)
	pValue = 2 * (1 - NormalCDF(math.Abs(z)))
	return z, pValue
}

// median returns the median of a non-empty xs, sorting a copy in buf when
// it has room. It is NaN when xs holds a NaN.
func median(xs, buf []float64) float64 {
	sorted := append(buf[:0], xs...)
	slices.Sort(sorted)
	n := len(sorted)
	if math.IsNaN(sorted[0]) { // slices.Sort orders NaNs first
		return math.NaN()
	}
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// PruneResult explains why a variable survived or was removed by the
// Algorithm 1 assumption check.
type PruneResult struct {
	Name     string
	Kept     bool
	Reason   string
	JBPValue float64
	RunsP    float64
}

// PruneOptions tunes the assumption checks of Algorithm 1's
// PruneStateVarList.
type PruneOptions struct {
	// ConstTol treats series within this band as constant (pruned).
	ConstTol float64
	// Alpha is the significance level below which normality or
	// independence is rejected. The paper's prerequisite is stated as a
	// hard requirement; in practice controller series are only
	// approximately normal, so a small alpha keeps the test meaningful
	// without pruning everything. Alpha ≤ 0 makes the distributional
	// tests advisory: p-values are still computed and reported, but only
	// constant series are pruned — the working configuration for real
	// flight data, whose maneuver-induced heavy tails fail any exact
	// normality test at mission-scale sample counts.
	Alpha float64
}

// DefaultPruneOptions returns the options used by the evaluation.
func DefaultPruneOptions() PruneOptions {
	return PruneOptions{ConstTol: 1e-12, Alpha: 1e-6}
}

// PruneStateVars applies Algorithm 1 lines 1–5: remove constant series and
// series whose *state-by-state updates* (first differences) fail the
// normality (Jarque-Bera) or independence (runs) test at the given
// significance level.
//
// The tests run on increments rather than levels because raw controller
// series are smooth trajectories — every level series would trivially fail
// an i.i.d. test. The paper analyzes "the state-by-state ESVL updates in
// the sequential cycles of the RAV"; the increments are exactly those
// updates, and noise-driven variables pass while frozen or saturated ones
// are pruned.
func PruneStateVars(names []string, series [][]float64, opts PruneOptions) []PruneResult {
	return PruneStateVarsWorkers(names, series, opts, 1)
}

// PruneStateVarsWorkers is PruneStateVars fanned out over contiguous
// spans of variables: each variable's assumption check (differencing,
// Jarque-Bera, runs test) is independent and writes only its own result
// slot, so the output is identical at any worker count. Each span reuses
// one increments buffer and one sort buffer across its variables.
// workers <= 0 uses the process budget.
func PruneStateVarsWorkers(names []string, series [][]float64, opts PruneOptions, workers int) []PruneResult {
	out := make([]PruneResult, len(names))
	par.Chunks(workers, len(names), func(_, lo, hi int) {
		var sc pruneScratch
		for i := lo; i < hi; i++ {
			out[i] = sc.check(names[i], series[i], opts)
		}
	})
	return out
}

// pruneScratch holds one span's increments and the runs test's sort
// buffer, reused from variable to variable.
type pruneScratch struct{ diffs, sorted []float64 }

// check runs the assumption checks on one variable's series.
func (sc *pruneScratch) check(name string, xs []float64, opts PruneOptions) PruneResult {
	res := PruneResult{Name: name, Kept: true}
	switch {
	case len(xs) < 9:
		res.Kept = false
		res.Reason = "too few samples"
	case slices.ContainsFunc(xs, func(x float64) bool { return !isFinite(x) }):
		// NaN p-values would otherwise pass the Alpha gates and carry
		// the series into the correlation matrix.
		res.Kept = false
		res.Reason = "non-finite value"
	case IsConstant(xs, opts.ConstTol):
		res.Kept = false
		res.Reason = "constant value"
	default:
		sc.diffs = diffInto(sc.diffs, xs)
		diffs := sc.diffs
		if IsConstant(diffs, opts.ConstTol) {
			res.Kept = false
			res.Reason = "constant increments"
			break
		}
		_, jb := JarqueBera(diffs)
		res.JBPValue = jb
		sc.sorted = slices.Grow(sc.sorted[:0], len(diffs))
		_, rp := runsTest(diffs, sc.sorted)
		res.RunsP = rp
		if opts.Alpha > 0 {
			if !math.IsNaN(jb) && jb < opts.Alpha {
				res.Kept = false
				res.Reason = "not normally distributed"
			} else if !math.IsNaN(rp) && rp < opts.Alpha {
				res.Kept = false
				res.Reason = "not iid"
			}
		}
	}
	return res
}

// Diff returns the first differences of a series (length n-1).
func Diff(xs []float64) []float64 {
	if len(xs) < 2 {
		return nil
	}
	return diffInto(nil, xs)
}

// diffInto writes the first differences of xs (len ≥ 2) into dst, growing
// it as needed, and returns them.
func diffInto(dst, xs []float64) []float64 {
	dst = slices.Grow(dst[:0], len(xs)-1)[:len(xs)-1]
	for i := 1; i < len(xs); i++ {
		dst[i-1] = xs[i] - xs[i-1]
	}
	return dst
}
