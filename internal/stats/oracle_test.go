package stats

import "math"

// stepwiseAICQR is the pre-kernel implementation — every candidate refits
// a fresh Householder QR. It is retained verbatim as the numerical oracle
// the Gram path's equivalence suite and benchmarks compare against.
func stepwiseAICQR(y []float64, predictors map[string][]float64) *StepwiseResult {
	res := &StepwiseResult{}
	candidates := sortedPredictorNames(predictors)

	currentAIC := interceptOnlyAIC(y)
	var selected []string

	fit := func(names []string) *OLSResult {
		cols := make([][]float64, len(names))
		for i, n := range names {
			cols[i] = predictors[n]
		}
		res.ModelsFitted++
		m, err := OLS(y, cols, names)
		if err != nil {
			return nil
		}
		return m
	}

	var currentModel *OLSResult
	for {
		bestAIC := currentAIC
		bestNames := selected
		var bestModel *OLSResult

		// Try adding each remaining predictor.
		for _, name := range candidates {
			if contains(selected, name) {
				continue
			}
			cand := append(append([]string{}, selected...), name)
			if m := fit(cand); m != nil && m.AIC < bestAIC-1e-9 {
				bestAIC = m.AIC
				bestNames = cand
				bestModel = m
			}
		}
		// Try removing each selected predictor.
		for i := range selected {
			cand := make([]string, 0, len(selected)-1)
			cand = append(cand, selected[:i]...)
			cand = append(cand, selected[i+1:]...)
			if len(cand) == 0 {
				if a := interceptOnlyAIC(y); a < bestAIC-1e-9 {
					bestAIC = a
					bestNames = nil
					bestModel = nil
				}
				continue
			}
			if m := fit(cand); m != nil && m.AIC < bestAIC-1e-9 {
				bestAIC = m.AIC
				bestNames = cand
				bestModel = m
			}
		}

		if bestAIC >= currentAIC-1e-9 {
			break // local optimum
		}
		currentAIC = bestAIC
		selected = bestNames
		currentModel = bestModel
		res.Steps++
	}
	res.Model = currentModel
	res.Selected = selected
	return res
}

// exhaustiveAICQR is the pre-kernel exhaustive search, retained as the
// oracle for the Gram path's equivalence suite.
func exhaustiveAICQR(y []float64, predictors map[string][]float64) *StepwiseResult {
	res := &StepwiseResult{}
	names := sortedPredictorNames(predictors)
	bestAIC := interceptOnlyAIC(y)
	var bestModel *OLSResult
	var bestNames []string
	total := 1 << len(names)
	for mask := 1; mask < total; mask++ {
		var cand []string
		for i, n := range names {
			if mask&(1<<i) != 0 {
				cand = append(cand, n)
			}
		}
		cols := make([][]float64, len(cand))
		for i, n := range cand {
			cols[i] = predictors[n]
		}
		res.ModelsFitted++
		m, err := OLS(y, cols, cand)
		if err != nil {
			continue
		}
		if m.AIC < bestAIC {
			bestAIC = m.AIC
			bestModel = m
			bestNames = cand
		}
	}
	res.Model = bestModel
	res.Selected = bestNames
	return res
}

func contains(xs []string, s string) bool {
	for _, x := range xs {
		if x == s {
			return true
		}
	}
	return false
}

// runsTestInsertion is the RunsTest that preceded the streaming one: an
// insertion-sort median and a []bool of signs. It is retained verbatim as
// the oracle FuzzRunsTestVsInsertion holds RunsTest to, bit for bit.
func runsTestInsertion(xs []float64) (z, pValue float64) {
	if len(xs) < 8 {
		return math.NaN(), math.NaN()
	}
	med := medianInsertion(xs)
	// Classify each sample above/below the median; drop ties.
	var signs []bool
	for _, x := range xs {
		if x == med {
			continue
		}
		signs = append(signs, x > med)
	}
	if len(signs) < 8 {
		return math.NaN(), math.NaN()
	}
	var n1, n2 float64
	runs := 1.0
	for i, s := range signs {
		if s {
			n1++
		} else {
			n2++
		}
		if i > 0 && signs[i] != signs[i-1] {
			runs++
		}
	}
	if n1 == 0 || n2 == 0 {
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

func medianInsertion(xs []float64) float64 {
	sorted := make([]float64, len(xs))
	copy(sorted, xs)
	insertionSort(sorted)
	n := len(sorted)
	if n%2 == 1 {
		return sorted[n/2]
	}
	return 0.5 * (sorted[n/2-1] + sorted[n/2])
}

// insertionSort is O(n²): at profile scale (n ≈ 4310 increments per
// variable) it dominated Algorithm 1's prune stage.
func insertionSort(xs []float64) {
	for i := 1; i < len(xs); i++ {
		v := xs[i]
		j := i - 1
		for j >= 0 && xs[j] > v {
			xs[j+1] = xs[j]
			j--
		}
		xs[j+1] = v
	}
}
