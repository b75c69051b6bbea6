package main

import (
	"math"
	"sort"
)

// minBeyond is how many samples must lie beyond a tail percentile before it
// is reported: with fewer, one slow sample decides the value.
const minBeyond = 10

// sample is a set of timings (or any per-operation values) in one unit.
type sample []float64

// sorted returns a sorted copy.
func (s sample) sorted() []float64 {
	out := append([]float64(nil), s...)
	sort.Float64s(out)
	return out
}

// median returns the middle value (the mean of the two middle values for
// an even count), or NaN for an empty sample.
func (s sample) median() float64 {
	xs := s.sorted()
	n := len(xs)
	switch {
	case n == 0:
		return math.NaN()
	case n%2 == 1:
		return xs[n/2]
	default:
		return (xs[n/2-1] + xs[n/2]) / 2
	}
}

// percentile returns the nearest-rank q-quantile (0 < q <= 1) and the
// number of samples strictly beyond its rank. The nearest rank is
// ceil(q·n), so the value is always an observed sample.
func (s sample) percentile(q float64) (v float64, beyond int) {
	xs := s.sorted()
	n := len(xs)
	if n == 0 {
		return math.NaN(), 0
	}
	rank := int(math.Ceil(q * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if rank > n {
		rank = n
	}
	return xs[rank-1], n - rank
}

// tail returns the q-quantile only when at least minBeyond samples lie
// beyond it; ok is false otherwise.
func (s sample) tail(q float64) (v float64, ok bool) {
	v, beyond := s.percentile(q)
	if beyond < minBeyond {
		return math.NaN(), false
	}
	return v, true
}

// mean returns the arithmetic mean, or 0 for an empty sample.
func (s sample) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	sum := 0.0
	for _, v := range s {
		sum += v
	}
	return sum / float64(len(s))
}

// overhead is the tracing overhead as a share of the untraced value:
// traced/untraced − 1. Both are the same end-to-end timing of one workload
// (a latency or a per-operation time), measured with tracing on and off.
func overhead(traced, untraced float64) float64 {
	if untraced <= 0 {
		return math.NaN()
	}
	return traced/untraced - 1
}
