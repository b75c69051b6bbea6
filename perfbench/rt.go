package main

import rtmetrics "runtime/metrics"

// rtSnap is a reading of the Go runtime's cumulative counters.
type rtSnap struct{ allocBytes, gcCPU, totalCPU float64 }

var rtNames = []string{
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtSnap {
	s := make([]rtmetrics.Sample, len(rtNames))
	for i, n := range rtNames {
		s[i].Name = n
	}
	rtmetrics.Read(s)
	val := func(v rtmetrics.Value) float64 {
		switch v.Kind() {
		case rtmetrics.KindUint64:
			return float64(v.Uint64())
		case rtmetrics.KindFloat64:
			return v.Float64()
		}
		return 0
	}
	return rtSnap{allocBytes: val(s[0].Value), gcCPU: val(s[1].Value), totalCPU: val(s[2].Value)}
}

// since returns the counters accumulated after o.
func (s rtSnap) since(o rtSnap) rtSnap {
	return rtSnap{allocBytes: s.allocBytes - o.allocBytes, gcCPU: s.gcCPU - o.gcCPU, totalCPU: s.totalCPU - o.totalCPU}
}

// gcFrac is the share of the process's CPU time spent in the collector.
func (s rtSnap) gcFrac() float64 {
	if s.totalCPU <= 0 {
		return 0
	}
	return s.gcCPU / s.totalCPU
}
