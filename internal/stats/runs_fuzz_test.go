package stats

import (
	"encoding/binary"
	"math"
	"testing"
)

// fuzzSeries decodes fuzz bytes into a series with heavy ties: most bytes
// map onto 32 quarter steps in [-4, 4), with the bit 0x40 turning a zero
// into -0; 0xF0–0xF2 give +Inf, -Inf and NaN, and 0xF3–0xFF take the next
// 8 bytes as raw float64 bits.
func fuzzSeries(data []byte) []float64 {
	var xs []float64
	for i := 0; i < len(data); i++ {
		b := data[i]
		switch {
		case b < 0xF0:
			v := float64(int(b%32)-16) * 0.25
			if v == 0 && b&0x40 != 0 {
				v = math.Copysign(0, -1)
			}
			xs = append(xs, v)
		case b == 0xF0:
			xs = append(xs, math.Inf(1))
		case b == 0xF1:
			xs = append(xs, math.Inf(-1))
		case b == 0xF2:
			xs = append(xs, math.NaN())
		case i+8 < len(data):
			xs = append(xs, math.Float64frombits(binary.LittleEndian.Uint64(data[i+1:])))
			i += 8
		}
	}
	return xs
}

// FuzzRunsTestVsInsertion holds the sort-based streaming RunsTest to the
// insertion-sort oracle bit for bit on every NaN-free series (finite, ±0
// and ±Inf alike), and to NaN, NaN on any series holding a NaN.
func FuzzRunsTestVsInsertion(f *testing.F) {
	f.Add([]byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	f.Add([]byte{16, 0x50, 16, 17, 15, 0x50, 17, 16, 15, 15, 17, 16, 0x50})
	f.Add([]byte{0xF0, 0xF1, 3, 4, 5, 20, 21, 22, 0xF0, 0xF1, 9, 30})
	f.Add([]byte{1, 2, 3, 0xF2, 4, 5, 6, 7, 8, 9})
	f.Add([]byte{0xF5, 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3, 4, 5, 6, 7, 8, 9})
	f.Fuzz(func(t *testing.T, data []byte) {
		xs := fuzzSeries(data)
		z, p := RunsTest(xs)
		for _, x := range xs {
			if math.IsNaN(x) {
				if !math.IsNaN(z) || !math.IsNaN(p) {
					t.Fatalf("series with NaN: z, p = %v, %v, want NaN, NaN", z, p)
				}
				return
			}
		}
		wz, wp := runsTestInsertion(xs)
		if math.Float64bits(z) != math.Float64bits(wz) || math.Float64bits(p) != math.Float64bits(wp) {
			t.Fatalf("%v: z, p = %v, %v; oracle %v, %v", xs, z, p, wz, wp)
		}
	})
}
