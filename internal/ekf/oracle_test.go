package ekf

import (
	"math"
	"math/rand"
	"testing"
)

// denseF builds the full state-transition Jacobian predictCov applies:
// the identity with pos←vel coupling and attitude→velocity thrust tilt.
func denseF(dt float64) [n][n]float64 {
	var f [n][n]float64
	for i := 0; i < n; i++ {
		f[i][i] = 1
	}
	f[ixPN][ixVN] = dt
	f[ixPE][ixVE] = dt
	f[ixPD][ixVD] = dt
	f[ixVN][ixPitch] = -gravity * dt
	f[ixVE][ixRoll] = gravity * dt
	return f
}

// matMulT computes F·P·Fᵀ for the covariance prediction.
func matMulT(f, p [n][n]float64) [n][n]float64 {
	var fp [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += f[i][k] * p[k][j]
			}
			fp[i][j] = s
		}
	}
	var out [n][n]float64
	for i := 0; i < n; i++ {
		for j := 0; j < n; j++ {
			s := 0.0
			for k := 0; k < n; k++ {
				s += fp[i][k] * f[j][k]
			}
			out[i][j] = s
		}
	}
	return out
}

// FuzzPredictCovVsDense checks predictCov bit for bit against the dense
// F·P·Fᵀ on random finite symmetric covariances free of −0 — the class the
// filter keeps P in. Entries mix exact zeros, subnormals (whose products
// underflow to ±0) and normals of both signs over a fuzzed magnitude.
func FuzzPredictCovVsDense(f *testing.F) {
	f.Add(int64(1), 1.0/400, uint8(0))
	f.Add(int64(2), 0.5, uint8(3))
	f.Add(int64(3), 10.0, uint8(40))
	f.Add(int64(4), 1e-9, uint8(90))
	f.Add(int64(5), 1e-300, uint8(7))
	f.Fuzz(func(t *testing.T, seed int64, dt float64, scaleRaw uint8) {
		dt = math.Abs(dt)
		if !(dt > 0) || dt > 1e3 {
			t.Skip("dt outside (0, 1e3]")
		}
		scale := math.Pow(10, float64(int(scaleRaw)%101-50)) // 1e-50..1e50
		rng := rand.New(rand.NewSource(seed))
		var p [n][n]float64
		for i := 0; i < n; i++ {
			for j := i; j < n; j++ {
				var v float64
				switch rng.Intn(8) {
				case 0, 1:
					v = 0
				case 2:
					v = rng.NormFloat64() * 1e-310
				default:
					v = rng.NormFloat64() * scale
				}
				if v == 0 {
					v = 0 // a product that underflowed to −0 becomes +0
				}
				p[i][j], p[j][i] = v, v
			}
		}
		want := matMulT(denseF(dt), p)
		got := p
		predictCov(&got, dt)
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if math.Float64bits(got[i][j]) != math.Float64bits(want[i][j]) {
					t.Fatalf("dt=%v P[%d][%d] = %v (%#x), dense %v (%#x)", dt, i, j,
						got[i][j], math.Float64bits(got[i][j]), want[i][j], math.Float64bits(want[i][j]))
				}
			}
		}
	})
}
