package control

import (
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

// cascadeSink keeps the benchmarked cascade output live.
var cascadeSink [4]float64

// BenchmarkCascadeStep is the full-cascade (position → attitude → mixer)
// per-cycle cost, on a mid-flight state with non-zero position, velocity,
// attitude and rate errors.
func BenchmarkCascadeStep(b *testing.B) {
	const dt = 1.0 / 400
	pos := NewPositionController(DefaultPositionConfig(dt, 0.39))
	att := NewAttitudeController(DefaultAttitudeConfig(dt))
	mix := &Mixer{}
	target := mathx.V3(0, -5, -8)
	p, v := mathx.V3(0, -4.5, -7.5), mathx.V3(-1.5, -1, 0)
	roll, pitch, yaw, desYaw := -0.2, -0.15, -1.5, -1.5
	gyro := mathx.V3(-0.75, -0.6, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		desRoll, desPitch, throttle := pos.Update(target, p, v, yaw)
		tr, tp, ty := att.Update(desRoll, desPitch, desYaw, roll, pitch, yaw, gyro)
		cascadeSink = mix.Mix(throttle, tr, tp, ty)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/trial-step")
}
