package ekf

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
	"github.com/ares-cps/ares/internal/vars"
)

const dt = 1.0 / 400

func TestEKFPredictAttitude(t *testing.T) {
	e := New(DefaultConfig())
	// Constant roll rate of 0.5 rad/s for 1 s at level attitude.
	for i := 0; i < 400; i++ {
		e.Predict(mathx.V3(0.5, 0, 0), mathx.V3(0, 0, -gravity), dt)
	}
	roll, pitch, _ := e.Attitude()
	if !mathx.ApproxEqual(roll, 0.5, 0.01) {
		t.Errorf("roll = %v, want ~0.5", roll)
	}
	if math.Abs(pitch) > 0.01 {
		t.Errorf("pitch = %v, want ~0", pitch)
	}
}

func TestEKFPredictVelocityAndPosition(t *testing.T) {
	e := New(DefaultConfig())
	// Level, accelerating north at 1 m/s²: specific force (1, 0, -g).
	for i := 0; i < 400; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(1, 0, -gravity), dt)
	}
	v := e.Velocity()
	if !mathx.ApproxEqual(v.X, 1, 0.01) {
		t.Errorf("vN = %v, want ~1", v.X)
	}
	p := e.Position()
	if !mathx.ApproxEqual(p.X, 0.5, 0.01) {
		t.Errorf("pN = %v, want ~0.5", p.X)
	}
}

func TestEKFFuseGPSPullsState(t *testing.T) {
	e := New(DefaultConfig())
	target := mathx.V3(10, -5, -3)
	for i := 0; i < 50; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(0, 0, -gravity), dt)
		e.FuseGPS(target, mathx.Vec3{})
	}
	if got := e.Position().Dist(target); got > 0.5 {
		t.Errorf("position %v not pulled to GPS %v (dist %v)", e.Position(), target, got)
	}
}

func TestEKFFuseBaro(t *testing.T) {
	e := New(DefaultConfig())
	for i := 0; i < 200; i++ {
		e.Predict(mathx.Vec3{}, mathx.V3(0, 0, -gravity), dt)
		e.FuseBaro(20)
	}
	if got := -e.Position().Z; !mathx.ApproxEqual(got, 20, 1) {
		t.Errorf("altitude = %v, want ~20", got)
	}
}

func TestEKFFuseMagHandlesWrap(t *testing.T) {
	e := New(DefaultConfig())
	e.Reset(mathx.Vec3{}, mathx.Rad(-179))
	// Magnetometer says +179°: the filter must move -2° (through ±180),
	// not +358°.
	for i := 0; i < 100; i++ {
		e.FuseMag(mathx.Rad(179))
	}
	_, _, yaw := e.Attitude()
	if math.Abs(mathx.WrapPi(yaw-mathx.Rad(179))) > mathx.Rad(2) {
		t.Errorf("yaw = %v deg, want ~179", mathx.Deg(yaw))
	}
}

func TestEKFFuseGravityCorrectsTilt(t *testing.T) {
	e := New(DefaultConfig())
	// Inject an attitude error, then feed level gravity measurements.
	e.x[ixRoll] = 0.3
	for i := 0; i < 400; i++ {
		e.FuseGravity(mathx.V3(0, 0, -gravity))
	}
	roll, _, _ := e.Attitude()
	if math.Abs(roll) > 0.02 {
		t.Errorf("roll after gravity fusion = %v, want ~0", roll)
	}
}

func TestEKFFuseGravityRejectsManeuvers(t *testing.T) {
	e := New(DefaultConfig())
	e.x[ixRoll] = 0.3
	// 2 g specific force: measurement must be rejected.
	e.FuseGravity(mathx.V3(0, 0, -2*gravity))
	roll, _, _ := e.Attitude()
	if roll != 0.3 {
		t.Errorf("maneuvering gravity fusion changed roll to %v", roll)
	}
}

// TestEKFCovarianceStaysPositive flies the firmware-cadence stream and
// checks the covariance after every tick: every entry finite, the diagonal
// positive, and P exactly symmetric right after each fuse (which
// re-symmetrizes it).
func TestEKFCovarianceStaysPositive(t *testing.T) {
	e := New(DefaultConfig())
	for tick := 0; tick < 40000; tick++ {
		fused := cadenceTick(e, tick)
		for i := 0; i < n; i++ {
			if d := e.p[i][i]; d <= 0 {
				t.Fatalf("tick %d: P[%d][%d] = %v, want > 0", tick, i, i, d)
			}
			for j := 0; j < n; j++ {
				if v := e.p[i][j]; math.IsNaN(v) || math.IsInf(v, 0) {
					t.Fatalf("tick %d: P[%d][%d] = %v", tick, i, j, v)
				}
				if fused && e.p[i][j] != e.p[j][i] {
					t.Fatalf("tick %d: P[%d][%d] = %v != P[%d][%d] = %v after a fuse",
						tick, i, j, e.p[i][j], j, i, e.p[j][i])
				}
			}
		}
	}
}

func TestEKFReset(t *testing.T) {
	e := New(DefaultConfig())
	e.Predict(mathx.V3(1, 1, 1), mathx.V3(3, 0, -gravity), 0.5)
	e.Reset(mathx.V3(5, 6, -7), 1.0)
	if e.Position() != mathx.V3(5, 6, -7) {
		t.Errorf("Reset position = %v", e.Position())
	}
	_, _, yaw := e.Attitude()
	if yaw != 1.0 {
		t.Errorf("Reset yaw = %v", yaw)
	}
	if e.Velocity().Norm() != 0 {
		t.Errorf("Reset velocity = %v", e.Velocity())
	}
}

// TestEKFZeroDTPredictNoOp checks that a non-positive or non-finite dt
// leaves the whole filter — state, covariance and innovations — untouched.
func TestEKFZeroDTPredictNoOp(t *testing.T) {
	for _, tc := range []struct {
		name string
		dt   float64
	}{
		{"zero", 0},
		{"negative", -dt},
		{"NaN", math.NaN()},
		{"+Inf", math.Inf(1)},
		{"-Inf", math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := New(DefaultConfig())
			for i := 0; i < 100; i++ {
				cadenceTick(e, i)
			}
			before := *e
			e.Predict(mathx.V3(1, 1, 1), mathx.V3(1, 1, 1), tc.dt)
			if *e != before {
				t.Errorf("Predict with dt=%v changed the filter", tc.dt)
			}
		})
	}
}

// TestEKFPredictAllocs gates the per-tick predict at zero allocations.
func TestEKFPredictAllocs(t *testing.T) {
	e := New(DefaultConfig())
	allocs := testing.AllocsPerRun(200, func() {
		e.Predict(mathx.V3(0.1, -0.05, 0.02), mathx.V3(0.2, 0.1, -9.8), dt)
	})
	if allocs != 0 {
		t.Fatalf("Predict allocates %v times per call, want 0", allocs)
	}
}

func TestEKFRegisterVars(t *testing.T) {
	e := New(DefaultConfig())
	set := vars.NewSet()
	if err := e.RegisterVars(set); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"EKF1.Roll", "EKF1.VN", "EKF1.PD", "NKF4.IPos"} {
		if _, ok := set.Lookup(name); !ok {
			t.Errorf("missing %s", name)
		}
	}
	e.Predict(mathx.V3(0.5, 0, 0), mathx.V3(0, 0, -gravity), 0.1)
	ref, _ := set.Lookup("EKF1.Roll")
	roll, _, _ := e.Attitude()
	if ref.Get() != roll {
		t.Errorf("EKF1.Roll var %v != attitude %v", ref.Get(), roll)
	}
}

// TestEKFTracksSimulatedFlight closes the loop: the EKF consuming noisy
// sensors from a simulated flight must track true attitude and position.
// This is the property the SAVIOR monitor depends on.
func TestEKFTracksSimulatedFlight(t *testing.T) {
	quad, err := sim.NewQuad(sim.IRISPlusParams(), sim.WithInitialState(sim.State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	suite := sensors.NewSuite(sensors.DefaultConfig())
	e := New(DefaultConfig())
	e.Reset(mathx.V3(0, 0, -10), 0)

	hover := quad.Params.HoverThrottle()
	s := quad.State()
	s.Motor = [4]float64{hover, hover, hover, hover}
	quad.SetState(s)

	att := control.NewAttitudeController(control.DefaultAttitudeConfig(dt))
	pos := control.NewPositionController(control.DefaultPositionConfig(dt, hover))
	var mix control.Mixer

	var maxRollErr, maxPosErr float64
	for i := 0; i < 10*400; i++ {
		// Closed-loop hover with a mild periodic roll excitation to keep
		// the flight dynamic.
		st := quad.State()
		trueR, trueP, trueY := st.Euler()
		_, _, thr := pos.Update(mathx.V3(0, 0, -10), st.Pos, st.Vel, trueY)
		wobble := mathx.Rad(3) * math.Sin(float64(i)*dt*2*math.Pi*0.5)
		tr, tp, ty := att.Update(wobble, 0, 0, trueR, trueP, trueY, st.Omega)
		quad.Step(mix.Mix(thr, tr, tp, ty), dt)
		r := suite.Sample(quad.Time(), quad.State(), quad.LastAccel(), quad.Battery())
		e.Predict(r.IMU.Gyro, r.IMU.Accel, dt)
		e.FuseGravity(r.IMU.Accel)
		if i%25 == 0 { // 16 Hz aiding
			e.FuseBaro(r.BaroAlt)
			e.FuseMag(r.MagYaw)
		}
		if r.GPSFresh {
			e.FuseGPS(r.GPS.Pos, r.GPS.Vel)
		}
		trueRoll, _, _ := quad.State().Euler()
		estRoll, _, _ := e.Attitude()
		if d := math.Abs(mathx.WrapPi(trueRoll - estRoll)); d > maxRollErr {
			maxRollErr = d
		}
		if d := e.Position().Dist(quad.State().Pos); d > maxPosErr {
			maxPosErr = d
		}
	}
	if maxRollErr > mathx.Rad(5) {
		t.Errorf("max roll error %.2f deg, want < 5", mathx.Deg(maxRollErr))
	}
	if maxPosErr > 3 {
		t.Errorf("max position error %.2f m, want < 3", maxPosErr)
	}
}

// cadenceTick runs tick i of the firmware-cadence stream: one IMU predict,
// gravity/baro/mag aiding every 25th tick and a 10 Hz GPS fix, in the
// firmware's call order. The inputs are smooth synthetic signals that sweep
// through maneuvers (where gravity fusion is rejected) and across the ±π
// yaw wrap. It reports whether any fuse ran.
func cadenceTick(e *EKF, i int) (fused bool) {
	s := float64(i) * dt
	gyro := mathx.V3(0.4*math.Sin(1.3*s), 0.3*math.Cos(0.7*s), 0.2*math.Sin(0.31*s))
	accel := mathx.V3(2*math.Sin(0.9*s), 1.5*math.Cos(0.6*s), -gravity*(1+0.3*math.Sin(0.23*s)))
	e.Predict(gyro, accel, dt)
	if i%25 == 0 {
		e.FuseGravity(accel)
		e.FuseBaro(10 + 3*math.Sin(0.05*s))
		e.FuseMag(mathx.WrapPi(3 + 0.6*math.Sin(0.11*s)))
		fused = true
	}
	if i%40 == 0 {
		e.FuseGPS(
			mathx.V3(20*math.Sin(0.02*s), 15*math.Cos(0.03*s), -10-3*math.Sin(0.05*s)),
			mathx.V3(0.4*math.Cos(0.02*s), -0.45*math.Sin(0.03*s), 0.15*math.Cos(0.05*s)),
		)
		fused = true
	}
	return fused
}

// filterDigest accumulates the float bits of the state estimate, the full
// covariance and the NKF4 innovations after every step of a stream.
type filterDigest struct {
	t   *testing.T
	h   hash.Hash
	buf []byte
}

// record hashes the filter and checks AttitudeQuat, cached or rebuilt,
// bit for bit against QuatFromEuler of Attitude.
func (d *filterDigest) record(e *EKF) {
	bits := func(q mathx.Quat) [4]uint64 {
		return [4]uint64{math.Float64bits(q.W), math.Float64bits(q.X), math.Float64bits(q.Y), math.Float64bits(q.Z)}
	}
	if got, want := e.AttitudeQuat(), mathx.QuatFromEuler(e.Attitude()); bits(got) != bits(want) {
		d.t.Fatalf("AttitudeQuat = %+v, QuatFromEuler(Attitude) = %+v", got, want)
	}
	d.buf = d.buf[:0]
	f := func(v float64) { d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v)) }
	for _, v := range e.x {
		f(v)
	}
	for i := range e.p {
		for _, v := range e.p[i] {
			f(v)
		}
	}
	f(e.innovPos)
	f(e.innovVel)
	f(e.innovMag)
	d.h.Write(d.buf)
}

// TestEKFDigest pins the filter bit for bit: a SHA-256 over x, the full P
// and the innovations after every step of each stream. The digests were
// recorded from the dense F·P·Fᵀ covariance predict; a reordered sum, a
// dropped term that was not an exact zero or a changed guard moves them.
func TestEKFDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The recorded bits assume no fused multiply-add: amd64 Go emits
		// none at its default GOAMD64=v1 level, arm64 and others may.
		t.Skipf("digests recorded on amd64, not %s", runtime.GOARCH)
	}
	streams := []struct {
		name string
		want string
		run  func(d *filterDigest)
	}{
		{
			name: "firmware",
			want: "a8e980c1ad9be3d32c3494f24eb9461b6c74bd8dcf3a33b50ea2e38175731c06",
			run: func(d *filterDigest) {
				e := New(DefaultConfig())
				e.Reset(mathx.V3(0, 0, -10), 3)
				for i := 0; i < 40000; i++ {
					cadenceTick(e, i)
					d.record(e)
				}
			},
		},
		{
			name: "pitchclamp",
			want: "e9dd2c2b8da69103a374bd2d1fccc7acdff2a6a078ebf9a62ddc833817bf2c20",
			run: func(d *filterDigest) {
				// Predict-only at pitch rates that drive pitch into its
				// clamp from both sides, first alone, then with roll and
				// yaw rates, which the near-vertical tan/cos(pitch) terms
				// amplify.
				e := New(DefaultConfig())
				for i := 0; i < 4000; i++ {
					q := 3.0
					if (i/500)%2 == 1 {
						q = -3.5
					}
					gyro := mathx.V3(0, q, 0)
					if i >= 2000 {
						gyro = mathx.V3(0.1, q, 0.3*math.Sin(float64(i)*0.01))
					}
					e.Predict(gyro, mathx.V3(0.3, -0.2, -gravity), dt)
					d.record(e)
				}
			},
		},
		{
			name: "largedt",
			want: "5b85e456e62d0cbd243255dcde2f5aedbfc5d3f619c1c6467d231a6057d99f9e",
			run: func(d *filterDigest) {
				// Coarse steps with sparse aiding, interleaved with zero
				// and negative dt, which must leave the filter untouched.
				e := New(DefaultConfig())
				for _, step := range []float64{0.05, 0.5, 2, 10} {
					for i := 0; i < 100; i++ {
						e.Predict(mathx.V3(0.05, -0.02, 0.01), mathx.V3(0.4, 0.1, -gravity), step)
						d.record(e)
						if i%10 == 0 {
							e.FuseGPS(mathx.V3(float64(i), -2, -10), mathx.V3(0.5, 0, 0))
							e.FuseBaro(10)
							d.record(e)
						}
						if i%33 == 0 {
							e.Predict(mathx.V3(1, 1, 1), mathx.V3(1, 1, 1), 0)
							e.Predict(mathx.V3(1, 1, 1), mathx.V3(1, 1, 1), -step)
							d.record(e)
						}
					}
				}
			},
		},
		{
			name: "reset",
			want: "eb9b4a8a636a97738169178a79e9467650f1b987b65e9fb20c991d7bc6605af5",
			run: func(d *filterDigest) {
				e := New(DefaultConfig())
				for i := 0; i < 8000; i++ {
					if i == 3000 || i == 5500 {
						e.Reset(mathx.V3(float64(i)/100, -7, -20), -2.5)
						d.record(e)
					}
					cadenceTick(e, i)
					d.record(e)
				}
			},
		},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			d := &filterDigest{t: t, h: sha256.New()}
			s.run(d)
			if got := hex.EncodeToString(d.h.Sum(nil)); got != s.want {
				t.Errorf("digest = %s, want %s", got, s.want)
			}
		})
	}
}
