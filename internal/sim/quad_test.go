package sim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/ares-cps/ares/internal/mathx"
)

func newTestQuad(t *testing.T, opts ...Option) *Quad {
	t.Helper()
	q, err := NewQuad(IRISPlusParams(), opts...)
	if err != nil {
		t.Fatal(err)
	}
	return q
}

func TestVehicleParamsValidate(t *testing.T) {
	tests := []struct {
		name    string
		mutate  func(*VehicleParams)
		wantErr bool
	}{
		{"valid", func(p *VehicleParams) {}, false},
		{"zero mass", func(p *VehicleParams) { p.Mass = 0 }, true},
		{"negative inertia", func(p *VehicleParams) { p.Inertia.Y = -1 }, true},
		{"zero arm", func(p *VehicleParams) { p.ArmLength = 0 }, true},
		{"underpowered", func(p *VehicleParams) { p.MaxThrustPerMotor = 1 }, true},
		{"zero motor tau", func(p *VehicleParams) { p.MotorTau = 0 }, true},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			p := IRISPlusParams()
			tt.mutate(&p)
			err := p.Validate()
			if (err != nil) != tt.wantErr {
				t.Errorf("Validate() error = %v, wantErr %v", err, tt.wantErr)
			}
		})
	}
}

func TestHoverThrottleBalancesGravity(t *testing.T) {
	p := IRISPlusParams()
	h := p.HoverThrottle()
	if h <= 0 || h >= 1 {
		t.Fatalf("hover throttle %v out of range", h)
	}
	if got := 4 * p.MaxThrustPerMotor * h; !mathx.ApproxEqual(got, p.Mass*Gravity, 1e-9) {
		t.Errorf("hover thrust %v, want %v", got, p.Mass*Gravity)
	}
}

func TestQuadRestsOnGround(t *testing.T) {
	q := newTestQuad(t)
	for i := 0; i < 400; i++ {
		q.Step([4]float64{}, 1.0/400)
	}
	s := q.State()
	if s.Altitude() != 0 {
		t.Errorf("idle vehicle altitude = %v, want 0", s.Altitude())
	}
	if crashed, _ := q.Crashed(); crashed {
		t.Error("idle vehicle crashed")
	}
}

func TestQuadClimbsAboveHoverThrottle(t *testing.T) {
	q := newTestQuad(t)
	h := q.Params.HoverThrottle()
	cmd := [4]float64{h * 1.2, h * 1.2, h * 1.2, h * 1.2}
	for i := 0; i < 2*400; i++ {
		q.Step(cmd, 1.0/400)
	}
	if alt := q.State().Altitude(); alt < 1 {
		t.Errorf("altitude after 2 s at 120%% hover = %v, want > 1 m", alt)
	}
	// Symmetric thrust must not induce rotation.
	roll, pitch, _ := q.State().Euler()
	if math.Abs(roll) > 1e-6 || math.Abs(pitch) > 1e-6 {
		t.Errorf("symmetric thrust rotated vehicle: roll=%v pitch=%v", roll, pitch)
	}
}

func TestQuadHoverIsSteady(t *testing.T) {
	q := newTestQuad(t, WithInitialState(State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	h := q.Params.HoverThrottle()
	// Pre-spin motors to hover so the lag does not cause an initial drop.
	s := q.State()
	s.Motor = [4]float64{h, h, h, h}
	q.SetState(s)
	cmd := [4]float64{h, h, h, h}
	for i := 0; i < 400; i++ {
		q.Step(cmd, 1.0/400)
	}
	if alt := q.State().Altitude(); !mathx.ApproxEqual(alt, 10, 0.05) {
		t.Errorf("hover altitude drifted to %v, want ~10", alt)
	}
}

func TestQuadTorqueDirections(t *testing.T) {
	// Differential thrust must produce the expected body torques under the
	// ArduPilot quad-X numbering (m0 FR, m1 BL, m2 FL, m3 BR).
	tests := []struct {
		name string
		cmd  [4]float64
		axis func(s State) float64
		sign float64
	}{
		{
			name: "left motors up rolls right (positive roll)",
			cmd:  [4]float64{0.4, 0.6, 0.6, 0.4}, // BL+FL higher
			axis: func(s State) float64 { r, _, _ := s.Euler(); return r },
			sign: 1,
		},
		{
			name: "front motors up pitches up (positive pitch)",
			cmd:  [4]float64{0.6, 0.4, 0.6, 0.4}, // FR+FL higher
			axis: func(s State) float64 { _, p, _ := s.Euler(); return p },
			sign: 1,
		},
		{
			name: "CCW motors up yaws positive",
			cmd:  [4]float64{0.6, 0.6, 0.4, 0.4}, // m0+m1 (CCW) higher
			axis: func(s State) float64 { _, _, y := s.Euler(); return y },
			sign: 1,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := newTestQuad(t, WithInitialState(State{
				Pos: mathx.V3(0, 0, -50),
				Att: mathx.QuatIdentity(),
			}))
			for i := 0; i < 40; i++ { // 0.1 s
				q.Step(tt.cmd, 1.0/400)
			}
			got := tt.axis(q.State())
			if got*tt.sign <= 0 {
				t.Errorf("angle = %v, want sign %v", got, tt.sign)
			}
		})
	}
}

func TestQuadCrashOnHardImpact(t *testing.T) {
	q := newTestQuad(t, WithInitialState(State{
		Pos: mathx.V3(0, 0, -30),
		Att: mathx.QuatIdentity(),
	}))
	// Free fall from 30 m: impact speed ~24 m/s, far above CrashSpeed.
	for i := 0; i < 5*400; i++ {
		q.Step([4]float64{}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	crashed, reason := q.Crashed()
	if !crashed {
		t.Fatal("free fall from 30 m did not crash")
	}
	if reason == "" {
		t.Error("crash reason empty")
	}
	// Crashed vehicle ignores further steps.
	before := q.State()
	q.Step([4]float64{1, 1, 1, 1}, 1.0/400)
	if q.State() != before {
		t.Error("crashed vehicle still moves")
	}
}

func TestQuadObstacleCollision(t *testing.T) {
	w := &World{}
	w.AddObstacle(Obstacle{
		Name: "wall",
		Box:  mathx.AABB{Min: mathx.V3(4, -5, -20), Max: mathx.V3(5, 5, 0)},
	})
	q := newTestQuad(t,
		WithWorld(w),
		WithInitialState(State{
			Pos: mathx.V3(0, 0, -10),
			Vel: mathx.V3(8, 0, 0),
			Att: mathx.QuatIdentity(),
		}),
	)
	h := q.Params.HoverThrottle()
	for i := 0; i < 3*400; i++ {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	crashed, reason := q.Crashed()
	if !crashed {
		t.Fatalf("vehicle flew through wall; pos=%v", q.State().Pos)
	}
	if want := `collision with obstacle "wall"`; reason != want {
		t.Errorf("reason = %q, want %q", reason, want)
	}
}

func TestQuadBatteryDrainsAndKillsMotors(t *testing.T) {
	p := IRISPlusParams()
	p.BatteryCapacity = 0.2 // tiny battery, drains in under a second
	q, err := NewQuad(p, WithInitialState(State{
		Pos: mathx.V3(0, 0, -20),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	h := p.HoverThrottle()
	for i := 0; i < 10*400; i++ {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
		if crashed, _ := q.Crashed(); crashed {
			break
		}
	}
	if !q.Battery().Depleted() {
		t.Fatalf("battery not depleted: %v mAh left", q.Battery().RemainmAh)
	}
	if crashed, _ := q.Crashed(); !crashed {
		t.Error("vehicle with dead battery did not fall and crash")
	}
	if v := q.Battery().Voltage; !mathx.ApproxEqual(v, 0.8*p.BatteryVoltage, 1e-9) {
		t.Errorf("depleted voltage = %v, want %v", v, 0.8*p.BatteryVoltage)
	}
}

func TestQuadReset(t *testing.T) {
	q := newTestQuad(t)
	q.Step([4]float64{1, 1, 1, 1}, 0.1)
	q.crash("test")
	q.Reset(mathx.V3(1, 2, -3))
	if crashed, _ := q.Crashed(); crashed {
		t.Error("Reset did not clear crash")
	}
	if q.State().Pos != mathx.V3(1, 2, -3) {
		t.Errorf("Reset pos = %v", q.State().Pos)
	}
	if q.Time() != 0 {
		t.Errorf("Reset time = %v", q.Time())
	}
	if q.Battery().Fraction() != 1 {
		t.Errorf("Reset battery fraction = %v", q.Battery().Fraction())
	}
}

func TestQuadEnergyConservationInFreeFall(t *testing.T) {
	// With drag zeroed, free-fall must match kinematics: v = g·t.
	p := IRISPlusParams()
	p.LinearDrag = mathx.Vec3{}
	q, err := NewQuad(p, WithInitialState(State{
		Pos: mathx.V3(0, 0, -1000),
		Att: mathx.QuatIdentity(),
	}))
	if err != nil {
		t.Fatal(err)
	}
	const dt = 1.0 / 400
	for i := 0; i < 400; i++ { // 1 s
		q.Step([4]float64{}, dt)
	}
	if vz := q.State().Vel.Z; !mathx.ApproxEqual(vz, Gravity, 1e-6) {
		t.Errorf("free-fall speed after 1 s = %v, want %v", vz, Gravity)
	}
}

// TestQuadStepGuards covers Step's input handling: a zero or negative dt
// is a no-op, out-of-range commands are clamped, and non-finite commands
// or dt crash the vehicle loudly instead of poisoning the state (a NaN dt
// used to slip past the dt <= 0 guard).
func TestQuadStepGuards(t *testing.T) {
	const dt = 1.0 / 400
	rest := State{Att: mathx.QuatIdentity()}
	tests := []struct {
		name   string
		cmd    [4]float64
		dt     float64
		reason string // crash reason; "" means no crash
		check  func(t *testing.T, s State)
	}{
		{name: "zero-dt", cmd: [4]float64{0.5, 0.5, 0.5, 0.5}, dt: 0,
			check: func(t *testing.T, s State) {
				if s != rest {
					t.Errorf("zero-dt step changed state: %+v", s)
				}
			}},
		{name: "negative-dt", cmd: [4]float64{0.5, 0.5, 0.5, 0.5}, dt: -dt,
			check: func(t *testing.T, s State) {
				if s != rest {
					t.Errorf("negative-dt step changed state: %+v", s)
				}
			}},
		{name: "clamped-cmd", cmd: [4]float64{5, -3, 0.5, 0.5}, dt: dt,
			check: func(t *testing.T, s State) {
				for i, m := range s.Motor {
					if m < 0 || m > 1 {
						t.Errorf("motor %d = %v out of [0,1]", i, m)
					}
				}
			}},
		{name: "nan-cmd", cmd: [4]float64{math.NaN(), 0.5, 0.5, 0.5}, dt: dt, reason: nonFiniteStep},
		{name: "inf-cmd", cmd: [4]float64{0.5, math.Inf(1), 0.5, 0.5}, dt: dt, reason: nonFiniteStep},
		{name: "neg-inf-cmd", cmd: [4]float64{0.5, 0.5, math.Inf(-1), 0.5}, dt: dt, reason: nonFiniteStep},
		{name: "nan-dt", cmd: [4]float64{0.5, 0.5, 0.5, 0.5}, dt: math.NaN(), reason: nonFiniteStep},
		{name: "inf-dt", cmd: [4]float64{0.5, 0.5, 0.5, 0.5}, dt: math.Inf(1), reason: nonFiniteStep},
		{name: "neg-inf-dt", cmd: [4]float64{0.5, 0.5, 0.5, 0.5}, dt: math.Inf(-1), reason: nonFiniteStep},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			q := newTestQuad(t)
			q.Step(tt.cmd, tt.dt)
			crashed, reason := q.Crashed()
			if crashed != (tt.reason != "") || reason != tt.reason {
				t.Fatalf("crashed=%v reason=%q, want reason %q", crashed, reason, tt.reason)
			}
			if crashed && q.State() != rest {
				t.Errorf("rejected step mutated state: %+v", q.State())
			}
			if tt.check != nil {
				tt.check(t, q.State())
			}
		})
	}
}

// TestQuadStepAllocs gates the physics step at zero allocations: it runs
// 400 times per simulated second of every flight.
// TestQuadStepNonFinite pins the two non-finite holes Step once had: a
// -Inf command must crash loudly, and a NaN dt (which used to slip past the
// dt <= 0 guard) must crash without touching the state.
func TestQuadStepNonFinite(t *testing.T) {
	q := newTestQuad(t)
	q.Step([4]float64{0.5, 0.5, math.Inf(-1), 0.5}, 1.0/400)
	if c, reason := q.Crashed(); !c || reason != nonFiniteStep {
		t.Fatalf("crashed=%v reason=%q, want loud non-finite rejection", c, reason)
	}
	q2 := newTestQuad(t)
	q2.Step([4]float64{0.5, 0.5, 0.5, 0.5}, math.NaN())
	if c, reason := q2.Crashed(); !c || reason != nonFiniteStep {
		t.Fatalf("NaN dt: crashed=%v reason=%q", c, reason)
	}
	if s := q2.State(); s != (State{Att: mathx.QuatIdentity()}) {
		t.Fatalf("NaN dt mutated state: %+v", s)
	}
}

func TestQuadStepAllocs(t *testing.T) {
	q := newTestQuad(t, WithWind(NewWind(mathx.V3(2, 1, 0), 1.5, 7)), WithInitialState(State{
		Pos: mathx.V3(0, 0, -10),
		Att: mathx.QuatIdentity(),
	}))
	h := q.Params.HoverThrottle()
	allocs := testing.AllocsPerRun(200, func() {
		q.Step([4]float64{h, h, h, h}, 1.0/400)
	})
	if allocs != 0 {
		t.Fatalf("Step allocates %v times per call, want 0", allocs)
	}
}

func TestPixhawk4ParamsValid(t *testing.T) {
	if err := Pixhawk4Params().Validate(); err != nil {
		t.Errorf("Pixhawk4Params invalid: %v", err)
	}
}

// mixedCmd builds a deterministic command pattern that exercises
// transients, asymmetry and near-hover flight without immediately crashing.
func mixedCmd(p VehicleParams, flight, step int) [4]float64 {
	h := p.HoverThrottle()
	f := float64((step+37*flight)%997) / 997
	return [4]float64{
		h + 0.2*(f-0.5),
		h - 0.1*(f-0.5),
		h + 0.05*f,
		h,
	}
}

// stabilizedCmd wraps a perturbation in a crude attitude and altitude
// hold, so a long stream keeps flying at varied attitudes instead of
// tipping over: the altitude target wanders between 5 and 15 m.
func stabilizedCmd(q *Quad, perturb [4]float64, i int) [4]float64 {
	s := q.State()
	roll, pitch, _ := s.Euler()
	h := q.Params.HoverThrottle()
	alt := 10 + 5*math.Sin(float64(i)/2000)
	thr := 0.02*(alt-s.Altitude()) + 0.05*s.Vel.Z
	r := -0.05*roll - 0.01*s.Omega.X
	pt := -0.05*pitch - 0.01*s.Omega.Y
	y := -0.01 * s.Omega.Z
	mix := [4]float64{thr - r + pt + y, thr + r - pt + y, thr + r + pt - y, thr - r - pt - y}
	for k := range mix {
		mix[k] += h + 0.3*(perturb[k]-h)
	}
	return mix
}

// trajectoryDigest accumulates the float bits of everything Step
// publishes — state, last acceleration, battery, clock and crash status —
// after every step of one or more command streams.
type trajectoryDigest struct {
	h   hash.Hash
	buf []byte
	// reasons counts the crash reasons the streams ended in.
	reasons map[string]int
}

func newTrajectoryDigest() *trajectoryDigest {
	return &trajectoryDigest{h: sha256.New(), reasons: map[string]int{}}
}

func (d *trajectoryDigest) f(vs ...float64) {
	for _, v := range vs {
		d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
	}
}

// record appends one step's observables.
func (d *trajectoryDigest) record(q *Quad) {
	d.buf = d.buf[:0]
	s := q.State()
	d.f(s.Pos.X, s.Pos.Y, s.Pos.Z, s.Vel.X, s.Vel.Y, s.Vel.Z)
	d.f(s.Att.W, s.Att.X, s.Att.Y, s.Att.Z, s.Omega.X, s.Omega.Y, s.Omega.Z)
	d.f(s.Motor[:]...)
	a := q.LastAccel()
	d.f(a.X, a.Y, a.Z)
	b := q.Battery()
	d.f(b.CapacitymAh, b.RemainmAh, b.NominalV, b.Voltage, b.CurrentA, q.Time())
	crashed, reason := q.Crashed()
	if crashed {
		d.buf = append(d.buf, 1)
	} else {
		d.buf = append(d.buf, 0)
	}
	d.buf = binary.LittleEndian.AppendUint32(d.buf, uint32(len(reason)))
	d.buf = append(d.buf, reason...)
	d.h.Write(d.buf)
}

// fly steps q through n commands from cmd, recording every step, and
// notes the crash reason the flight ended in.
func (d *trajectoryDigest) fly(q *Quad, n int, dt float64, cmd func(i int) [4]float64) {
	for i := 0; i < n; i++ {
		q.Step(cmd(i), dt)
		d.record(q)
	}
	if crashed, reason := q.Crashed(); crashed {
		d.reasons[reason]++
	}
}

func (d *trajectoryDigest) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// TestQuadStepDigest pins Quad.Step bit for bit: a SHA-256 over every
// published float of several command streams — mixed commands, wind, an
// obstacle world, hard impacts, a tip-over, negative-zero starts, battery
// depletion and non-finite inputs. The digests were recorded from the
// Vec3/Quat-method RK4 before the step was flattened; a reassociated
// expression or a changed crash decision moves them.
func TestQuadStepDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The recorded bits assume no fused multiply-add: amd64 Go emits
		// none at its default GOAMD64=v1 level, arm64 and others may.
		t.Skipf("digests recorded on amd64, not %s", runtime.GOARCH)
	}
	const dt = 1.0 / 400
	p := IRISPlusParams()
	h := p.HoverThrottle()
	hover := func(int) [4]float64 { return [4]float64{h, h, h, h} }
	at := func(pos mathx.Vec3) Option {
		return WithInitialState(State{Pos: pos, Att: mathx.QuatIdentity()})
	}
	streams := []struct {
		name    string
		want    string
		reasons map[string]int
		run     func(t *testing.T, d *trajectoryDigest)
	}{
		{
			name:    "mixed",
			want:    "b1eae25d60b8bdc2f91f85274fbfb78b2491c17eb80e41807c6778bba297a208",
			reasons: map[string]int{"tip-over near ground": 8},
			run: func(t *testing.T, d *trajectoryDigest) {
				// 40k steps of stabilized flight with mixed perturbations,
				// then open-loop mixed commands from the ground.
				q := newTestQuad(t)
				d.fly(q, 40000, dt, func(i int) [4]float64 { return stabilizedCmd(q, mixedCmd(p, 0, i), i) })
				if crashed, _ := q.Crashed(); crashed || q.State().Altitude() < 1 {
					t.Fatalf("stabilized flight ended at %+v", q.State())
				}
				for flight := 0; flight < 8; flight++ {
					d.fly(newTestQuad(t), 2000, dt, func(i int) [4]float64 { return mixedCmd(p, flight, i) })
				}
			},
		},
		{
			name: "wind",
			want: "62598d4786421bcb218fbd64e7fcf213b6e1c6358ad89c5244028209f6007da4",
			run: func(t *testing.T, d *trajectoryDigest) {
				for flight := 0; flight < 4; flight++ {
					w := NewWind(mathx.V3(2, 1, 0), 1.5, int64(100+flight))
					q := newTestQuad(t, WithWind(w))
					d.fly(q, 8000, dt, func(i int) [4]float64 { return stabilizedCmd(q, mixedCmd(p, flight, i), i) })
					if crashed, _ := q.Crashed(); crashed {
						t.Fatalf("flight %d crashed in the wind", flight)
					}
				}
			},
		},
		{
			name:    "world",
			want:    "005ceef85e72898d26e3161c07acbe289bff0aeedad127da4e998bbbb476bb9b",
			reasons: map[string]int{`collision with obstacle "wall"`: 1},
			run: func(t *testing.T, d *trajectoryDigest) {
				w := &World{Obstacles: []Obstacle{{Name: "wall", Box: mathx.AABB{
					Min: mathx.V3(-50, -50, -6), Max: mathx.V3(50, 50, -5),
				}}}}
				climb := h + 0.15
				d.fly(newTestQuad(t, WithWorld(w)), 4000, dt, func(int) [4]float64 {
					return [4]float64{climb, climb, climb, climb}
				})
			},
		},
		{
			name:    "impact",
			reasons: map[string]int{"ground impact at 17.0 m/s": 1, "tip-over near ground": 8},
			want:    "ac1889a7d8947299f018e4e91fc772456126765452c10d1686dd3ed7ccd3c139",
			run: func(t *testing.T, d *trajectoryDigest) {
				// Free fall from 30 m, then full asymmetric throttle with a
				// staggered onset so flights fail on different ticks.
				d.fly(newTestQuad(t, at(mathx.V3(0, 0, -30))), 2000, dt, func(int) [4]float64 { return [4]float64{} })
				for flight := 0; flight < 8; flight++ {
					d.fly(newTestQuad(t), 4000, dt, func(i int) [4]float64 {
						if i > 100*flight {
							return [4]float64{1, 0, 1, 0}
						}
						return [4]float64{h, h, h, h}
					})
				}
			},
		},
		{
			name:    "tipover",
			want:    "30f9194933f581daf0dde2d50a5b02ccf9d15e7b552e4d897d9d3702fd1beb95",
			reasons: map[string]int{"tip-over near ground": 1},
			run: func(t *testing.T, d *trajectoryDigest) {
				q := newTestQuad(t, WithInitialState(State{
					Pos:   mathx.V3(0, 0, -0.25),
					Att:   mathx.QuatFromEuler(0.9, -0.2, 0.3),
					Omega: mathx.V3(4, 0.5, -0.2),
				}))
				d.fly(q, 400, dt, hover)
			},
		},
		{
			name: "signedzero",
			want: "020f0c4ba8ecc560812b102350c9feff0369da821ca30a3130781f7bb48814d5",
			run: func(t *testing.T, d *trajectoryDigest) {
				// Exactly-zero motion from negative-zero starts, so the
				// digest also covers the sign bits of zero results.
				nz := math.Copysign(0, -1)
				for _, c := range []float64{0, h} {
					for _, z := range []float64{nz, -10} {
						q := newTestQuad(t, WithInitialState(State{
							Pos:   mathx.V3(nz, nz, z),
							Vel:   mathx.V3(nz, nz, nz),
							Att:   mathx.Quat{W: 1, X: nz, Y: nz, Z: nz},
							Omega: mathx.V3(nz, nz, nz),
							Motor: [4]float64{c, c, c, c},
						}))
						d.fly(q, 50, dt, func(int) [4]float64 { return [4]float64{c, c, c, c} })
					}
				}
			},
		},
		{
			name:    "battery",
			reasons: map[string]int{"ground impact at 14.9 m/s": 1},
			want:    "c60d521a058b84df917bbb3684fe33d229572bdd57533a62bc914e75e919229e",
			run: func(t *testing.T, d *trajectoryDigest) {
				bp := p
				bp.BatteryCapacity = 0.2
				q, err := NewQuad(bp, at(mathx.V3(0, 0, -20)))
				if err != nil {
					t.Fatal(err)
				}
				d.fly(q, 4000, dt, hover)
				if !q.Battery().Depleted() {
					t.Fatal("battery stream did not deplete the battery")
				}
			},
		},
		{
			name:    "nonfinite",
			want:    "48d3d8083dfb743d640d6158ba2288871f6e86c7e996009a353507b380b97e43",
			reasons: map[string]int{nonFiniteStep: 8},
			run: func(t *testing.T, d *trajectoryDigest) {
				bad := []struct {
					cmd [4]float64
					dt  float64
				}{
					{[4]float64{math.NaN(), h, h, h}, dt},
					{[4]float64{h, math.Inf(1), h, h}, dt},
					{[4]float64{h, h, math.Inf(-1), h}, dt},
					{[4]float64{h, h, h, math.NaN()}, dt},
					{[4]float64{h, h, h, h}, math.NaN()},
					{[4]float64{h, h, h, h}, math.Inf(1)},
					{[4]float64{h, h, h, h}, math.Inf(-1)},
					{[4]float64{math.Inf(1), math.NaN(), h, h}, 0},
				}
				for _, b := range bad {
					q := newTestQuad(t, at(mathx.V3(0, 0, -5)))
					d.fly(q, 50, dt, func(i int) [4]float64 { return mixedCmd(p, 0, i) })
					q.Step([4]float64{h, h, h, h}, 0)
					d.record(q)
					q.Step([4]float64{h, h, h, h}, -dt)
					d.record(q)
					q.Step(b.cmd, b.dt)
					d.record(q)
					d.fly(q, 5, dt, hover)
				}
			},
		},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			d := newTrajectoryDigest()
			s.run(t, d)
			for reason, n := range s.reasons {
				if d.reasons[reason] != n {
					t.Fatalf("stream ended in crashes %v, want %d × %q", d.reasons, n, reason)
				}
			}
			if got := d.sum(); got != s.want {
				t.Errorf("digest = %s, want %s", got, s.want)
			}
		})
	}
}
