// Package sim implements the 6-DoF quadrotor physics simulator that stands
// in for the ArduPilot SITL + Gazebo testbed used in the ARES paper.
//
// The simulator models a quad-X frame as a rigid body driven by four
// first-order-lag motors, with aerodynamic drag, a gust-capable wind model, a
// simple battery, a flat ground plane and axis-aligned box obstacles. State
// is integrated with a fourth-order Runge-Kutta scheme at the physics rate
// (default 400 Hz, matching the ArduCopter main loop).
//
// Frames: world vectors are NED (north, east, down; gravity is +Z), body
// vectors are FRD (forward, right, down). Thrust acts along body -Z.
package sim

import (
	"errors"
	"fmt"
	"math"

	"github.com/ares-cps/ares/internal/mathx"
)

// Gravity is the standard gravitational acceleration in m/s² (world +Z).
const Gravity = 9.80665

// VehicleParams describes the physical quadrotor. Defaults approximate the
// 3DR IRIS+ airframe flown in the paper's evaluation.
type VehicleParams struct {
	// Mass is the takeoff mass in kg.
	Mass float64
	// Inertia holds the diagonal body inertia (Ixx, Iyy, Izz) in kg·m².
	Inertia mathx.Vec3
	// ArmLength is the motor arm length from the center in m.
	ArmLength float64
	// MaxThrustPerMotor is the thrust at full command for one motor, in N.
	MaxThrustPerMotor float64
	// TorqueCoeff converts motor thrust (N) into yaw reaction torque (N·m).
	TorqueCoeff float64
	// MotorTau is the motor first-order lag time constant in s.
	MotorTau float64
	// LinearDrag holds per-axis linear drag coefficients (N per m/s).
	LinearDrag mathx.Vec3
	// AngularDrag holds rotational drag coefficients (N·m per rad/s).
	AngularDrag mathx.Vec3
	// BatteryCapacity is the usable battery charge in mAh.
	BatteryCapacity float64
	// HoverCurrent is the current draw at hover throttle in A.
	HoverCurrent float64
	// BatteryVoltage is the nominal full-charge voltage in V.
	BatteryVoltage float64
}

// IRISPlusParams returns vehicle parameters approximating the 3DR IRIS+
// quadrotor (1.37 kg, 0.23 m arms) used in the paper's evaluation.
func IRISPlusParams() VehicleParams {
	return VehicleParams{
		Mass:              1.37,
		Inertia:           mathx.V3(0.0219, 0.0109, 0.0306),
		ArmLength:         0.23,
		MaxThrustPerMotor: 8.5,
		TorqueCoeff:       0.016,
		MotorTau:          0.05,
		LinearDrag:        mathx.V3(0.35, 0.35, 0.55),
		AngularDrag:       mathx.V3(0.003, 0.003, 0.004),
		BatteryCapacity:   5100,
		HoverCurrent:      13,
		BatteryVoltage:    12.6,
	}
}

// Pixhawk4Params returns parameters approximating a generic Pixhawk4-based
// 450-class quadrotor, the second virtual vehicle in the evaluation.
func Pixhawk4Params() VehicleParams {
	return VehicleParams{
		Mass:              1.62,
		Inertia:           mathx.V3(0.0347, 0.0347, 0.0617),
		ArmLength:         0.225,
		MaxThrustPerMotor: 9.8,
		TorqueCoeff:       0.018,
		MotorTau:          0.06,
		LinearDrag:        mathx.V3(0.40, 0.40, 0.60),
		AngularDrag:       mathx.V3(0.004, 0.004, 0.005),
		BatteryCapacity:   5000,
		HoverCurrent:      15,
		BatteryVoltage:    14.8,
	}
}

// Validate reports configuration errors that would break the dynamics.
func (p VehicleParams) Validate() error {
	switch {
	case p.Mass <= 0:
		return errors.New("sim: mass must be positive")
	case p.Inertia.X <= 0 || p.Inertia.Y <= 0 || p.Inertia.Z <= 0:
		return errors.New("sim: inertia components must be positive")
	case p.ArmLength <= 0:
		return errors.New("sim: arm length must be positive")
	case p.MaxThrustPerMotor*4 <= p.Mass*Gravity:
		return fmt.Errorf("sim: max thrust %.2f N cannot lift %.2f kg",
			p.MaxThrustPerMotor*4, p.Mass)
	case p.MotorTau <= 0:
		return errors.New("sim: motor time constant must be positive")
	}
	return nil
}

// HoverThrottle returns the per-motor command fraction that balances gravity.
func (p VehicleParams) HoverThrottle() float64 {
	return p.Mass * Gravity / (4 * p.MaxThrustPerMotor)
}

// State is the full rigid-body state of the vehicle.
type State struct {
	// Pos is the world NED position in m (Z is down; altitude = -Z).
	Pos mathx.Vec3
	// Vel is the world NED velocity in m/s.
	Vel mathx.Vec3
	// Att is the body→world attitude quaternion.
	Att mathx.Quat
	// Omega is the body angular rate (p, q, r) in rad/s.
	Omega mathx.Vec3
	// Motor holds the four actual (lagged) motor outputs in [0, 1],
	// ordered front-right, back-left, front-left, back-right (ArduPilot
	// quad-X numbering).
	Motor [4]float64
}

// Altitude returns height above ground in m (positive up).
func (s State) Altitude() float64 { return -s.Pos.Z }

// Euler returns the attitude as (roll, pitch, yaw) in radians.
func (s State) Euler() (roll, pitch, yaw float64) { return s.Att.Euler() }

// Quad is the simulated quadrotor plant.
type Quad struct {
	Params VehicleParams

	state       State
	wind        *Wind
	battery     Battery
	crashed     bool
	crashInfo   string
	timeS       float64
	world       *World
	impactSpeed float64
	lastAccel   mathx.Vec3
}

// NewQuad creates a quadrotor resting on the ground at the origin.
// The provided params are validated; invalid params return an error.
func NewQuad(params VehicleParams, opts ...Option) (*Quad, error) {
	if err := params.Validate(); err != nil {
		return nil, err
	}
	q := &Quad{
		Params: params,
		state:  State{Att: mathx.QuatIdentity()},
		battery: Battery{
			CapacitymAh: params.BatteryCapacity,
			RemainmAh:   params.BatteryCapacity,
			NominalV:    params.BatteryVoltage,
			Voltage:     params.BatteryVoltage,
		},
		world: &World{},
	}
	for _, o := range opts {
		o.apply(q)
	}
	return q, nil
}

// Option configures a Quad at construction time.
type Option interface{ apply(*Quad) }

type optionFunc func(*Quad)

func (f optionFunc) apply(q *Quad) { f(q) }

// WithWind installs a wind model.
func WithWind(w *Wind) Option {
	return optionFunc(func(q *Quad) { q.wind = w })
}

// WithWorld installs a world (ground plane plus obstacles).
func WithWorld(w *World) Option {
	return optionFunc(func(q *Quad) {
		if w != nil {
			q.world = w
		}
	})
}

// WithInitialState overrides the starting state.
func WithInitialState(s State) Option {
	return optionFunc(func(q *Quad) { q.state = s })
}

// State returns a copy of the current vehicle state.
func (q *Quad) State() State { return q.state }

// SetState overwrites the vehicle state (used by episode resets).
func (q *Quad) SetState(s State) {
	q.state = s
	q.crashed = false
	q.crashInfo = ""
}

// Time returns the simulated time in seconds since construction or Reset.
func (q *Quad) Time() float64 { return q.timeS }

// LastAccel returns the world-frame acceleration over the most recent step,
// used by the IMU model to derive the specific force an accelerometer sees.
func (q *Quad) LastAccel() mathx.Vec3 { return q.lastAccel }

// Battery returns the current battery status.
func (q *Quad) Battery() Battery { return q.battery }

// World returns the world the vehicle flies in.
func (q *Quad) World() *World { return q.world }

// Crashed reports whether the vehicle has crashed and why.
func (q *Quad) Crashed() (bool, string) { return q.crashed, q.crashInfo }

// Reset restores the vehicle to rest at the given NED position with full
// battery and clears any crash condition.
func (q *Quad) Reset(pos mathx.Vec3) {
	q.state = State{Pos: pos, Att: mathx.QuatIdentity()}
	q.battery.RemainmAh = q.battery.CapacitymAh
	q.battery.Voltage = q.battery.NominalV
	q.crashed = false
	q.crashInfo = ""
	q.timeS = 0
	if q.wind != nil {
		q.wind.Reset()
	}
}

// nonFiniteStep is the crash reason recorded when Step is fed NaN or ±Inf.
const nonFiniteStep = "non-finite motor command or dt"

// finite reports whether v is neither NaN nor ±Inf.
func finite(v float64) bool {
	return !math.IsNaN(v) && !math.IsInf(v, 0)
}

// Step advances the simulation by dt seconds with the given motor commands
// in [0, 1]. Once crashed the vehicle stays put and Step is a no-op.
//
// Non-finite commands or dt crash the vehicle with an explanatory reason
// instead of silently poisoning the state: a NaN dt previously slipped past
// the dt <= 0 guard and propagated through the integrator.
func (q *Quad) Step(cmd [4]float64, dt float64) {
	if q.crashed {
		return
	}
	if !finite(dt) || !finite(cmd[0]) || !finite(cmd[1]) || !finite(cmd[2]) || !finite(cmd[3]) {
		q.crash(nonFiniteStep)
		return
	}
	if dt <= 0 {
		return
	}
	c0, c1, c2, c3 := mathx.Clamp(cmd[0], 0, 1), mathx.Clamp(cmd[1], 0, 1),
		mathx.Clamp(cmd[2], 0, 1), mathx.Clamp(cmd[3], 0, 1)
	if q.battery.Depleted() {
		// A dead battery stops the motors; the vehicle falls.
		c0, c1, c2, c3 = 0, 0, 0, 0
	}

	windVel := mathx.Vec3{}
	if q.wind != nil {
		windVel = q.wind.Step(dt)
	}

	q.integrate(c0, c1, c2, c3, windVel, dt)
	q.timeS += dt
	q.battery.drain(q.currentDraw(c0+c1+c2+c3), dt)
	q.checkCollisions()
}

// currentDraw estimates battery current from the summed motor commands.
func (q *Quad) currentDraw(sum float64) float64 {
	hover := 4 * q.Params.HoverThrottle()
	if hover == 0 {
		return 0
	}
	// Current scales roughly with throttle^1.5 around hover.
	ratio := sum / hover
	return q.Params.HoverCurrent * math.Pow(math.Max(ratio, 0), 1.5)
}

// integrate performs one RK4 step of the rigid-body dynamics and the
// first-order motor lag, then applies ground support. It updates the
// state, the world acceleration over the step and the impact speed.
//
// The four derivative evaluations are written out as scalar arithmetic
// rather than Vec3/Quat method calls on State-sized structs, which halves
// the cost of a step. The operation order is exactly that of the method
// form the simulator was first written in: Go on amd64 (at the default
// GOAMD64=v1) does not fuse multiply-adds, so the rewrite is
// bit-preserving, and the zero-valued
// terms of the quaternion products (x*0) are kept rather than folded so
// signed zeros propagate as before. TestQuadStepDigest pins the bits.
func (q *Quad) integrate(c0, c1, c2, c3 float64, wind mathx.Vec3, dt float64) {
	p := &q.Params
	windX, windY, windZ := wind.X, wind.Y, wind.Z
	s := &q.state
	px, py, pz := s.Pos.X, s.Pos.Y, s.Pos.Z
	vx, vy, vz := s.Vel.X, s.Vel.Y, s.Vel.Z
	qw0, qx0, qy0, qz0 := s.Att.W, s.Att.X, s.Att.Y, s.Att.Z
	wx0, wy0, wz0 := s.Omega.X, s.Omega.Y, s.Omega.Z
	m0, m1, m2, m3 := s.Motor[0], s.Motor[1], s.Motor[2], s.Motor[3]

	tau := p.MotorTau
	maxT := p.MaxThrustPerMotor
	// Quad-X geometry with ArduPilot motor numbering:
	//   m0 front-right (CCW), m1 back-left (CCW),
	//   m2 front-left (CW),  m3 back-right (CW).
	l := p.ArmLength / math.Sqrt2
	coeff := p.TorqueCoeff
	adx, ady, adz := p.AngularDrag.X, p.AngularDrag.Y, p.AngularDrag.Z
	ldx, ldy, ldz := p.LinearDrag.X, p.LinearDrag.Y, p.LinearDrag.Z
	ix, iy, iz := p.Inertia.X, p.Inertia.Y, p.Inertia.Z
	mg := p.Mass * Gravity
	invM := 1 / p.Mass

	// k1: the derivative at the start state. Motor lag, per-motor thrust,
	// quad-X torques less rotational drag, thrust rotated into the world
	// frame (q⊗(0,0,−T)⊗q*, zero terms kept), gravity plus drag against
	// the air, and Euler's rotation equation I·ω̇ = τ − ω×(I·ω).
	dm10 := (c0 - m0) / tau
	dm11 := (c1 - m1) / tau
	dm12 := (c2 - m2) / tau
	dm13 := (c3 - m3) / tau
	t10 := maxT * m0
	t11 := maxT * m1
	t12 := maxT * m2
	t13 := maxT * m3
	total1 := t10 + t11 + t12 + t13
	rollT1 := l * (-t10 + t11 + t12 - t13)
	pitchT1 := l * (t10 - t11 + t12 - t13)
	yawT1 := coeff * (t10 + t11 - t12 - t13)
	tqx1 := rollT1 - adx*wx0
	tqy1 := pitchT1 - ady*wy0
	tqz1 := yawT1 - adz*wz0
	tz1 := -total1
	aW1 := qw0*0 - qx0*0 - qy0*0 - qz0*tz1
	aX1 := qw0*0 + qx0*0 + qy0*tz1 - qz0*0
	aY1 := qw0*0 - qx0*tz1 + qy0*0 + qz0*0
	aZ1 := qw0*tz1 + qx0*0 - qy0*0 + qz0*0
	rX1 := aW1*-qx0 + aX1*qw0 + aY1*-qz0 - aZ1*-qy0
	rY1 := aW1*-qy0 - aX1*-qz0 + aY1*qw0 + aZ1*-qx0
	rZ1 := aW1*-qz0 + aX1*-qy0 - aY1*-qx0 + aZ1*qw0
	a1x := (0 + rX1 + -(ldx * (vx - windX))) * invM
	a1y := (0 + rY1 + -(ldy * (vy - windY))) * invM
	a1z := (mg + rZ1 + -(ldz * (vz - windZ))) * invM
	iwx1 := ix * wx0
	iwy1 := iy * wy0
	iwz1 := iz * wz0
	al1x := (tqx1 - (wy0*iwz1 - wz0*iwy1)) / ix
	al1y := (tqy1 - (wz0*iwx1 - wx0*iwz1)) / iy
	al1z := (tqz1 - (wx0*iwy1 - wy0*iwx1)) / iz
	h := dt / 2
	s2vx, s2vy, s2vz := vx+a1x*h, vy+a1y*h, vz+a1z*h
	var s2qw, s2qx, s2qy, s2qz float64
	// Stage-2 state, attitude by Quat.Integrate written out: dq = q⊗(0, ω),
	// half-step, then normalize (zero norm snaps to identity).
	dqAw := qw0*0 - qx0*wx0 - qy0*wy0 - qz0*wz0
	dqAx := qw0*wx0 + qx0*0 + qy0*wz0 - qz0*wy0
	dqAy := qw0*wy0 - qx0*wz0 + qy0*0 + qz0*wx0
	dqAz := qw0*wz0 + qx0*wy0 - qy0*wx0 + qz0*0
	s2qw = qw0 + dqAw*0.5*h
	s2qx = qx0 + dqAx*0.5*h
	s2qy = qy0 + dqAy*0.5*h
	s2qz = qz0 + dqAz*0.5*h
	if nA := math.Sqrt(s2qw*s2qw + s2qx*s2qx + s2qy*s2qy + s2qz*s2qz); nA == 0 {
		s2qw, s2qx, s2qy, s2qz = 1, 0, 0, 0
	} else {
		s2qw, s2qx, s2qy, s2qz = s2qw/nA, s2qx/nA, s2qy/nA, s2qz/nA
	}
	s2wx, s2wy, s2wz := wx0+al1x*h, wy0+al1y*h, wz0+al1z*h
	s2m0 := mathx.Clamp(m0+dm10*h, 0, 1)
	s2m1 := mathx.Clamp(m1+dm11*h, 0, 1)
	s2m2 := mathx.Clamp(m2+dm12*h, 0, 1)
	s2m3 := mathx.Clamp(m3+dm13*h, 0, 1)
	// k2: the same derivative at the stage-2 state.
	dm20 := (c0 - s2m0) / tau
	dm21 := (c1 - s2m1) / tau
	dm22 := (c2 - s2m2) / tau
	dm23 := (c3 - s2m3) / tau
	t20 := maxT * s2m0
	t21 := maxT * s2m1
	t22 := maxT * s2m2
	t23 := maxT * s2m3
	total2 := t20 + t21 + t22 + t23
	rollT2 := l * (-t20 + t21 + t22 - t23)
	pitchT2 := l * (t20 - t21 + t22 - t23)
	yawT2 := coeff * (t20 + t21 - t22 - t23)
	tqx2 := rollT2 - adx*s2wx
	tqy2 := pitchT2 - ady*s2wy
	tqz2 := yawT2 - adz*s2wz
	tz2 := -total2
	aW2 := s2qw*0 - s2qx*0 - s2qy*0 - s2qz*tz2
	aX2 := s2qw*0 + s2qx*0 + s2qy*tz2 - s2qz*0
	aY2 := s2qw*0 - s2qx*tz2 + s2qy*0 + s2qz*0
	aZ2 := s2qw*tz2 + s2qx*0 - s2qy*0 + s2qz*0
	rX2 := aW2*-s2qx + aX2*s2qw + aY2*-s2qz - aZ2*-s2qy
	rY2 := aW2*-s2qy - aX2*-s2qz + aY2*s2qw + aZ2*-s2qx
	rZ2 := aW2*-s2qz + aX2*-s2qy - aY2*-s2qx + aZ2*s2qw
	a2x := (0 + rX2 + -(ldx * (s2vx - windX))) * invM
	a2y := (0 + rY2 + -(ldy * (s2vy - windY))) * invM
	a2z := (mg + rZ2 + -(ldz * (s2vz - windZ))) * invM
	iwx2 := ix * s2wx
	iwy2 := iy * s2wy
	iwz2 := iz * s2wz
	al2x := (tqx2 - (s2wy*iwz2 - s2wz*iwy2)) / ix
	al2y := (tqy2 - (s2wz*iwx2 - s2wx*iwz2)) / iy
	al2z := (tqz2 - (s2wx*iwy2 - s2wy*iwx2)) / iz
	s3vx, s3vy, s3vz := vx+a2x*h, vy+a2y*h, vz+a2z*h
	var s3qw, s3qx, s3qy, s3qz float64
	// Stage-3 state.
	dqBw := qw0*0 - qx0*s2wx - qy0*s2wy - qz0*s2wz
	dqBx := qw0*s2wx + qx0*0 + qy0*s2wz - qz0*s2wy
	dqBy := qw0*s2wy - qx0*s2wz + qy0*0 + qz0*s2wx
	dqBz := qw0*s2wz + qx0*s2wy - qy0*s2wx + qz0*0
	s3qw = qw0 + dqBw*0.5*h
	s3qx = qx0 + dqBx*0.5*h
	s3qy = qy0 + dqBy*0.5*h
	s3qz = qz0 + dqBz*0.5*h
	if nB := math.Sqrt(s3qw*s3qw + s3qx*s3qx + s3qy*s3qy + s3qz*s3qz); nB == 0 {
		s3qw, s3qx, s3qy, s3qz = 1, 0, 0, 0
	} else {
		s3qw, s3qx, s3qy, s3qz = s3qw/nB, s3qx/nB, s3qy/nB, s3qz/nB
	}
	s3wx, s3wy, s3wz := wx0+al2x*h, wy0+al2y*h, wz0+al2z*h
	s3m0 := mathx.Clamp(m0+dm20*h, 0, 1)
	s3m1 := mathx.Clamp(m1+dm21*h, 0, 1)
	s3m2 := mathx.Clamp(m2+dm22*h, 0, 1)
	s3m3 := mathx.Clamp(m3+dm23*h, 0, 1)
	// k3: the same derivative at the stage-3 state.
	dm30 := (c0 - s3m0) / tau
	dm31 := (c1 - s3m1) / tau
	dm32 := (c2 - s3m2) / tau
	dm33 := (c3 - s3m3) / tau
	t30 := maxT * s3m0
	t31 := maxT * s3m1
	t32 := maxT * s3m2
	t33 := maxT * s3m3
	total3 := t30 + t31 + t32 + t33
	rollT3 := l * (-t30 + t31 + t32 - t33)
	pitchT3 := l * (t30 - t31 + t32 - t33)
	yawT3 := coeff * (t30 + t31 - t32 - t33)
	tqx3 := rollT3 - adx*s3wx
	tqy3 := pitchT3 - ady*s3wy
	tqz3 := yawT3 - adz*s3wz
	tz3 := -total3
	aW3 := s3qw*0 - s3qx*0 - s3qy*0 - s3qz*tz3
	aX3 := s3qw*0 + s3qx*0 + s3qy*tz3 - s3qz*0
	aY3 := s3qw*0 - s3qx*tz3 + s3qy*0 + s3qz*0
	aZ3 := s3qw*tz3 + s3qx*0 - s3qy*0 + s3qz*0
	rX3 := aW3*-s3qx + aX3*s3qw + aY3*-s3qz - aZ3*-s3qy
	rY3 := aW3*-s3qy - aX3*-s3qz + aY3*s3qw + aZ3*-s3qx
	rZ3 := aW3*-s3qz + aX3*-s3qy - aY3*-s3qx + aZ3*s3qw
	a3x := (0 + rX3 + -(ldx * (s3vx - windX))) * invM
	a3y := (0 + rY3 + -(ldy * (s3vy - windY))) * invM
	a3z := (mg + rZ3 + -(ldz * (s3vz - windZ))) * invM
	iwx3 := ix * s3wx
	iwy3 := iy * s3wy
	iwz3 := iz * s3wz
	al3x := (tqx3 - (s3wy*iwz3 - s3wz*iwy3)) / ix
	al3y := (tqy3 - (s3wz*iwx3 - s3wx*iwz3)) / iy
	al3z := (tqz3 - (s3wx*iwy3 - s3wy*iwx3)) / iz
	s4vx, s4vy, s4vz := vx+a3x*dt, vy+a3y*dt, vz+a3z*dt
	var s4qw, s4qx, s4qy, s4qz float64
	// Stage-4 state.
	dqCw := qw0*0 - qx0*s3wx - qy0*s3wy - qz0*s3wz
	dqCx := qw0*s3wx + qx0*0 + qy0*s3wz - qz0*s3wy
	dqCy := qw0*s3wy - qx0*s3wz + qy0*0 + qz0*s3wx
	dqCz := qw0*s3wz + qx0*s3wy - qy0*s3wx + qz0*0
	s4qw = qw0 + dqCw*0.5*dt
	s4qx = qx0 + dqCx*0.5*dt
	s4qy = qy0 + dqCy*0.5*dt
	s4qz = qz0 + dqCz*0.5*dt
	if nC := math.Sqrt(s4qw*s4qw + s4qx*s4qx + s4qy*s4qy + s4qz*s4qz); nC == 0 {
		s4qw, s4qx, s4qy, s4qz = 1, 0, 0, 0
	} else {
		s4qw, s4qx, s4qy, s4qz = s4qw/nC, s4qx/nC, s4qy/nC, s4qz/nC
	}
	s4wx, s4wy, s4wz := wx0+al3x*dt, wy0+al3y*dt, wz0+al3z*dt
	s4m0 := mathx.Clamp(m0+dm30*dt, 0, 1)
	s4m1 := mathx.Clamp(m1+dm31*dt, 0, 1)
	s4m2 := mathx.Clamp(m2+dm32*dt, 0, 1)
	s4m3 := mathx.Clamp(m3+dm33*dt, 0, 1)
	// k4: the same derivative at the stage-4 state.
	dm40 := (c0 - s4m0) / tau
	dm41 := (c1 - s4m1) / tau
	dm42 := (c2 - s4m2) / tau
	dm43 := (c3 - s4m3) / tau
	t40 := maxT * s4m0
	t41 := maxT * s4m1
	t42 := maxT * s4m2
	t43 := maxT * s4m3
	total4 := t40 + t41 + t42 + t43
	rollT4 := l * (-t40 + t41 + t42 - t43)
	pitchT4 := l * (t40 - t41 + t42 - t43)
	yawT4 := coeff * (t40 + t41 - t42 - t43)
	tqx4 := rollT4 - adx*s4wx
	tqy4 := pitchT4 - ady*s4wy
	tqz4 := yawT4 - adz*s4wz
	tz4 := -total4
	aW4 := s4qw*0 - s4qx*0 - s4qy*0 - s4qz*tz4
	aX4 := s4qw*0 + s4qx*0 + s4qy*tz4 - s4qz*0
	aY4 := s4qw*0 - s4qx*tz4 + s4qy*0 + s4qz*0
	aZ4 := s4qw*tz4 + s4qx*0 - s4qy*0 + s4qz*0
	rX4 := aW4*-s4qx + aX4*s4qw + aY4*-s4qz - aZ4*-s4qy
	rY4 := aW4*-s4qy - aX4*-s4qz + aY4*s4qw + aZ4*-s4qx
	rZ4 := aW4*-s4qz + aX4*-s4qy - aY4*-s4qx + aZ4*s4qw
	a4x := (0 + rX4 + -(ldx * (s4vx - windX))) * invM
	a4y := (0 + rY4 + -(ldy * (s4vy - windY))) * invM
	a4z := (mg + rZ4 + -(ldz * (s4vz - windZ))) * invM
	iwx4 := ix * s4wx
	iwy4 := iy * s4wy
	iwz4 := iz * s4wz
	al4x := (tqx4 - (s4wy*iwz4 - s4wz*iwy4)) / ix
	al4y := (tqy4 - (s4wz*iwx4 - s4wx*iwz4)) / iy
	al4z := (tqz4 - (s4wx*iwy4 - s4wy*iwx4)) / iz
	// RK4 combine, associated as the Vec3 code did:
	// (((k1 + 2·k2) + 2·k3) + k4) · (1/6), then · dt.
	const sixth = 1.0 / 6
	npx := px + (vx+s2vx*2+s3vx*2+s4vx)*sixth*dt
	npy := py + (vy+s2vy*2+s3vy*2+s4vy)*sixth*dt
	npz := pz + (vz+s2vz*2+s3vz*2+s4vz)*sixth*dt
	nvx := vx + (a1x+a2x*2+a3x*2+a4x)*sixth*dt
	nvy := vy + (a1y+a2y*2+a3y*2+a4y)*sixth*dt
	nvz := vz + (a1z+a2z*2+a3z*2+a4z)*sixth*dt
	nwx := wx0 + (al1x+al2x*2+al3x*2+al4x)*sixth*dt
	nwy := wy0 + (al1y+al2y*2+al3y*2+al4y)*sixth*dt
	nwz := wz0 + (al1z+al2z*2+al3z*2+al4z)*sixth*dt
	avgOx := (wx0 + s2wx*2 + s3wx*2 + s4wx) * sixth
	avgOy := (wy0 + s2wy*2 + s3wy*2 + s4wy) * sixth
	avgOz := (wz0 + s2wz*2 + s3wz*2 + s4wz) * sixth
	var nqw, nqx, nqy, nqz float64
	// Attitude integrates the RK4-averaged body rate.
	dqDw := qw0*0 - qx0*avgOx - qy0*avgOy - qz0*avgOz
	dqDx := qw0*avgOx + qx0*0 + qy0*avgOz - qz0*avgOy
	dqDy := qw0*avgOy - qx0*avgOz + qy0*0 + qz0*avgOx
	dqDz := qw0*avgOz + qx0*avgOy - qy0*avgOx + qz0*0
	nqw = qw0 + dqDw*0.5*dt
	nqx = qx0 + dqDx*0.5*dt
	nqy = qy0 + dqDy*0.5*dt
	nqz = qz0 + dqDz*0.5*dt
	if nD := math.Sqrt(nqw*nqw + nqx*nqx + nqy*nqy + nqz*nqz); nD == 0 {
		nqw, nqx, nqy, nqz = 1, 0, 0, 0
	} else {
		nqw, nqx, nqy, nqz = nqw/nD, nqx/nD, nqy/nD, nqz/nD
	}
	nm0 := mathx.Clamp(m0+(dm10+2*dm20+2*dm30+dm40)/6*dt, 0, 1)
	nm1 := mathx.Clamp(m1+(dm11+2*dm21+2*dm31+dm41)/6*dt, 0, 1)
	nm2 := mathx.Clamp(m2+(dm12+2*dm22+2*dm32+dm42)/6*dt, 0, 1)
	nm3 := mathx.Clamp(m3+(dm13+2*dm23+2*dm33+dm43)/6*dt, 0, 1)

	// Ground support: a vehicle resting on the ground cannot sink below
	// it, and gentle contact zeroes vertical motion instead of crashing.
	// The pre-clamp sink rate is kept so the crash check can judge the
	// severity of the impact.
	q.impactSpeed = 0
	if npz > 0 {
		if nvz > 0 {
			q.impactSpeed = nvz
			nvz = 0
		}
		npz = 0
		// Friction kills residual horizontal speed on the ground.
		nvx *= 0.5
		nvy *= 0.5
	}

	q.lastAccel = mathx.Vec3{X: (nvx - vx) * (1 / dt), Y: (nvy - vy) * (1 / dt), Z: (nvz - vz) * (1 / dt)}
	s.Pos = mathx.Vec3{X: npx, Y: npy, Z: npz}
	s.Vel = mathx.Vec3{X: nvx, Y: nvy, Z: nvz}
	s.Att = mathx.Quat{W: nqw, X: nqx, Y: nqy, Z: nqz}
	s.Omega = mathx.Vec3{X: nwx, Y: nwy, Z: nwz}
	s.Motor = [4]float64{nm0, nm1, nm2, nm3}
}

// CrashSpeed is the vertical impact speed in m/s above which ground contact
// counts as a crash rather than a landing.
const CrashSpeed = 2.5

// tipOverRad is the roll/pitch magnitude beyond which ground contact counts
// as a tip-over (60°).
var tipOverRad = mathx.Rad(60)

func (q *Quad) checkCollisions() {
	s := &q.state
	// Hard ground impact (impact speed recorded by the ground clamp).
	if q.impactSpeed > CrashSpeed {
		q.crash(fmt.Sprintf("ground impact at %.1f m/s", q.impactSpeed))
		return
	}
	// Extreme attitude near the ground means a tip-over. Roll and pitch
	// are Quat.Euler's, computed only near the ground and without yaw.
	if s.Altitude() < 0.3 {
		a := s.Att
		roll := math.Atan2(2*(a.W*a.X+a.Y*a.Z), 1-2*(a.X*a.X+a.Y*a.Y))
		pitch := math.Asin(mathx.Clamp(2*(a.W*a.Y-a.Z*a.X), -1, 1))
		if math.Abs(roll) > tipOverRad || math.Abs(pitch) > tipOverRad {
			q.crash("tip-over near ground")
			return
		}
	}
	// Obstacle contact.
	if ob, hit := q.world.Hit(s.Pos); hit {
		q.crash(fmt.Sprintf("collision with obstacle %q", ob.Name))
		return
	}
}

func (q *Quad) crash(reason string) {
	q.crashed = true
	q.crashInfo = reason
	q.state.Vel = mathx.Vec3{}
	q.state.Omega = mathx.Vec3{}
	if q.state.Pos.Z > 0 {
		q.state.Pos.Z = 0
	}
}
