package sim

import "github.com/ares-cps/ares/internal/mathx"

// Vehicle is the plant interface the firmware stack flies. Quad is the one
// implementation in the simulator; the interface lets a caller wrap the
// plant, for example to time or record each physics step.
type Vehicle interface {
	// State returns a copy of the rigid-body state.
	State() State
	// SetState overwrites the state and clears any crash condition.
	SetState(State)
	// Step advances the vehicle by dt with motor commands in [0, 1].
	Step(cmd [4]float64, dt float64)
	// Crashed reports whether the vehicle has crashed and why.
	Crashed() (bool, string)
	// Time returns simulated seconds since construction or Reset.
	Time() float64
	// LastAccel returns the world-frame acceleration over the last step.
	LastAccel() mathx.Vec3
	// Battery returns the current battery status.
	Battery() Battery
	// World returns the world the vehicle flies in.
	World() *World
	// Reset restores the vehicle to rest at pos with a full battery.
	Reset(pos mathx.Vec3)
}

var _ Vehicle = (*Quad)(nil)
