package firmware_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"math"
	"runtime"
	"testing"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/mavlink"
	"github.com/ares-cps/ares/internal/vars"
)

// tickDigest hashes everything a tick can move: every registered variable,
// the plant state, battery and crash flag, the sensor reading, the flight
// mode and the control-invariants sample.
type tickDigest struct {
	h    hash.Hash
	buf  []byte
	refs []vars.Ref
	obs  *attack.CIObserver
}

func newTickDigest(fw *firmware.Firmware) *tickDigest {
	return &tickDigest{h: sha256.New(), refs: fw.Vars().Refs(), obs: attack.NewCIObserver(fw)}
}

func (d *tickDigest) f(v float64) {
	d.buf = binary.LittleEndian.AppendUint64(d.buf, math.Float64bits(v))
}

func (d *tickDigest) v3(v mathx.Vec3) { d.f(v.X); d.f(v.Y); d.f(v.Z) }

func (d *tickDigest) flag(b bool) {
	if b {
		d.f(1)
	} else {
		d.f(0)
	}
}

// record hashes the firmware after one tick and returns its CI sample.
func (d *tickDigest) record(fw *firmware.Firmware) defense.CISample {
	d.buf = d.buf[:0]
	for _, r := range d.refs {
		d.f(r.Get())
	}
	q := fw.Quad()
	st := q.State()
	d.v3(st.Pos)
	d.v3(st.Vel)
	d.f(st.Att.W)
	d.f(st.Att.X)
	d.f(st.Att.Y)
	d.f(st.Att.Z)
	d.v3(st.Omega)
	for _, m := range st.Motor {
		d.f(m)
	}
	d.f(q.Time())
	d.v3(q.LastAccel())
	b := q.Battery()
	d.f(b.CapacitymAh)
	d.f(b.RemainmAh)
	d.f(b.NominalV)
	d.f(b.Voltage)
	d.f(b.CurrentA)
	crashed, _ := q.Crashed()
	d.flag(crashed)

	r := fw.LastReading()
	d.f(r.Time)
	d.v3(r.IMU.Gyro)
	d.v3(r.IMU.Accel)
	d.v3(r.IMU2.Gyro)
	d.v3(r.IMU2.Accel)
	d.f(r.BaroAlt)
	d.f(r.MagYaw)
	d.v3(r.GPS.Pos)
	d.v3(r.GPS.Vel)
	d.f(float64(r.GPS.NumSats))
	d.flag(r.GPS.Valid)
	d.flag(r.GPSFresh)
	d.f(r.BatteryV)
	d.f(r.CurrentA)

	d.f(float64(fw.Mode()))
	d.flag(fw.Armed())
	s := d.obs.Sample(fw)
	d.f(s.Roll)
	d.f(s.Pitch)
	d.f(s.Yaw)
	d.f(s.DesRoll)
	d.f(s.DesPitch)
	d.f(s.DesYaw)
	d.h.Write(d.buf)
	return s
}

// fly steps the firmware for the given simulated seconds, recording every
// tick, and calls each (if non-nil) with the tick's CI sample.
func (d *tickDigest) fly(fw *firmware.Firmware, seconds float64, each func(defense.CISample)) {
	for i, n := 0, int(seconds/fw.DT()); i < n; i++ {
		fw.Step()
		s := d.record(fw)
		if each != nil {
			each(s)
		}
	}
}

func newDigestFirmware(t *testing.T, seed int64) *firmware.Firmware {
	t.Helper()
	fw, err := attack.NewFirmware(seed)
	if err != nil {
		t.Fatal(err)
	}
	return fw
}

func startMission(t *testing.T, fw *firmware.Firmware, m *firmware.Mission) {
	t.Helper()
	fw.LoadMission(m)
	if err := fw.StartMission(); err != nil {
		t.Fatal(err)
	}
}

// TestFirmwareStepDigest pins the 400 Hz main loop bit for bit: a SHA-256
// per stream over every registered variable, the plant state, the sensor
// reading and the CI sample after every tick. The streams cover the
// takeoff-then-AUTO flight every campaign episode flies, an attack hook
// with the recovery guard clamping it, GPS denial and a GCS parameter
// write that trips the battery failsafe, and a mid-stream Reset. A
// reordered sum, a skipped recomputation or a changed guard anywhere in
// sensors, estimation, control or physics moves them.
func TestFirmwareStepDigest(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// The recorded bits assume no fused multiply-add: amd64 Go emits
		// none at its default GOAMD64=v1 level, arm64 and others may.
		t.Skipf("digests recorded on amd64, not %s", runtime.GOARCH)
	}
	streams := []struct {
		name string
		want string
		run  func(t *testing.T) *tickDigest
	}{
		{
			name: "line60-ci",
			want: "1886a0b79c69c53cd7ed8f0aed9487fd4af25d503d09e2ad8ac7c1ff8febedcb",
			run: func(t *testing.T) *tickDigest {
				fw := newDigestFirmware(t, 1)
				d := newTickDigest(fw)
				if err := fw.Takeoff(10); err != nil {
					t.Fatal(err)
				}
				d.fly(fw, 8, nil)
				startMission(t, fw, firmware.LineMission(60, 10))
				d.fly(fw, 18, nil)
				return d
			},
		},
		{
			name: "square-hook-guard",
			want: "862db11c7e4e72995c11f1972ba6fc47443ce1a7df15d36239ddd739ee8b8aaa",
			run: func(t *testing.T) *tickDigest {
				// Identify the guard's detector on a benign flight of the
				// same mission, then fly it with a growing CMD.Roll offset
				// written from the mid-pipeline hook.
				cal := newDigestFirmware(t, 2)
				if err := cal.Takeoff(10); err != nil {
					t.Fatal(err)
				}
				cal.RunFor(8)
				startMission(t, cal, firmware.SquareMission(40, 10))
				calObs := attack.NewCIObserver(cal)
				var trace []defense.CISample
				for i := 0; i < int(18/cal.DT()); i++ {
					cal.Step()
					trace = append(trace, calObs.Sample(cal))
				}
				ci := defense.NewControlInvariants()
				if err := ci.Identify(trace); err != nil {
					t.Fatal(err)
				}
				// A CMD.Roll offset the vehicle tracks stays self-consistent
				// to the monitor (the soundness gap ARES exploits), so a
				// lowered threshold makes the guard engage mid-flight and
				// run its clamps.
				ci.Threshold = 100000
				guard := defense.NewRecoveryGuard(ci)

				fw := newDigestFirmware(t, 3)
				d := newTickDigest(fw)
				refs, err := attack.RecoveryRefsOf(fw)
				if err != nil {
					t.Fatal(err)
				}
				cmdRoll, ok := fw.Vars().Lookup("CMD.Roll")
				if !ok {
					t.Fatal("CMD.Roll not registered")
				}
				offset := 0.0
				fw.SetAttackHook(func() {
					cmdRoll.Add(offset)
					guard.Apply(refs)
				})
				if err := fw.Takeoff(10); err != nil {
					t.Fatal(err)
				}
				d.fly(fw, 8, nil)
				startMission(t, fw, firmware.SquareMission(40, 10))
				d.fly(fw, 18, func(s defense.CISample) {
					if fw.Time() > 12 {
						offset = math.Min(offset+0.0005, 0.6)
					}
					guard.Observe(s, fw.Time())
				})
				if !guard.Engaged() {
					t.Fatal("recovery guard never engaged; the stream does not exercise its clamps")
				}
				return d
			},
		},
		{
			name: "gpsdenied-battfs",
			want: "3c749eb5b3ee2e367d50ae807b3cd2afb67a08213e18ee3c607d7a1a36ccc1f8",
			run: func(t *testing.T) *tickDigest {
				fw := newDigestFirmware(t, 4)
				d := newTickDigest(fw)
				if err := fw.Takeoff(10); err != nil {
					t.Fatal(err)
				}
				d.fly(fw, 8, nil)
				startMission(t, fw, firmware.SquareMission(30, 10))
				d.fly(fw, 2, nil)
				fw.Sensors().SetGPSDenied(true)
				d.fly(fw, 2, nil)
				// A disabled failsafe ignores a threshold above the
				// battery voltage; enabling it lands the vehicle.
				fw.Enqueue(&mavlink.ParamSet{Name: "FS_BATT_ENABLE", Value: 0})
				d.fly(fw, 1, nil)
				fw.Enqueue(&mavlink.ParamSet{Name: "BATT_LOW_VOLT", Value: 49})
				d.fly(fw, 2, nil)
				if fw.Mode() != firmware.ModeAuto {
					t.Fatalf("mode = %v with the battery failsafe disabled, want AUTO", fw.Mode())
				}
				fw.Sensors().SetGPSDenied(false)
				fw.Enqueue(&mavlink.ParamSet{Name: "FS_BATT_ENABLE", Value: 1})
				d.fly(fw, 11, nil)
				if fw.Mode() != firmware.ModeLand {
					t.Fatalf("mode = %v after enabling the battery failsafe, want LAND", fw.Mode())
				}
				for _, m := range fw.DrainOutbox() {
					if pv, ok := m.(*mavlink.ParamValue); !ok || !pv.OK {
						t.Fatalf("PARAM_SET reply %#v", m)
					}
				}
				return d
			},
		},
		{
			name: "reset",
			want: "f03db81e0f9c1377d484efdea82e492cdea1bdd7cefc6ec3bc4f1cee1a0ec5d9",
			run: func(t *testing.T) *tickDigest {
				fw := newDigestFirmware(t, 5)
				d := newTickDigest(fw)
				if err := fw.Takeoff(10); err != nil {
					t.Fatal(err)
				}
				d.fly(fw, 8, nil)
				startMission(t, fw, firmware.LineMission(60, 10))
				d.fly(fw, 6, nil)
				fw.Reset(mathx.V3(3, -2, 0))
				d.record(fw)
				if err := fw.Takeoff(8); err != nil {
					t.Fatal(err)
				}
				d.fly(fw, 8, nil)
				startMission(t, fw, firmware.SquareMission(20, 8))
				d.fly(fw, 4, nil)
				return d
			},
		},
	}
	for _, s := range streams {
		t.Run(s.name, func(t *testing.T) {
			d := s.run(t)
			if got := hex.EncodeToString(d.h.Sum(nil)); got != s.want {
				t.Errorf("digest = %s, want %s", got, s.want)
			}
		})
	}
}

// TestFirmwareStepAllocs gates the AUTO tick of a monitored campaign
// episode, the firmware step plus one CI sample, at zero allocations.
func TestFirmwareStepAllocs(t *testing.T) {
	fw := newDigestFirmware(t, 1)
	if err := fw.Takeoff(10); err != nil {
		t.Fatal(err)
	}
	fw.RunFor(8)
	startMission(t, fw, firmware.LineMission(60, 10))
	fw.RunFor(1)
	obs := attack.NewCIObserver(fw)
	var s defense.CISample
	allocs := testing.AllocsPerRun(800, func() {
		fw.Step()
		s = obs.Sample(fw)
	})
	if allocs != 0 {
		t.Errorf("AUTO tick with a CI sample allocates %v times, want 0 (last sample %+v)", allocs, s)
	}
}
