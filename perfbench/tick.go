package main

import (
	"fmt"
	"math"
	"time"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/control"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/ekf"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/sensors"
	"github.com/ares-cps/ares/internal/sim"
)

// Flight shape of the per-tick measurement: the 8 s takeoff settle every
// RL episode flies, then this much of the mission.
const (
	flightSetupS   = 8
	flightMissionS = 20
)

// timingVehicle is a sim.Vehicle that times each physics step and keeps
// the motor command the firmware sent, so the control replay can be
// checked against it.
type timingVehicle struct {
	sim.Vehicle
	stepNs  int64
	lastCmd [4]float64
}

func (v *timingVehicle) Step(cmd [4]float64, dt float64) {
	start := time.Now()
	v.Vehicle.Step(cmd, dt)
	v.stepNs += int64(time.Since(start))
	v.lastCmd = cmd
}

// tickRec is one recorded firmware tick: the plant state the sensors
// sampled, the guidance inputs, and every sublayer's output.
type tickRec struct {
	now    float64
	state  sim.State
	accel  mathx.Vec3
	batt   sim.Battery
	mode   firmware.Mode
	target mathx.Vec3

	reading          sensors.Reading
	roll, pitch, yaw float64
	vel, pos         mathx.Vec3
	cov              [9]float64
	cmd              [4]float64
}

// tickTotals accumulates sublayer nanoseconds over every flown tick.
type tickTotals struct {
	ticks, fusing                              int
	tick, sim, sensors, predict, fuse, cascade int64
	observe                                    int64
	observed                                   int
	// omitted names sublayers whose replay diverged, with the reason.
	omitted map[string]string
}

// namedMission is one mission the workload flies, with the CI monitor the
// workload calibrated for it (nil when it calibrated none).
type namedMission struct {
	name    string
	mission *firmware.Mission
	ci      *defense.ControlInvariants
}

// flightReps is how many times each mission is flown and replayed; each
// per-tick figure is the median over the repetitions.
const flightReps = 3

// flight is one recorded flight of a mission.
type flight struct {
	recs          []tickRec
	tickNs, simNs int64
	observeNs     int64
	observed      int
	// ciIn and ciOut are the CI monitor's inputs and verdicts in the
	// flight, replayed through a fresh copy of the monitor.
	ciIn  []defense.CISample
	ciOut []defense.Verdict
	att   *control.AttitudeController
	pos   *control.PositionController
	// sensorSeed is the seed the flight's sensor suite was built with.
	sensorSeed int64
}

// fly flies a mission on the production firmware, timing every tick and
// physics step and recording each tick's inputs and outputs.
func fly(nm namedMission, seed int64) (*flight, error) {
	q, err := sim.NewQuad(sim.IRISPlusParams())
	if err != nil {
		return nil, err
	}
	tv := &timingVehicle{Vehicle: q}
	fw, err := attack.NewFirmwareWithPlant(seed, tv)
	if err != nil {
		return nil, err
	}
	// The firmware's controllers carry its parameter table's gains;
	// copy them before the first tick, while their state is pristine.
	f := &flight{att: copyAttitude(fw.Attitude()), pos: copyPosition(fw.Position()), sensorSeed: seed}
	home := fw.Quad().State().Pos
	alt := -nm.mission.Target().Z
	if err := fw.Takeoff(alt); err != nil {
		return nil, err
	}
	guided := mathx.V3(home.X, home.Y, -alt)
	var obs *attack.CIObserver
	var ci *defense.ControlInvariants
	if nm.ci != nil {
		obs, ci = attack.NewCIObserver(fw), nm.ci.Clone()
	}
	setupTicks := int(flightSetupS / fw.DT())
	total := setupTicks + int(flightMissionS/fw.DT())
	f.recs = make([]tickRec, 0, total)
	for i := 0; i < total; i++ {
		if i == setupTicks {
			wps := make([]firmware.Waypoint, 0, nm.mission.Len())
			for _, p := range nm.mission.Path() {
				wps = append(wps, firmware.Waypoint{Pos: p})
			}
			fw.LoadMission(firmware.NewMission(wps))
			if err := fw.StartMission(); err != nil {
				return nil, err
			}
		}
		if !fw.Armed() {
			return nil, fmt.Errorf("flight %s: disarmed at tick %d", nm.name, i)
		}
		p := fw.Quad()
		rec := tickRec{now: p.Time(), state: p.State(), accel: p.LastAccel(), batt: p.Battery(), mode: fw.Mode(), target: guided}
		if rec.mode == firmware.ModeAuto {
			rec.target = fw.Mission().Target()
		}
		start := time.Now() //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
		fw.Step()
		f.tickNs += int64(time.Since(start))
		rec.reading = fw.LastReading()
		est := fw.EKF()
		rec.roll, rec.pitch, rec.yaw = est.Attitude()
		rec.vel, rec.pos, rec.cov = est.Velocity(), est.Position(), est.Covariance()
		rec.cmd = tv.lastCmd
		f.recs = append(f.recs, rec)
		if obs != nil && i >= setupTicks {
			s := obs.Sample(fw)
			f.ciIn = append(f.ciIn, s)
			f.ciOut = append(f.ciOut, ci.Observe(s))
		}
	}
	if crashed, reason := fw.Quad().Crashed(); crashed {
		return nil, fmt.Errorf("flight %s crashed: %s", nm.name, reason)
	}
	f.simNs = tv.stepNs
	return f, nil
}

// replayObserve feeds the flight's monitor inputs through a fresh copy of
// the monitor in one timed loop (one Observe takes about as long as a
// clock read, so timing each call would measure the clock) and checks
// that every verdict matches the flight's bit for bit. It returns the
// first differing verdict's index, or -1.
func (f *flight) replayObserve(ci *defense.ControlInvariants) int {
	out := make([]defense.Verdict, len(f.ciIn))
	start := time.Now() //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
	for k, s := range f.ciIn {
		out[k] = ci.Observe(s)
	}
	f.observeNs = int64(time.Since(start))
	f.observed = len(f.ciIn)
	for k, v := range out {
		w := f.ciOut[k]
		if v.Alarm != w.Alarm || math.Float64bits(v.Stat) != math.Float64bits(w.Stat) {
			return k
		}
	}
	return -1
}

// flyTicks flies a mission flightReps times, replays each flight through
// fresh sublayer instances, and adds the median of each figure to tot. A
// replay whose outputs differ from the flight's marks its sublayer
// omitted.
func flyTicks(tot *tickTotals, nm namedMission, seed int64) error {
	var tick, simNs, sens, pred, fuse, casc, observe sample
	var ticks, observed, fusing int
	for r := 0; r < flightReps; r++ {
		f, err := fly(nm, seed) //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
		if err != nil {
			return err
		}
		ticks = len(f.recs)
		tick = append(tick, float64(f.tickNs))
		simNs = append(simNs, float64(f.simNs))
		rp := replay(f) //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
		if nm.ci != nil {
			if k := f.replayObserve(nm.ci.Clone()); k >= 0 { //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
				if rp.diverged == nil {
					rp.diverged = make(map[string]int)
				}
				rp.diverged["defense.observe_ns"] = k
			}
		}
		observed = f.observed
		observe = append(observe, float64(f.observeNs))
		for layer, k := range rp.diverged {
			if tot.omitted == nil {
				tot.omitted = make(map[string]string)
			}
			if _, ok := tot.omitted[layer]; !ok {
				tot.omitted[layer] = fmt.Sprintf("%s: replayed output diverged at tick %d", nm.name, k)
			}
		}
		sens = append(sens, float64(rp.sensors))
		pred = append(pred, float64(rp.predict))
		fuse = append(fuse, float64(rp.fuse))
		casc = append(casc, float64(rp.cascade))
		fusing = rp.fusing
	}
	med := func(s sample) int64 { return int64(s.median()) }
	tot.ticks += ticks
	tot.fusing += fusing
	tot.tick += med(tick)
	tot.sim += med(simNs)
	tot.sensors += med(sens)
	tot.predict += med(pred)
	tot.fuse += med(fuse)
	tot.cascade += med(casc)
	tot.observe += med(observe)
	tot.observed += observed
	return nil
}

// ekfFuseEvery is the firmware's aiding cadence: gravity, baro and mag are
// fused on its 16 Hz logging ticks (400 Hz / 25).
const ekfFuseEvery = 25

// replayed holds one replay's sublayer times (ns, summed over the ticks)
// and, per sublayer key, the first tick whose output differed.
type replayed struct {
	sensors, predict, fuse, cascade int64
	// fusing counts the ticks that fused a measurement.
	fusing   int
	diverged map[string]int
}

// replay feeds a flight's recorded plant states through a fresh sensor
// suite, the readings through a fresh estimator, and the estimates
// through copies of the flight's controllers and a fresh mixer, tick by
// tick in the firmware's order, reading the clock between the stages
// (each stage's time includes one clock read). Every output is then
// compared with the flight's.
func replay(f *flight) replayed {
	cfg := sensors.DefaultConfig()
	cfg.Seed = f.sensorSeed
	suite := sensors.NewSuite(cfg)
	e := ekf.New(ekf.DefaultConfig())
	att, pos := f.att, f.pos
	var mix control.Mixer
	dt := 1.0 / 400
	type out struct {
		reading          sensors.Reading
		roll, pitch, yaw float64
		vel, pos         mathx.Vec3
		cov              [9]float64
		cmd              [4]float64
	}
	outs := make([]out, len(f.recs))
	var rp replayed
	// The firmware faces the direction of travel once the target is more
	// than 1 m away in auto mode; the yaw set-point is its own state.
	desYaw := 0.0
	for i := range f.recs {
		r := &f.recs[i]
		o := &outs[i]
		t0 := time.Now()
		o.reading = suite.Sample(r.now, r.state, r.accel, r.batt)
		t1 := time.Now()
		rd := &o.reading
		e.Predict(rd.IMU.Gyro, rd.IMU.Accel, dt)
		t2 := time.Now()
		t3 := t2
		if i%ekfFuseEvery == 0 || rd.GPSFresh {
			if i%ekfFuseEvery == 0 {
				e.FuseGravity(rd.IMU.Accel)
				e.FuseBaro(rd.BaroAlt)
				e.FuseMag(rd.MagYaw)
			}
			if rd.GPSFresh {
				e.FuseGPS(rd.GPS.Pos, rd.GPS.Vel)
			}
			t3 = time.Now()
			rp.fusing++
		}
		o.roll, o.pitch, o.yaw = e.Attitude()
		o.vel, o.pos = e.Velocity(), e.Position()
		if r.mode == firmware.ModeAuto {
			if d := r.target.Sub(o.pos); d.XY() > 1.0 {
				desYaw = math.Atan2(d.Y, d.X)
			}
		}
		t4 := time.Now()
		cr, cp, ct := pos.Update(r.target, o.pos, o.vel, o.yaw)
		tr, tp, ty := att.Update(cr, cp, desYaw, o.roll, o.pitch, o.yaw, rd.IMU.Gyro)
		o.cmd = mix.Mix(ct, tr, tp, ty)
		t5 := time.Now()
		o.cov = e.Covariance()
		rp.sensors += int64(t1.Sub(t0))
		rp.predict += int64(t2.Sub(t1))
		rp.fuse += int64(t3.Sub(t2))
		rp.cascade += int64(t5.Sub(t4))
	}
	first := func(key string, differs func(o *out, r *tickRec) bool) {
		for i := range outs {
			if differs(&outs[i], &f.recs[i]) {
				if rp.diverged == nil {
					rp.diverged = make(map[string]int)
				}
				rp.diverged[key] = i
				return
			}
		}
	}
	first("sensors.sample_ns", func(o *out, r *tickRec) bool { return o.reading != r.reading })
	first("ekf", func(o *out, r *tickRec) bool {
		return o.roll != r.roll || o.pitch != r.pitch || o.yaw != r.yaw ||
			o.vel != r.vel || o.pos != r.pos || o.cov != r.cov
	})
	first("control.cascade_ns", func(o *out, r *tickRec) bool { return o.cmd != r.cmd })
	return rp
}

// copyAttitude returns an independent copy of an attitude controller.
func copyAttitude(live *control.AttitudeController) *control.AttitudeController {
	c := *live
	ar, ap, ay := *live.AngleRoll, *live.AnglePitch, *live.AngleYaw
	rr, rp, ry := *live.RateRoll, *live.RatePitch, *live.RateYaw
	c.AngleRoll, c.AnglePitch, c.AngleYaw = &ar, &ap, &ay
	c.RateRoll, c.RatePitch, c.RateYaw = &rr, &rp, &ry
	return &c
}

// copyPosition returns an independent copy of a position controller.
func copyPosition(live *control.PositionController) *control.PositionController {
	c := *live
	pxy, pz := *live.PosXY, *live.PosZ
	vx, vy, vz := *live.VelX, *live.VelY, *live.VelZ
	c.PosXY, c.PosZ = &pxy, &pz
	c.VelX, c.VelY, c.VelZ = &vx, &vy, &vz
	return &c
}

// clockCost measures the cost of one time.Now call: the median over
// batches of back-to-back calls. A timed interval t1−t0 contains about
// one call's cost, which the per-tick figures subtract, so that the
// sublayers (a few hundred ns each) are not inflated by the clock.
func clockCost() float64 {
	const batch = 1000
	var per sample
	for b := 0; b < 51; b++ {
		start := time.Now()
		for i := 0; i < batch; i++ {
			_ = time.Now()
		}
		per = append(per, float64(time.Since(start))/batch)
	}
	return per.median()
}

// reportTicks sets the per-tick metrics. A sublayer whose replay diverged
// is reported as 0 with the reason, and firmware.other_ns is then omitted
// too, since it is the tick minus the sublayers.
func reportTicks(rep *report, tot *tickTotals, missions []namedMission) {
	if tot.ticks == 0 {
		return
	}
	n := float64(tot.ticks)
	names := make([]string, len(missions))
	for i, m := range missions {
		names[i] = m.name
	}
	// Per tick, minus the clock reads inside each interval: the tick
	// interval holds its own and the two of the sim timing, every other
	// interval one.
	c := clockCost()
	per := func(ns int64, reads float64) float64 { return float64(ns)/n - reads*c }
	rep.set("firmware.tick_ns", per(tot.tick, 3), "ns", tot.ticks,
		fmt.Sprintf("per tick over %v; clock reads (%.0f ns each) subtracted from every figure", names, c))
	rep.set("sim.step_ns", per(tot.sim, 1), "ns", tot.ticks, "timing sim.Vehicle inside the tick")
	layers := []struct {
		name, key string
		ns        int64
		reads     float64 // timed intervals per tick
	}{
		{"sensors.sample_ns", "sensors.sample_ns", tot.sensors, 1},
		{"ekf.predict_ns", "ekf", tot.predict, 1},
		{"ekf.fuse_ns", "ekf", tot.fuse, float64(tot.fusing) / n},
		{"control.cascade_ns", "control.cascade_ns", tot.cascade, 1},
	}
	other := per(tot.tick, 3) - per(tot.sim, 1)
	complete := true
	for _, l := range layers {
		if why, bad := tot.omitted[l.key]; bad {
			rep.set(l.name, 0, "ns", 0, "omitted: "+why)
			complete = false
			continue
		}
		v := per(l.ns, l.reads)
		rep.set(l.name, v, "ns", tot.ticks, "replayed, outputs bit-identical")
		other -= v
	}
	if complete {
		rep.set("firmware.other_ns", other, "ns", tot.ticks, "tick minus sim, sensors, ekf and control")
	} else {
		rep.set("firmware.other_ns", 0, "ns", 0, "omitted: a sublayer replay diverged")
	}
	if why, bad := tot.omitted["defense.observe_ns"]; bad {
		rep.set("defense.observe_ns", 0, "ns", 0, "omitted: "+why)
	} else if tot.observed > 0 {
		rep.set("defense.observe_ns", float64(tot.observe)/float64(tot.observed), "ns", tot.observed, "CI monitor Observe per tick, replayed in one timed loop, verdicts bit-identical")
	}
}

// flyMissions flies each mission once and reports the per-tick metrics.
func flyMissions(rep *report, missions []namedMission, seed int64) error {
	var tot tickTotals
	for i, m := range missions {
		//areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
		if err := flyTicks(&tot, m, mathx.DeriveSeed(flightSeed(seed), int64(i))); err != nil {
			return err
		}
	}
	reportTicks(rep, &tot, missions) //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
	return nil
}

// jobMissions lists the distinct missions of a job list in order, each
// with the monitor the re-execution calibrated for it.
func jobMissions(jobs []campaign.Job, x *reexec) ([]namedMission, error) {
	var out []namedMission
	seen := make(map[string]bool)
	for _, j := range jobs {
		name := j.Mission.Name()
		if seen[name] {
			continue
		}
		seen[name] = true
		m, err := j.Mission.Build()
		if err != nil {
			return nil, err
		}
		out = append(out, namedMission{name: name, mission: m, ci: x.calibrated(name)})
	}
	return out, nil
}
