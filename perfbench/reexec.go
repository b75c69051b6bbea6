package main

import (
	"context"
	"fmt"
	"math"
	"strings"
	"sync"

	"github.com/ares-cps/ares/internal/attack"
	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/defense"
	"github.com/ares-cps/ares/internal/firmware"
	"github.com/ares-cps/ares/internal/mathx"
	"github.com/ares-cps/ares/internal/rl"
	"github.com/ares-cps/ares/internal/sim"
)

// reexec re-executes campaign jobs through public calls only —
// core.NewDeviationEnv/NewCrashEnv behind a timing rl.Env, rl.Reinforce
// Train and rl.Rollout, attack.RunSession and attack.CalibrateMonitors —
// so the core, rl and attack layers can be timed from outside the
// program. It composes the calls the way campaign's built-in executor
// does; its Metrics must equal the production records exactly, which is
// what shows the timings belong to the same work.
type reexec struct {
	tr *tracer
	// calibSeed is the seed the program calibrated a job's mission
	// monitor with.
	calibSeed func(campaign.Job) int64

	mu       sync.Mutex
	monitors map[string]*monEntry
	// Episode accounting over every wrapped environment.
	episodes, earlyDone int
	simSeconds          float64
}

type monEntry struct {
	once sync.Once
	ci   *defense.ControlInvariants
	err  error
}

// Seed streams of campaign's executor, which the re-execution must mirror.
const (
	jobStreamEnv int64 = iota + 1
	jobStreamPolicy
)

func newReexec(tr *tracer, calibSeed func(campaign.Job) int64) *reexec {
	return &reexec{tr: tr, calibSeed: calibSeed, monitors: make(map[string]*monEntry)}
}

// campaignCalibrationSeed is the seed campaign calibrates a mission's
// monitors with for a campaign base seed.
func campaignCalibrationSeed(base int64, mission string) int64 {
	return mathx.DeriveSeed(base, campaign.StreamOf("calibrate/"+mission))
}

// monitor returns a clone of the mission's calibrated CI monitor,
// calibrating it on first use.
func (x *reexec) monitor(job campaign.Job, parent int) (*defense.ControlInvariants, error) {
	name := job.Mission.Name()
	x.mu.Lock()
	ent, ok := x.monitors[name]
	if !ok {
		ent = &monEntry{}
		x.monitors[name] = ent
	}
	x.mu.Unlock()
	ent.once.Do(func() {
		m, err := job.Mission.Build()
		if err != nil {
			ent.err = err
			return
		}
		i := x.tr.begin("attack.calibrate", parent, name)
		ent.ci, _, ent.err = attack.CalibrateMonitors(m, x.calibSeed(job))
		x.tr.end(i)
	})
	if ent.err != nil {
		return nil, fmt.Errorf("calibrate %s: %w", name, ent.err)
	}
	return ent.ci.Clone(), nil
}

// calibrated returns a clone of a mission's monitor if one was calibrated.
func (x *reexec) calibrated(mission string) *defense.ControlInvariants {
	x.mu.Lock()
	defer x.mu.Unlock()
	if ent, ok := x.monitors[mission]; ok && ent.ci != nil {
		return ent.ci.Clone()
	}
	return nil
}

// recordsFor returns, for each job, the metrics of the record with its
// key (nil when there is none).
func recordsFor(jobs []campaign.Job, recs []campaign.Record) []*campaign.Metrics {
	byKey := make(map[string]*campaign.Metrics, len(recs))
	for _, r := range recs {
		byKey[r.Key] = r.Metrics
	}
	out := make([]*campaign.Metrics, len(jobs))
	for i, j := range jobs {
		out[i] = byKey[j.Key]
	}
	return out
}

// runAll re-executes jobs on a pool of workers and compares each job's
// metrics with the production record's, want[i].
func (x *reexec) runAll(rep *report, jobs []campaign.Job, want []*campaign.Metrics, workers int) error {
	got := make([]campaign.Metrics, len(jobs))
	errs := make([]error, len(jobs))
	err := campaign.ForEach(context.Background(), workers, len(jobs), func(i int) error {
		root := x.tr.begin("reexec.job", -1, jobs[i].Key)
		got[i], errs[i] = x.run(jobs[i], root)
		x.tr.end(root)
		return nil
	})
	if err != nil {
		return err
	}
	for i, j := range jobs {
		rep.attempted++
		if errs[i] != nil {
			rep.failed++
			rep.wrong("re-executed job %s: %v", j.Key, errs[i])
			continue
		}
		if w := want[i]; w == nil || *w != got[i] {
			rep.failed++
			rep.wrong("re-executed job %s: metrics %+v differ from the production record %+v", j.Key, got[i], w)
		}
	}
	return nil
}

// run executes one job and returns its campaign metrics.
func (x *reexec) run(job campaign.Job, parent int) (campaign.Metrics, error) {
	mission, err := job.Mission.Build()
	if err != nil {
		return campaign.Metrics{}, err
	}
	if job.Attack == campaign.AttackStealthy {
		return x.stealthy(job, mission, parent)
	}
	if job.Learner != "" && job.Learner != "reinforce" {
		return campaign.Metrics{}, fmt.Errorf("learner %q is not re-executed", job.Learner)
	}
	envCfg := core.EnvConfig{
		Variable:  job.Variable,
		Mission:   mission,
		MaxAction: job.MaxAction,
		Seed:      mathx.DeriveSeed(job.Seed, jobStreamEnv),
		PerTick:   strings.HasPrefix(job.Variable, "CMD."),
	}
	var guard *defense.RecoveryGuard
	switch job.Defense {
	case campaign.DefenseCI:
		if envCfg.Detector, err = x.monitor(job, parent); err != nil {
			return campaign.Metrics{}, err
		}
	case campaign.DefenseRecovery:
		det, err := x.monitor(job, parent)
		if err != nil {
			return campaign.Metrics{}, err
		}
		guard = defense.NewRecoveryGuard(det)
		envCfg.Recovery = guard
	}
	episodes, maxSteps := job.Episodes, job.MaxSteps
	if episodes <= 0 {
		episodes = 60
	}
	if maxSteps <= 0 {
		maxSteps = 100
	}
	policySeed := mathx.DeriveSeed(job.Seed, jobStreamPolicy)

	var env interface {
		rl.Env
		Firmware() *firmware.Firmware
	}
	var crashEnv *core.CrashEnv
	var devEnv *core.DeviationEnv
	switch job.Goal {
	case campaign.GoalDeviation:
		if devEnv, err = core.NewDeviationEnv(envCfg); err != nil {
			return campaign.Metrics{}, err
		}
		env = devEnv
	case campaign.GoalCrash:
		if envCfg.MaxAction == 0 {
			envCfg.MaxAction = 0.6
		}
		if crashEnv, err = core.NewCrashEnv(envCfg, crashZone(job.Mission)); err != nil {
			return campaign.Metrics{}, err
		}
		env = crashEnv
	default:
		return campaign.Metrics{}, fmt.Errorf("unknown goal %q", job.Goal)
	}

	lo, hi := env.ActionBounds()
	agent := rl.NewReinforce(env.ObservationSize(), lo, hi, policySeed)
	ti := x.tr.begin("rl.train", parent, job.Key)
	w := &timedEnv{Env: env, fw: env.Firmware, x: x, parent: ti, id: job.Key}
	train := agent.Train(w, episodes, maxSteps)
	x.tr.end(ti)
	ri := x.tr.begin("rl.rollout", parent, job.Key)
	w.parent = ri
	ep := rl.Rollout(w, agent.Policy.Mean, maxSteps)
	x.tr.end(ri)
	w.finish()

	crashed, reason := env.Firmware().Quad().Crashed()
	m := campaign.Metrics{
		Return:     finiteReturn(ep.Return),
		BestReturn: finiteReturn(train.BestReturn),
		Crashed:    crashed,
		Recovered:  guard != nil && guard.Engaged(),
	}
	if devEnv != nil {
		m.Deviation = devEnv.PathDistance()
		m.Detected = devEnv.Alarmed()
		m.Success = (m.Deviation >= job.SuccessDeviation || crashed) && !m.Detected
		return m, nil
	}
	m.Deviation = crashEnv.GoalDistance()
	m.GoalReached = crashed && strings.Contains(reason, zoneName)
	switch {
	case guard != nil:
		// The guard engages on the detector's first alarm.
		m.Detected = guard.Engaged()
	case envCfg.Detector != nil:
		// An alarm ends the episode with the −∞ reward of Equation 5.
		m.Detected = w.negInf
	}
	m.Success = m.GoalReached && !m.Detected
	return m, nil
}

// stealthy runs one stealthy-injection cell as a single session flight.
func (x *reexec) stealthy(job campaign.Job, mission *firmware.Mission, parent int) (campaign.Metrics, error) {
	shadow, err := x.monitor(job, parent)
	if err != nil {
		return campaign.Metrics{}, err
	}
	maxSteps := job.MaxSteps
	if maxSteps <= 0 {
		maxSteps = 100
	}
	cfg := attack.SessionConfig{
		Mission:     mission,
		Strategy:    &attack.StealthyAttack{Variable: job.Variable, Shadow: shadow, Cap: job.MaxAction},
		AttackStart: 2,
		Duration:    float64(maxSteps) * 0.3,
		Seed:        mathx.DeriveSeed(job.Seed, jobStreamEnv),
	}
	switch job.Defense {
	case campaign.DefenseCI:
		if cfg.CI, err = x.monitor(job, parent); err != nil {
			return campaign.Metrics{}, err
		}
	case campaign.DefenseRecovery:
		det, err := x.monitor(job, parent)
		if err != nil {
			return campaign.Metrics{}, err
		}
		cfg.Recovery = defense.NewRecoveryGuard(det)
	}
	i := x.tr.begin("attack.session", parent, job.Key)
	res, err := attack.RunSession(cfg)
	x.tr.end(i)
	if err != nil {
		return campaign.Metrics{}, err
	}
	m := campaign.Metrics{
		Deviation: res.MaxPathDev,
		Detected:  res.Detected(),
		Crashed:   res.Crashed,
		Recovered: res.Recovered,
	}
	m.Success = (res.MaxPathDev >= job.SuccessDeviation || res.Crashed) && !m.Detected
	return m, nil
}

// finiteReturn clamps infinite returns as campaign records store them.
func finiteReturn(v float64) float64 {
	switch {
	case math.IsInf(v, 1):
		return math.MaxFloat64
	case math.IsInf(v, -1):
		return -math.MaxFloat64
	case math.IsNaN(v):
		return 0
	}
	return v
}

const zoneName = "forbidden-zone"

// crashZone is the forbidden zone campaign places beside a mission's
// final leg for crash-goal cells.
func crashZone(m campaign.MissionSpec) sim.Obstacle {
	end := m.Size
	return sim.Obstacle{
		Name: zoneName,
		Box: mathx.AABB{
			Min: mathx.Vec3{X: end - 5, Y: 8, Z: -2 * m.Alt},
			Max: mathx.Vec3{X: end + 5, Y: 12, Z: 0},
		},
	}
}

// timedEnv wraps an attack environment, recording a span per Reset (the
// takeoff re-flight) and per Step, and counting episodes, early
// terminations and simulated seconds.
type timedEnv struct {
	rl.Env
	fw     func() *firmware.Firmware
	x      *reexec
	parent int
	id     string

	started, done, negInf bool
	lastSim               float64
}

func (e *timedEnv) Reset() []float64 {
	e.finish()
	i := e.x.tr.begin("core.reset", e.parent, e.id)
	obs := e.Env.Reset()
	e.x.tr.end(i)
	e.started, e.done, e.negInf = true, false, false
	e.lastSim = e.fw().Time()
	return obs
}

func (e *timedEnv) Step(a float64) ([]float64, float64, bool) {
	i := e.x.tr.begin("core.step", e.parent, e.id)
	obs, r, done := e.Env.Step(a)
	e.x.tr.end(i)
	e.lastSim = e.fw().Time()
	if math.IsInf(r, -1) {
		e.negInf = true
	}
	e.done = e.done || done
	return obs, r, done
}

// finish accounts the episode in progress, if any.
func (e *timedEnv) finish() {
	if !e.started {
		return
	}
	e.x.mu.Lock()
	e.x.episodes++
	if e.done {
		e.x.earlyDone++
	}
	e.x.simSeconds += e.lastSim
	e.x.mu.Unlock()
	e.started = false
}

// report sets the core, rl, attack and firmware-work metrics.
func (x *reexec) report(rep *report) {
	by := sumByName(x.tr.snapshot())
	reset, step := by["core.reset"], by["core.step"]
	if reset == nil || step == nil {
		return
	}
	host := (reset.total + step.total).Seconds()
	rep.set("core.reset_ms", meanMs(by, "core.reset"), "ms", reset.n, "takeoff re-flight + mission start per episode")
	rep.set("core.resets", float64(reset.n), "count", 0, "")
	rep.set("core.step_us", step.total.Seconds()*1e6/float64(step.n), "us", step.n, "one 0.3 s action interval")
	rep.set("core.steps", float64(step.n), "count", 0, "")
	rep.set("core.warmup_share", reset.total.Seconds()/host, "ratio", 0, "reset host time ÷ (reset + step)")
	x.mu.Lock()
	episodes, early, simS := x.episodes, x.earlyDone, x.simSeconds
	x.mu.Unlock()
	if episodes > 0 {
		rep.set("core.early_done_ratio", float64(early)/float64(episodes), "ratio", episodes, "episodes ended by done before max steps")
	}
	rep.set("rl.episodes", float64(episodes), "count", 0, "training + evaluation rollouts")
	if lt := by["rl.train"]; lt != nil {
		rep.set("rl.learner_self_ms", lt.own.Seconds()*1e3/float64(lt.n), "ms", lt.n,
			"per job: Train minus the environment's Reset/Step")
	}
	if lt := by["attack.calibrate"]; lt != nil {
		rep.set("attack.calibrate_ms", meanMs(by, "attack.calibrate"), "ms", lt.n, "per mission")
	}
	if lt := by["attack.session"]; lt != nil {
		rep.set("attack.session_ms", meanMs(by, "attack.session"), "ms", lt.n, "")
	}
	rep.set("firmware.ticks", math.Round(simS*400), "count", 0, "400 Hz ticks flown in the re-executed RL environments")
	rep.set("firmware.sim_s_per_host_s", simS/host, "s/s", 0, "simulated ÷ host seconds in environment Reset/Step")
}
