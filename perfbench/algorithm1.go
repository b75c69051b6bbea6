package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"io"
	"math"
	"reflect"
	"sort"
	"time"

	"github.com/ares-cps/ares"
	"github.com/ares-cps/ares/internal/core"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/stats"
)

// pipelineConfig is the Profile + Analyze configuration of one pipeline.
func pipelineConfig(seed int64) ares.Config {
	return ares.Config{Mission: ares.SquareMission(pipelineSide, pipelineAlt), Seed: seed}
}

// pipelineDigest digests a pipeline's whole output: for every group and
// then the roll analysis, the profile series the analysis read (names,
// samples and missing variables) and every field of the analysis itself —
// counts, ratio, TSVL and the complete Algorithm 1 report (prune
// statistics, correlations, dendrogram merges, clusters and fitted
// models). Floats enter by their bit patterns, so a change to any
// simulated or statistical number shows, not only a change of the lists.
func pipelineDigest(prof *core.Profile, groups []*core.GroupAnalysis, roll *core.RollAnalysis) (string, error) {
	h := sha256.New()
	w := bufio.NewWriter(h)
	for _, g := range groups {
		names, series, missing := prof.SeriesFor(g.Group.ESVL())
		if err := canonical(w, reflect.ValueOf([]any{names, series, missing, g})); err != nil {
			return "", err
		}
	}
	names, series, missing := prof.SeriesFor(core.RollESVL())
	if err := canonical(w, reflect.ValueOf([]any{names, series, missing, roll})); err != nil {
		return "", err
	}
	if err := w.Flush(); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// canonical writes an unambiguous encoding of v: lengths before contents,
// a nil marker for pointers, interfaces and slices, struct fields
// (unexported ones too) in declaration order, map entries in key order
// and floats as their IEEE-754 bits.
func canonical(w *bufio.Writer, v reflect.Value) error {
	var b [8]byte
	u64 := func(x uint64) {
		binary.LittleEndian.PutUint64(b[:], x)
		w.Write(b[:])
	}
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			u64(1)
		} else {
			u64(0)
		}
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		u64(uint64(v.Int()))
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		u64(v.Uint())
	case reflect.Float32, reflect.Float64:
		u64(math.Float64bits(v.Float()))
	case reflect.String:
		u64(uint64(v.Len()))
		w.WriteString(v.String())
	case reflect.Pointer, reflect.Interface:
		if v.IsNil() {
			u64(0)
			return nil
		}
		u64(1)
		return canonical(w, v.Elem())
	case reflect.Slice, reflect.Array:
		if v.Kind() == reflect.Slice && v.IsNil() {
			u64(0)
			return nil
		}
		u64(uint64(v.Len()) + 1)
		if v.Type().Elem().Kind() == reflect.Float64 {
			for i := 0; i < v.Len(); i++ {
				u64(math.Float64bits(v.Index(i).Float()))
			}
			return nil
		}
		for i := 0; i < v.Len(); i++ {
			if err := canonical(w, v.Index(i)); err != nil {
				return err
			}
		}
	case reflect.Map:
		if v.Type().Key().Kind() != reflect.String {
			return fmt.Errorf("canonical: map key type %s", v.Type().Key())
		}
		keys := v.MapKeys()
		sort.Slice(keys, func(i, j int) bool { return keys[i].String() < keys[j].String() })
		u64(uint64(len(keys)))
		for _, k := range keys {
			if err := canonical(w, k); err != nil {
				return err
			}
			if err := canonical(w, v.MapIndex(k)); err != nil {
				return err
			}
		}
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if err := canonical(w, v.Field(i)); err != nil {
				return err
			}
		}
	default:
		return fmt.Errorf("canonical: unsupported kind %s", v.Kind())
	}
	return nil
}

// runPipeline runs one pipeline through the public ares.Pipeline and
// returns its wall time (Profile start to TSVL) and output digest.
func runPipeline(seed int64) (time.Duration, string, error) {
	start := time.Now() //areslint:ignore dettaint benchmark timing: the clock measures the seeded work and never feeds it
	p := ares.NewPipeline(pipelineConfig(seed))
	if err := p.Profile(); err != nil {
		return 0, "", err
	}
	if err := p.Analyze(); err != nil {
		return 0, "", err
	}
	_ = p.TSVL()
	wall := time.Since(start)
	d, err := pipelineDigest(p.ProfileData(), p.Groups(), p.Roll())
	return wall, d, err
}

// checkPipeline compares one pipeline's digest with its reference.
func checkPipeline(rep *report, rf *refs, seed int64, d string) error {
	rep.attempted++
	ok, err := check(rf.Algorithm1, key(seed), d)
	if err != nil {
		return err
	}
	if !ok {
		rep.failed++
		rep.wrong("pipeline seed %d: output digest %s (profile series and analyses) differs from the reference", seed, d)
	}
	return nil
}

// algorithm1Setup runs one pipeline with a single profiling flight,
// Profile then Analyze, so that the first timed pipeline does not also
// pay for cold code and heap.
func algorithm1Setup(seed int64) error {
	cfg := pipelineConfig(seed)
	cfg.Missions = 1
	p := ares.NewPipeline(cfg)
	if err := p.Profile(); err != nil {
		return err
	}
	return p.Analyze()
}

func measureAlgorithm1(cfg *config) (*report, error) {
	rep := newReport()
	order := pipelineOrder(cfg.seed)
	setup, err := medianSetup(setupReps, func(bool) (func() error, error) {
		return nil, algorithm1Setup(order[0])
	})
	if err != nil {
		return nil, err
	}
	var walls sample
	var busy time.Duration
	start := time.Now()
	// Whole passes only, and another pass only when it fits the measured
	// time: every run covers the same seed set, so the median does not
	// depend on where a pass was cut.
	for pass, last := 0, time.Duration(0); pass == 0 || time.Since(start)+last <= cfg.seconds; pass++ {
		passStart := time.Now()
		for _, seed := range order {
			wall, d, err := runPipeline(seed)
			if err != nil {
				return nil, err
			}
			if err := checkPipeline(rep, cfg.refs, seed, d); err != nil {
				return nil, err
			}
			walls = append(walls, wall.Seconds()*1e3)
			busy += wall
		}
		last = time.Since(passStart)
	}
	rep.set("setup_s", setup, "s", setupReps, "median of set-ups")
	rep.set("ops_per_s", float64(len(walls)-rep.failed)/busy.Seconds(), "1/s", len(walls), "correct pipelines per host second")
	rep.set("op_p50_ms", walls.median(), "ms", len(walls), "pipeline wall time, Profile start to TSVL")
	if p90, ok := walls.tail(0.9); ok {
		rep.note("pipeline p90 %.1f ms", p90)
	} else {
		rep.note("pipeline p90 not reported: %d samples, fewer than %d beyond it", len(walls), minBeyond)
	}
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "")
	return rep, nil
}

// traceK is how many pipelines the traced run times and replays.
const traceK = 4

func traceAlgorithm1(cfg *config) (*report, error) {
	rep := newReport()
	seeds := pipelineOrder(cfg.seed)[:traceK]
	if err := algorithm1Setup(seeds[0]); err != nil {
		return nil, err
	}

	// Untraced pipelines: the overhead baseline and the runtime figures.
	var plain sample
	rt0 := readRuntime()
	for _, seed := range seeds {
		wall, d, err := runPipeline(seed)
		if err != nil {
			return nil, err
		}
		if err := checkPipeline(rep, cfg.refs, seed, d); err != nil {
			return nil, err
		}
		plain = append(plain, wall.Seconds())
	}
	rt := readRuntime().since(rt0)
	rep.set("runtime.alloc_mb_per_op", rt.allocBytes/1e6/float64(len(seeds)), "MB", len(seeds), "per pipeline")
	rep.set("runtime.gc_cpu_frac", rt.gcFrac(), "ratio", 0, "")

	// Traced pipelines: the same calls ares.Pipeline makes, one span each.
	tr := newTracer()
	type kept struct {
		prof   *core.Profile
		groups []*core.GroupAnalysis
		roll   *core.RollAnalysis
	}
	var keep []kept
	for _, seed := range seeds {
		c := pipelineConfig(seed)
		id := key(seed)
		root := tr.begin("core.pipeline", -1, id)
		i := tr.begin("core.profile", root, id)
		prof, err := core.CollectProfile(core.ProfileConfig{Mission: c.Mission, Missions: 5, Seed: seed})
		tr.end(i)
		if err != nil {
			return nil, err
		}
		i = tr.begin("core.analyze_groups", root, id)
		groups, err := core.AnalyzeAllGroups(prof, c.Analysis)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		i = tr.begin("core.analyze_roll", root, id)
		roll, err := core.AnalyzeRoll(prof, c.Analysis)
		tr.end(i)
		if err != nil {
			return nil, err
		}
		tr.end(root)
		d, err := pipelineDigest(prof, groups, roll)
		if err != nil {
			return nil, err
		}
		if err := checkPipeline(rep, cfg.refs, seed, d); err != nil {
			return nil, err
		}
		keep = append(keep, kept{prof, groups, roll})
	}
	by := sumByName(tr.snapshot())
	traced := by["core.pipeline"].total.Seconds() / float64(by["core.pipeline"].n)
	rep.set("trace.overhead_frac", overhead(traced, plain.mean()), "ratio", len(seeds), "traced/untraced mean pipeline wall − 1")
	rep.set("core.profile_ms", meanMs(by, "core.profile"), "ms", by["core.profile"].n, "5 benign flights, 50 m square")
	rep.set("core.analyze_groups_ms", meanMs(by, "core.analyze_groups"), "ms", by["core.analyze_groups"].n, "")
	rep.set("core.analyze_roll_ms", meanMs(by, "core.analyze_roll"), "ms", by["core.analyze_roll"].n, "")

	// Replay every analysis stage by stage through the public stats
	// entry points and check each TSVL against the pipeline's.
	var st stageTimes
	for _, k := range keep {
		groupWorkers := par.Inner(0, min(par.Workers(0), len(k.groups)))
		for _, g := range k.groups {
			names, series, _ := k.prof.SeriesFor(g.Group.ESVL())
			got, err := replayTSVL(names, series, g.Group.Responses, groupWorkers, &st)
			if err != nil {
				return nil, err
			}
			if !equalStrings(got, g.TSVL) {
				rep.wrong("stats replay of group %s: TSVL %v, pipeline %v", g.Group.Name, got, g.TSVL)
			}
		}
		names, series, _ := k.prof.SeriesFor(core.RollESVL())
		got, err := replayTSVL(names, series, []string{core.RollResponse}, par.Workers(0), &st)
		if err != nil {
			return nil, err
		}
		if !equalStrings(got, k.roll.TSVL) {
			rep.wrong("stats replay of the roll analysis: TSVL %v, pipeline %v", got, k.roll.TSVL)
		}
	}
	perPipe := func(d time.Duration) float64 { return d.Seconds() * 1e3 / float64(len(keep)) }
	note := "per pipeline, replayed, TSVL identical"
	rep.set("stats.prune_ms", perPipe(st.prune), "ms", len(keep), note)
	rep.set("stats.correlation_ms", perPipe(st.corr), "ms", len(keep), note)
	rep.set("stats.cluster_ms", perPipe(st.cluster), "ms", len(keep), note)
	rep.set("stats.select_ms", perPipe(st.sel), "ms", len(keep), note)

	missions := []namedMission{{name: fmt.Sprintf("square:%d", pipelineSide), mission: pipelineConfig(0).Mission}}
	if err := flyMissions(rep, missions, cfg.seed); err != nil {
		return nil, err
	}
	if err := tr.writeFile(spanFile(cfg.work, cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	rep.note("spans: %s (%d spans)", spanFile(cfg.work, cfg.workload, cfg.seed), len(tr.snapshot()))
	return rep, nil
}

// stageTimes sums the time of each Algorithm 1 stage.
type stageTimes struct{ prune, corr, cluster, sel time.Duration }

// Algorithm 1 settings core.AnalyzeGroup and core.AnalyzeRoll use by
// default.
const (
	analysisCut   = 0.5
	analysisAlpha = 0.05
)

// replayTSVL runs Algorithm 1 stage by stage through stats' public entry
// points, in the order and with the worker split stats.GenerateTSVL uses,
// and returns the TSVL.
func replayTSVL(names []string, series [][]float64, responses []string, workers int, st *stageTimes) ([]string, error) {
	isResp := func(n string) bool {
		for _, r := range responses {
			if r == n {
				return true
			}
		}
		return false
	}
	t := time.Now()
	pruned := stats.PruneStateVarsWorkers(names, series, stats.PruneOptions{ConstTol: 1e-9, Alpha: 0}, workers)
	st.prune += time.Since(t)
	var kept []string
	var keptSeries [][]float64
	for i, pr := range pruned {
		if pr.Kept || isResp(names[i]) {
			kept = append(kept, names[i])
			keptSeries = append(keptSeries, series[i])
		}
	}
	if len(kept) < 2 {
		return nil, stats.ErrInsufficientData
	}

	t = time.Now()
	corr := stats.CorrelationMatrixWorkers(keptSeries, workers)
	st.corr += time.Since(t)

	t = time.Now()
	clusters := stats.HierCluster(stats.CorrelationDistance(corr), stats.LinkageAverage).CutAt(analysisCut)
	st.cluster += time.Since(t)

	t = time.Now()
	type task struct {
		y     []float64
		preds map[string][]float64
	}
	var tasks []task
	for _, c := range clusters {
		for _, resp := range responses {
			ri := -1
			for _, idx := range c {
				if kept[idx] == resp {
					ri = idx
					break
				}
			}
			if ri < 0 {
				continue
			}
			preds := make(map[string][]float64)
			for _, idx := range c {
				if !isResp(kept[idx]) {
					preds[kept[idx]] = keptSeries[idx]
				}
			}
			if len(preds) > 0 {
				tasks = append(tasks, task{keptSeries[ri], preds})
			}
		}
	}
	inner := par.Inner(workers, min(workers, len(tasks)))
	set := make(map[string]bool)
	for _, tk := range tasks {
		sel := stats.StepwiseAICWorkers(tk.y, tk.preds, inner)
		if sel.Model == nil {
			continue
		}
		for _, n := range sel.Model.SignificantPredictors(analysisAlpha) {
			set[n] = true
		}
	}
	st.sel += time.Since(t)
	return sortedKeys(set), nil
}

func equalStrings(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// recordAlgorithm1 records the output digest of every pool seed.
func recordAlgorithm1(r *refs, log io.Writer) error {
	for i := 0; i < pipelinePool; i++ {
		seed := pipelineSeed(i)
		wall, d, err := runPipeline(seed)
		if err != nil {
			return err
		}
		r.Algorithm1[key(seed)] = d
		fmt.Fprintf(log, "record: pipeline %d/%d seed %d %s (%.2fs)\n", i+1, pipelinePool, seed, d, wall.Seconds())
	}
	return nil
}
