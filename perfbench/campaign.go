package main

import (
	"context"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/par"
)

// campaignRun is one finished campaign: spec compiled, run into a fresh
// store, read back and aggregated, as arescamp does.
type campaignRun struct {
	base   int64
	stats  campaign.RunStats
	recs   []campaign.Record
	sorted []byte
	// wall runs from spec compilation to the written summary.
	wall time.Duration
}

// runCampaign runs the catalog campaign for one base seed through the
// arescamp default executor pair. With a tracer, every pool unit, store
// append and the aggregation are recorded as spans under one root span;
// the executors and store are the production ones either way.
func runCampaign(ctx context.Context, base int64, workers int, path string, tr *tracer) (*campaignRun, error) {
	start := time.Now()
	root := -1
	if tr != nil {
		root = tr.begin("campaign.run", -1, key(base))
		defer tr.end(root)
	}
	spec, err := campaignSpec(base)
	if err != nil {
		return nil, err
	}
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	store, err := campaign.OpenStore(path)
	if err != nil {
		return nil, err
	}
	r := &campaign.Runner{Workers: workers}
	r.Execute, r.ExecuteGroup = campaign.NewBatchExecutor()
	var stats campaign.RunStats
	if tr == nil {
		stats, err = r.Run(ctx, spec, store)
	} else {
		exec, group := r.Execute, r.ExecuteGroup
		r.Execute = func(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
			i := tr.begin("campaign.unit", root, job.Key)
			defer tr.end(i)
			return exec(ctx, job)
		}
		r.ExecuteGroup = func(ctx context.Context, jobs []campaign.Job) ([]campaign.Metrics, error) {
			i := tr.begin("campaign.unit", root, fmt.Sprintf("%s+%d", jobs[0].Key, len(jobs)-1))
			defer tr.end(i)
			return group(ctx, jobs)
		}
		// Runner.Run is Validate + RunJobs(Expand) against the store; the
		// sink seam times each append.
		stats, err = r.RunJobs(ctx, spec.Expand(), tracedSink{Store: store, tr: tr, parent: root})
	}
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}
	agg := -1
	if tr != nil {
		agg = tr.begin("campaign.aggregate", root, key(base))
	}
	recs, err := campaign.ReadRecords(path)
	if err != nil {
		return nil, err
	}
	if err := campaign.Aggregate("arescamp", recs).WriteText(io.Discard); err != nil {
		return nil, err
	}
	if tr != nil {
		tr.end(agg)
	}
	wall := time.Since(start)
	sorted, err := campaign.SortedBytes(recs)
	if err != nil {
		return nil, err
	}
	return &campaignRun{base: base, stats: stats, recs: recs, sorted: sorted, wall: wall}, nil
}

// tracedSink times every append into the production store.
type tracedSink struct {
	*campaign.Store
	tr     *tracer
	parent int
}

func (s tracedSink) Append(r campaign.Record) error {
	i := s.tr.begin("campaign.store_append", s.parent, r.Key)
	defer s.tr.end(i)
	return s.Store.Append(r)
}

// checkCampaign compares a run's sorted store with its reference and
// returns how many of its jobs failed or are incorrect.
func checkCampaign(rep *report, rf *refs, run *campaignRun) (int, error) {
	failed := run.stats.Errors + run.stats.Panics
	ok, err := check(rf.Campaign, key(run.base), digest(run.sorted))
	if err != nil {
		return 0, err
	}
	if !ok {
		rep.wrong("campaign base seed %d: sorted store digest %s differs from the reference", run.base, digest(run.sorted))
		return run.stats.Total, nil
	}
	return failed, nil
}

// campaignSetup is everything the campaign workload does before its
// first timed campaign: compile, validate and expand the spec, then run
// the whole catalog once at minimal budgets (1 trial, 1 episode, 1 step)
// into a scratch store with its own executors, so that the first timed
// campaign does not also pay for cold code and heap. Each timed campaign
// still builds its own executors and calibrates its monitors, as
// arescamp does on every run.
func campaignSetup(dir string, base int64) error {
	spec, err := campaignSpec(base)
	if err != nil {
		return err
	}
	if err := spec.Validate(); err != nil {
		return err
	}
	spec.Expand()
	warm, err := cpv.CompileIDs(cpv.Options{Name: "arescamp", Seed: base, Trials: 1, Episodes: 1, MaxSteps: 1}, cpv.IDs()...)
	if err != nil {
		return err
	}
	path := filepath.Join(dir, "setup.jsonl")
	if err := os.Remove(path); err != nil && !os.IsNotExist(err) {
		return err
	}
	store, err := campaign.OpenStore(path)
	if err != nil {
		return err
	}
	r := &campaign.Runner{Workers: par.Workers(0)}
	r.Execute, r.ExecuteGroup = campaign.NewBatchExecutor()
	stats, err := r.Run(context.Background(), warm, store)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	if err == nil && stats.Errors+stats.Panics > 0 {
		err = fmt.Errorf("set-up campaign: %d of %d jobs failed", stats.Errors+stats.Panics, stats.Total)
	}
	return err
}

func measureCampaign(cfg *config) (*report, error) {
	rep := newReport()
	order := campaignOrder(cfg.seed)
	setup, err := medianSetup(setupReps, func(bool) (func() error, error) {
		return nil, campaignSetup(cfg.dir, campaignBaseSeed(order[0]))
	})
	if err != nil {
		return nil, err
	}
	workers := par.Workers(0)
	var walls sample
	var okJobs int
	var busy time.Duration
	start := time.Now()
	// Whole passes only, and another pass only when it fits the measured
	// time: every run covers the same campaigns.
	for pass, last := 0, time.Duration(0); pass == 0 || time.Since(start)+last <= cfg.seconds; pass++ {
		passStart := time.Now()
		for i, p := range order {
			base := campaignBaseSeed(p)
			run, err := runCampaign(context.Background(), base, workers,
				filepath.Join(cfg.dir, fmt.Sprintf("campaign-%d-%d.jsonl", pass, i)), nil)
			if err != nil {
				return nil, err
			}
			failed, err := checkCampaign(rep, cfg.refs, run)
			if err != nil {
				return nil, err
			}
			rep.attempted += run.stats.Total
			rep.failed += failed
			okJobs += run.stats.Total - failed
			walls = append(walls, run.wall.Seconds()*1e3)
			busy += run.wall
		}
		last = time.Since(passStart)
	}
	rep.set("setup_s", setup, "s", setupReps, "median of set-ups")
	rep.set("ops_per_s", float64(okJobs)/busy.Seconds(), "1/s", len(walls),
		fmt.Sprintf("ok campaign jobs per host second over %d catalog campaigns, aggregation included", len(walls)))
	rep.set("op_p50_ms", walls.median(), "ms", len(walls), "campaign wall time, spec to summary")
	if p90, ok := walls.tail(0.9); ok {
		rep.note("campaign p90 %.1f ms", p90)
	} else {
		rep.note("campaign p90 not reported: %d samples, fewer than %d beyond it", len(walls), minBeyond)
	}
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "")
	return rep, nil
}

func traceCampaign(cfg *config) (*report, error) {
	rep := newReport()
	ctx := context.Background()
	order := campaignOrder(cfg.seed)
	base := campaignBaseSeed(order[0])
	if err := campaignSetup(cfg.dir, base); err != nil {
		return nil, err
	}
	workers := par.Workers(0)
	path := func(name string) string { return filepath.Join(cfg.dir, name+".jsonl") }
	runChecked := func(name string, w int, tr *tracer) (*campaignRun, error) {
		run, err := runCampaign(ctx, base, w, path(name), tr)
		if err != nil {
			return nil, err
		}
		failed, err := checkCampaign(rep, cfg.refs, run)
		if err != nil {
			return nil, err
		}
		rep.attempted += run.stats.Total
		rep.failed += failed
		return run, nil
	}

	// Untraced, at nproc workers: the baseline for the tracing overhead,
	// the Go runtime figures and the records the re-execution must match.
	rt0 := readRuntime()
	plain, err := runChecked("plain", workers, nil)
	if err != nil {
		return nil, err
	}
	rt := readRuntime().since(rt0)
	rep.set("runtime.alloc_mb_per_op", rt.allocBytes/1e6/float64(plain.stats.Total), "MB", plain.stats.Total, "per campaign job")
	rep.set("runtime.gc_cpu_frac", rt.gcFrac(), "ratio", 0, "")

	// Traced production run.
	tr := newTracer()
	traced, err := runChecked("traced", workers, tr)
	if err != nil {
		return nil, err
	}
	rep.set("trace.overhead_frac", overhead(traced.wall.Seconds(), plain.wall.Seconds()), "ratio", 1, "traced/untraced campaign wall − 1")
	by := sumByName(tr.snapshot())
	unitBusy := by["campaign.unit"]
	if unitBusy != nil {
		rep.set("campaign.exec_busy_s", unitBusy.total.Seconds(), "s", unitBusy.n, "")
		rep.set("campaign.units", float64(unitBusy.n), "count", 0, "pool units (batched cells count once)")
		rep.set("campaign.pool_idle_frac", 1-unitBusy.total.Seconds()/(float64(workers)*traced.wall.Seconds()), "ratio", 0,
			fmt.Sprintf("1 − busy/(%d workers × wall)", workers))
	}
	if app := by["campaign.store_append"]; app != nil {
		rep.set("campaign.store_append_us", app.total.Seconds()*1e6/float64(app.n), "us", app.n, "")
		rep.set("campaign.store_appends", float64(app.n), "count", 0, "")
	}
	rep.set("campaign.aggregate_ms", meanMs(by, "campaign.aggregate"), "ms", 1, "ReadRecords + Aggregate + WriteText")

	// Scaling probe: the same campaign at one worker.
	one, err := runChecked("one", 1, nil)
	if err != nil {
		return nil, err
	}
	rep.set("campaign.scaling_eff", one.wall.Seconds()/(float64(workers)*plain.wall.Seconds()), "ratio", 0,
		fmt.Sprintf("rate at %d workers ÷ (%d × rate at 1); 1-worker wall %.2fs, %d-worker wall %.2fs",
			workers, workers, one.wall.Seconds(), workers, plain.wall.Seconds()))

	// Re-execute every job through the benchmark-side executor.
	spec, err := campaignSpec(base)
	if err != nil {
		return nil, err
	}
	jobs := spec.Expand()
	x := newReexec(tr, func(j campaign.Job) int64 { return campaignCalibrationSeed(j.BaseSeed, j.Mission.Name()) })
	if err := x.runAll(rep, jobs, recordsFor(jobs, plain.recs), workers); err != nil {
		return nil, err
	}
	x.report(rep)

	// Per-tick sublayers on each catalog mission.
	missions, err := jobMissions(jobs, x)
	if err != nil {
		return nil, err
	}
	if err := flyMissions(rep, missions, cfg.seed); err != nil {
		return nil, err
	}
	if err := tr.writeFile(spanFile(cfg.work, cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	rep.note("spans: %s (%d spans)", spanFile(cfg.work, cfg.workload, cfg.seed), len(tr.snapshot()))
	return rep, nil
}

// recordCampaign records the sorted-store digest of every pool entry.
func recordCampaign(r *refs, dir string, log io.Writer) error {
	for i := 0; i < campaignPool; i++ {
		base := campaignBaseSeed(i)
		run, err := runCampaign(context.Background(), base, par.Workers(0),
			filepath.Join(dir, fmt.Sprintf("record-%d.jsonl", i)), nil)
		if err != nil {
			return err
		}
		if n := run.stats.Errors + run.stats.Panics; n > 0 {
			return fmt.Errorf("campaign base seed %d: %d jobs failed", base, n)
		}
		r.Campaign[key(base)] = digest(run.sorted)
		fmt.Fprintf(log, "record: campaign %d/%d base %d %s (%.1fs)\n", i+1, campaignPool, base, r.Campaign[key(base)], run.wall.Seconds())
	}
	return nil
}
