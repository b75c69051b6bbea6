package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"github.com/ares-cps/ares/internal/campaign"
	"github.com/ares-cps/ares/internal/cpv"
	"github.com/ares-cps/ares/internal/par"
	"github.com/ares-cps/ares/internal/serve"
)

// daemon is an in-process serve.Server behind a loopback listener.
type daemon struct {
	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
	dir    string
}

// startDaemon starts a server on dir and makes the warm-up assessments.
// exec is the server's executor (nil for the built-in one).
func startDaemon(dir string, exec campaign.Executor) (*daemon, error) {
	srv, err := serve.New(serve.Config{StoreDir: dir, Executor: exec})
	if err != nil {
		return nil, err
	}
	srv.Start()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, srv.Shutdown(context.Background()))
	}
	d := &daemon{
		srv:    srv,
		hs:     &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Timeout: 2 * time.Minute, Transport: &http.Transport{MaxIdleConnsPerHost: 2 * daemonClients}},
		dir:    dir,
	}
	go func() { d.served <- d.hs.Serve(ln) }()
	for _, w := range daemonWarmups() {
		if _, _, err := d.assess(w, nil, ""); err != nil {
			return nil, errors.Join(fmt.Errorf("warm-up %s: %w", w.CPV, err), d.stop())
		}
	}
	return d, nil
}

// stop closes the listener, drains the server and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	herr := d.hs.Shutdown(ctx)
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		herr = errors.Join(herr, err)
	}
	d.client.CloseIdleConnections()
	return errors.Join(herr, d.srv.Shutdown(ctx))
}

// maxBody caps every response the client decodes.
const maxBody = 4 << 20

// decodeStrict decodes one JSON value, rejecting unknown fields and
// trailing data.
func decodeStrict(r io.Reader, v any) error {
	dec := json.NewDecoder(io.LimitReader(r, maxBody))
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return err
	}
	if dec.More() {
		return errors.New("trailing data after JSON value")
	}
	return nil
}

// reqTimes are the client-side phases of one request.
type reqTimes struct {
	start, submitted, waited, done time.Time
}

// assess submits one assessment and waits for its result as a client
// would: POST /v1/cpvs/{id}/assess; unless the answer is already done,
// follow the job's event stream to its terminal event; then GET the
// result. With a tracer, the three phases are spans under one request
// span.
func (d *daemon) assess(a assess, tr *tracer, id string) (*serve.Result, reqTimes, error) {
	var t reqTimes
	t.start = time.Now()
	root := -1
	if tr != nil {
		root = tr.begin("daemon.request", -1, id)
		defer tr.end(root)
	}
	body, err := json.Marshal(a)
	if err != nil {
		return nil, t, err
	}
	span := func(name string, from time.Time) {
		if tr != nil {
			tr.record(name, root, id, int64(from.Sub(tr.t0)), tr.now())
		}
	}
	resp, err := d.client.Post(d.url+"/v1/cpvs/"+a.CPV+"/assess", "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, t, err
	}
	var st serve.JobStatus
	switch resp.StatusCode {
	case http.StatusOK, http.StatusAccepted:
		err = decodeStrict(resp.Body, &st)
	default: // 429 (queue full) included: a refused request is a failed one
		err = fmt.Errorf("assess %s: HTTP %d", a.CPV, resp.StatusCode)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, t, err
	}
	t.submitted = time.Now()
	span("serve.submit", t.start)

	if st.State != serve.StateDone {
		state, err := d.waitEvents(st.ID)
		if err != nil {
			return nil, t, err
		}
		if state != serve.StateDone {
			return nil, t, fmt.Errorf("job %s ended %s", st.ID, state)
		}
	}
	t.waited = time.Now()
	span("serve.wait", t.submitted)

	resp, err = d.client.Get(d.url + "/v1/results/" + st.ID)
	if err != nil {
		return nil, t, err
	}
	var res serve.Result
	if resp.StatusCode == http.StatusOK {
		err = decodeStrict(resp.Body, &res)
	} else {
		err = fmt.Errorf("result %s: HTTP %d", st.ID, resp.StatusCode)
	}
	if cerr := resp.Body.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, t, err
	}
	t.done = time.Now()
	span("serve.result", t.waited)
	return &res, t, nil
}

// waitEvents follows a job's SSE stream until its terminal event and
// returns the final state. (aresd -submit -wait polls every 200 ms; the
// stream gives the same answer without quantising a ~100 ms latency.)
func (d *daemon) waitEvents(id string) (string, error) {
	resp, err := d.client.Get(d.url + "/v1/jobs/" + id + "/events")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("events %s: HTTP %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(io.LimitReader(resp.Body, maxBody))
	terminal := false
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "event: done":
			terminal = true
		case terminal && strings.HasPrefix(line, "data: "):
			return strings.TrimPrefix(line, "data: "), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("events %s: stream ended without a terminal event", id)
}

// resultDigest digests a served result in canonical (compact) JSON.
func resultDigest(res *serve.Result) (string, error) {
	data, err := json.Marshal(res)
	if err != nil {
		return "", err
	}
	return digest(data), nil
}

// client is one closed-loop daemon client. Its state persists across the
// phases of a traced run, so no fresh spec is ever sent twice.
type client struct {
	id        int
	rng       *rand.Rand
	cycle     []bool // the rest of the current cycle: true sends a fresh spec
	fresh     []int
	next      int
	completed []int

	fr, hit, dedup sample // latencies (ms) by request class
	submitMs       sample
	resultMs       sample
	requests       int
	freshSent      int // distinct fresh specs submitted
	failed         int
	wrong          []string
	// freshDone lists the table entries this phase executed, with the
	// time their submission was sent.
	freshDone []freshSubmit
}

type freshSubmit struct {
	entry int
	sent  time.Time
}

func newClient(seed int64, c int) *client {
	return &client{id: c, rng: clientRand(seed, c), fresh: daemonFresh(seed, c)}
}

// resetPhase clears the per-phase samples, keeping the request sequence.
func (c *client) resetPhase() {
	*c = client{id: c.id, rng: c.rng, cycle: c.cycle, fresh: c.fresh, next: c.next, completed: c.completed}
}

// run sends requests until the deadline. The choice between a fresh and a
// repeated spec uses only the client's own stream and completed list. A
// repeat is drawn from the client's last repeatWindow completed specs, so
// it is answered from the server's result cache, not reloaded from disk.
func (c *client) run(d *daemon, rf *refs, deadline time.Time, tr *tracer) {
	for time.Now().Before(deadline) {
		if len(c.cycle) == 0 {
			c.cycle = freshCycle(c.rng)
		}
		sendFresh := c.cycle[0]
		c.cycle = c.cycle[1:]
		if sendFresh || len(c.completed) == 0 {
			if c.next >= len(c.fresh) {
				c.wrong = append(c.wrong, fmt.Sprintf("client %d used up its %d fresh table entries", c.id, len(c.fresh)))
				return
			}
			entry := c.fresh[c.next]
			c.next++
			c.freshSent++
			if c.freshSent%dedupEvery == 0 {
				c.twice(d, rf, entry, tr)
			} else {
				c.one(d, rf, entry, &c.fr, true, tr)
			}
			continue
		}
		recent := c.completed[max(0, len(c.completed)-repeatWindow):]
		c.one(d, rf, recent[c.rng.Intn(len(recent))], &c.hit, false, tr)
	}
}

// one sends one request and checks its result.
func (c *client) one(d *daemon, rf *refs, entry int, lat *sample, fresh bool, tr *tracer) {
	c.requests++
	res, t, err := d.assess(daemonEntry(entry), tr, fmt.Sprintf("c%d-e%d", c.id, entry))
	if !c.verify(rf, entry, res, err) {
		return
	}
	*lat = append(*lat, msSince(t.start, t.done))
	c.submitMs = append(c.submitMs, msSince(t.start, t.submitted))
	c.resultMs = append(c.resultMs, msSince(t.waited, t.done))
	if fresh {
		c.completed = append(c.completed, entry)
		c.freshDone = append(c.freshDone, freshSubmit{entry, t.start})
	}
}

// twice sends the same fresh spec twice at once; the second submission
// collapses onto the first job.
func (c *client) twice(d *daemon, rf *refs, entry int, tr *tracer) {
	c.requests += 2
	type out struct {
		res *serve.Result
		t   reqTimes
		err error
	}
	var outs [2]out
	var wg sync.WaitGroup
	for k := range outs {
		wg.Add(1)
		go func(k int) {
			defer wg.Done()
			res, t, err := d.assess(daemonEntry(entry), tr, fmt.Sprintf("c%d-e%d-%d", c.id, entry, k))
			outs[k] = out{res, t, err}
		}(k)
	}
	wg.Wait()
	ok := true
	for _, o := range outs {
		ok = c.verify(rf, entry, o.res, o.err) && ok
	}
	if !ok {
		return
	}
	start, done := outs[0].t.start, outs[0].t.done
	if s := outs[1].t.start; s.Before(start) {
		start = s
	}
	if d := outs[1].t.done; d.After(done) {
		done = d
	}
	c.dedup = append(c.dedup, msSince(start, done))
	c.completed = append(c.completed, entry)
	c.freshDone = append(c.freshDone, freshSubmit{entry, start})
}

// verify checks one result against the table's reference.
func (c *client) verify(rf *refs, entry int, res *serve.Result, err error) bool {
	if err == nil {
		var d string
		if d, err = resultDigest(res); err == nil {
			var ok bool
			if ok, err = check(rf.Daemon, strconv.Itoa(entry), d); err == nil && !ok {
				err = fmt.Errorf("result digest %s differs from the reference", d)
			}
		}
	}
	if err != nil {
		c.failed++
		c.wrong = append(c.wrong, fmt.Sprintf("client %d, table entry %d: %v", c.id, entry, err))
		return false
	}
	return true
}

func msSince(a, b time.Time) float64 { return b.Sub(a).Seconds() * 1e3 }

// phase runs every client until the deadline and returns the elapsed time.
func phase(d *daemon, rf *refs, clients []*client, dur time.Duration, tr *tracer) time.Duration {
	start := time.Now()
	deadline := start.Add(dur)
	var wg sync.WaitGroup
	for _, c := range clients {
		wg.Add(1)
		go func(c *client) {
			defer wg.Done()
			c.run(d, rf, deadline, tr)
		}(c)
	}
	wg.Wait()
	return time.Since(start)
}

// phaseTotals folds the clients' samples of one phase.
type phaseTotals struct {
	fr, hit, dedup, submit, result sample
	requests, freshSent, failed    int
	wrong                          []string
	fresh                          []freshSubmit
}

func totals(clients []*client) phaseTotals {
	var p phaseTotals
	for _, c := range clients {
		p.fr = append(p.fr, c.fr...)
		p.hit = append(p.hit, c.hit...)
		p.dedup = append(p.dedup, c.dedup...)
		p.submit = append(p.submit, c.submitMs...)
		p.result = append(p.result, c.resultMs...)
		p.requests += c.requests
		p.freshSent += c.freshSent
		p.failed += c.failed
		p.wrong = append(p.wrong, c.wrong...)
		p.fresh = append(p.fresh, c.freshDone...)
	}
	return p
}

// reloads counts the results the server recomputed from disk during the
// phase: every result-cache miss beyond the one each fresh submission
// takes. Repeats stay inside the cache, so it should be 0.
func (p phaseTotals) reloads(before, after map[string]float64) float64 {
	return after["ares_serve_cache_misses_total"] - before["ares_serve_cache_misses_total"] - float64(p.freshSent)
}

func (p phaseTotals) apply(rep *report) {
	rep.attempted += p.requests
	rep.failed += p.failed
	for _, w := range p.wrong {
		rep.wrong("%s", w)
	}
}

// daemonSetup starts a server and warms it up; all but the last set-up
// are stopped again, outside their timed interval.
func daemonSetup(cfg *config) (*daemon, float64, error) {
	var d *daemon
	n := 0
	setup, err := medianSetup(setupReps, func(last bool) (func() error, error) {
		n++
		dd, err := startDaemon(filepath.Join(cfg.dir, fmt.Sprintf("daemon-%d", n)), nil)
		if err != nil {
			return nil, err
		}
		if !last {
			return dd.stop, nil
		}
		d = dd
		return nil, nil
	})
	return d, setup, err
}

func measureDaemon(cfg *config) (*report, error) {
	rep := newReport()
	d, setup, err := daemonSetup(cfg)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, daemonClients)
	for c := range clients {
		clients[c] = newClient(cfg.seed, c)
	}
	before, err := d.scrape()
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	elapsed := phase(d, cfg.refs, clients, cfg.seconds, nil)
	after, err := d.scrape()
	if err := errors.Join(err, d.stop()); err != nil {
		return nil, err
	}
	p := totals(clients)
	p.apply(rep)
	rep.set("setup_s", setup, "s", setupReps, "median of set-ups: server start + one warm-up assessment per mission")
	rep.set("ops_per_s", float64(p.requests-p.failed)/elapsed.Seconds(), "1/s", p.requests,
		fmt.Sprintf("completed requests per host second (%d fresh, %d repeated, %d deduplicated pairs)", len(p.fr), len(p.hit), len(p.dedup)))
	rep.set("op_p50_ms", p.fr.median(), "ms", len(p.fr), "fresh request, submit to result")
	if v, ok := p.fr.tail(0.9); ok {
		rep.note("fresh p90 %.2f ms (n=%d)", v, len(p.fr))
	} else {
		rep.note("fresh p90 not reported: n=%d, fewer than %d beyond it", len(p.fr), minBeyond)
	}
	rep.note("repeated (cache-hit) p50 %.3f ms (n=%d); results reloaded from disk: %g", p.hit.median(), len(p.hit), p.reloads(before, after))
	if v, ok := p.hit.tail(0.9); ok {
		rep.note("repeated (cache-hit) p90 %.3f ms (n=%d)", v, len(p.hit))
	}
	rep.set("peak_rss_mb", peakRSSMiB(), "MiB", 0, "")
	return rep, nil
}

// execProbe wraps the server's executor to see when each job's first cell
// starts; the benchmark keys jobs by their campaign seed, which is unique
// per fresh table entry.
type execProbe struct {
	exec  campaign.Executor
	on    atomic.Bool
	mu    sync.Mutex
	start map[int64]time.Time
}

func (p *execProbe) run(ctx context.Context, job campaign.Job) (campaign.Metrics, error) {
	if p.on.Load() {
		now := time.Now()
		p.mu.Lock()
		if _, ok := p.start[job.BaseSeed]; !ok {
			p.start[job.BaseSeed] = now
		}
		p.mu.Unlock()
	}
	return p.exec(ctx, job)
}

// reexecLimit bounds how many fresh assessments the traced run
// re-executes through the benchmark-side executor.
const reexecLimit = 24

func traceDaemon(cfg *config) (*report, error) {
	rep := newReport()
	probe := &execProbe{exec: campaign.NewExecutor(), start: make(map[int64]time.Time)}
	d, err := startDaemon(filepath.Join(cfg.dir, "daemon"), probe.run)
	if err != nil {
		return nil, err
	}
	clients := make([]*client, daemonClients)
	for c := range clients {
		clients[c] = newClient(cfg.seed, c)
	}
	half := cfg.seconds / 2

	// Untraced phase.
	rt0 := readRuntime()
	phase(d, cfg.refs, clients, half, nil)
	rt := readRuntime().since(rt0)
	plain := totals(clients)
	plain.apply(rep)
	rep.set("runtime.alloc_mb_per_op", rt.allocBytes/1e6/float64(plain.requests), "MB", plain.requests, "per request")
	rep.set("runtime.gc_cpu_frac", rt.gcFrac(), "ratio", 0, "")

	// Traced phase, with the server's own counters read around it.
	before, err := d.scrape()
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	for _, c := range clients {
		c.resetPhase()
	}
	tr := newTracer()
	probe.on.Store(true)
	phase(d, cfg.refs, clients, half, tr)
	probe.on.Store(false)
	after, err := d.scrape()
	if err != nil {
		return nil, errors.Join(err, d.stop())
	}
	traced := totals(clients)
	traced.apply(rep)
	if err := d.stop(); err != nil {
		return nil, err
	}

	rep.set("trace.overhead_frac", overhead(traced.fr.median(), plain.fr.median()), "ratio", len(traced.fr),
		fmt.Sprintf("traced/untraced fresh p50 − 1 (%.1f ms / %.1f ms)", traced.fr.median(), plain.fr.median()))
	rep.set("serve.submit_ms", traced.submit.mean(), "ms", len(traced.submit), "POST assess, client side")
	rep.set("serve.result_ms", traced.result.mean(), "ms", len(traced.result), "GET result, client side")
	rep.set("serve.hit_p50_ms", traced.hit.median(), "ms", len(traced.hit), "repeated spec, submit to result")
	tail := func(name string, s sample) {
		if v, ok := s.tail(0.9); ok {
			rep.set(name, v, "ms", len(s), "")
		} else {
			rep.set(name, 0, "ms", len(s), fmt.Sprintf("omitted: fewer than %d samples beyond p90", minBeyond))
		}
	}
	tail("serve.hit_p90_ms", traced.hit)
	tail("serve.fresh_p90_ms", traced.fr)
	delta := func(name string) float64 { return after[name] - before[name] }
	if n := delta("ares_serve_job_seconds_count"); n > 0 {
		rep.set("serve.exec_ms", delta("ares_serve_job_seconds_sum")*1e3/n, "ms", int(n), "server /metrics: job wall time")
	}
	if n := delta("ares_serve_cache_hits_total") + delta("ares_serve_cache_misses_total"); n > 0 {
		rep.set("serve.cache_hit_ratio", delta("ares_serve_cache_hits_total")/n, "ratio", int(n),
			fmt.Sprintf("server /metrics; results reloaded from disk: %g", traced.reloads(before, after)))
	}
	if n := delta("ares_cpv_assess_total"); n > 0 {
		rep.set("serve.dedup_ratio", delta("ares_serve_jobs_deduped_total")/n, "ratio", int(n), "deduplicated ÷ assess submissions, server /metrics")
	}
	rep.set("serve.rejected", delta("ares_serve_jobs_rejected_total"), "count", 0, "server /metrics")

	// Queue wait: POST sent to the job's first cell starting (executor
	// probe). The server may start the job before the POST's answer
	// arrives, so the wait is taken from the send.
	var wait sample
	for _, f := range traced.fresh {
		if s, ok := probe.start[daemonEntry(f.entry).Seed]; ok {
			wait = append(wait, msSince(f.sent, s))
		}
	}
	rep.set("serve.queue_wait_ms", wait.mean(), "ms", len(wait), "POST sent to first cell start: handling, enqueue, wait for a worker")

	if err := daemonReplays(rep, cfg, d.dir, traced.fresh, tr); err != nil {
		return nil, err
	}
	if err := tr.writeFile(spanFile(cfg.work, cfg.workload, cfg.seed)); err != nil {
		return nil, err
	}
	rep.note("spans: %s (%d spans)", spanFile(cfg.work, cfg.workload, cfg.seed), len(tr.snapshot()))
	rep.note("campaign.store_append_us and campaign.store_appends: omitted, the server owns its stores and has no sink seam")
	return rep, nil
}

// daemonReplays recomputes, from public calls, what the server did for
// the traced phase's fresh assessments: the spec hash (the job ID), the
// aggregation of each job's store (the served summary) and a re-execution
// of the first reexecLimit jobs (the stored records).
func daemonReplays(rep *report, cfg *config, dir string, fresh []freshSubmit, tr *tracer) error {
	var hashNs int64
	var aggMs sample
	var jobs []campaign.Job
	var want []*campaign.Metrics
	for i, f := range fresh {
		a := daemonEntry(f.entry)
		spec, err := cpv.CompileIDs(cpv.Options{Name: "cpv:" + a.CPV, Seed: a.Seed, Trials: a.Trials, Episodes: a.Episodes, MaxSteps: a.MaxSteps}, a.CPV)
		if err != nil {
			return err
		}
		t := time.Now()
		id := serve.SpecHash(spec)
		hashNs += int64(time.Since(t))

		path := filepath.Join(dir, id+".jsonl")
		t = time.Now()
		rs, err := campaign.ReadRecords(path)
		if err != nil {
			return err
		}
		res := &serve.Result{ID: id, Summary: campaign.Aggregate(spec.Name, rs)}
		aggMs = append(aggMs, msSince(t, time.Now()))
		dg, err := resultDigest(res)
		if err != nil {
			return err
		}
		if ok, err := check(cfg.refs.Daemon, strconv.Itoa(f.entry), dg); err != nil {
			return err
		} else if !ok {
			rep.wrong("table entry %d: replayed aggregation of the server's store differs from the reference", f.entry)
		}
		if i < reexecLimit {
			js := spec.Expand()
			jobs = append(jobs, js...)
			want = append(want, recordsFor(js, rs)...)
		}
	}
	if len(fresh) > 0 {
		rep.set("serve.spec_hash_us", float64(hashNs)/1e3/float64(len(fresh)), "us", len(fresh), "replayed serve.SpecHash; IDs match the server's")
		rep.set("campaign.aggregate_ms", aggMs.mean(), "ms", len(aggMs), "replayed ReadRecords + Aggregate of each job store; summaries identical")
	}

	// The server calibrated each mission's monitor on the warm-up
	// assessment that first needed it.
	warm := daemonWarmups()[0].Seed
	x := newReexec(tr, func(j campaign.Job) int64 { return campaignCalibrationSeed(warm, j.Mission.Name()) })
	if err := x.runAll(rep, jobs, want, par.Workers(0)); err != nil {
		return err
	}
	x.report(rep)
	all, err := cpv.CompileIDs(cpv.Options{Seed: warm, Trials: 1}, cpv.IDs()...)
	if err != nil {
		return err
	}
	missions, err := jobMissions(all.Expand(), x)
	if err != nil {
		return err
	}
	return flyMissions(rep, missions, cfg.seed)
}

// scrape reads the server's /metrics into a map of unlabeled series.
func (d *daemon) scrape() (map[string]float64, error) {
	resp, err := d.client.Get(d.url + "/metrics")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("/metrics: HTTP %d", resp.StatusCode)
	}
	out := make(map[string]float64)
	sc := bufio.NewScanner(io.LimitReader(resp.Body, maxBody))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' || strings.Contains(line, "{") {
			continue
		}
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			return nil, fmt.Errorf("/metrics: %q: %w", line, err)
		}
		out[name] = v
	}
	return out, sc.Err()
}

// recordDaemon records the result digest of every table entry through a
// warmed-up server, two clients at a time.
func recordDaemon(r *refs, dir string, log io.Writer) error {
	d, err := startDaemon(filepath.Join(dir, "record-daemon"), nil)
	if err != nil {
		return err
	}
	var mu sync.Mutex
	errs := make([]error, daemonClients)
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := c; i < daemonTable; i += daemonClients {
				res, _, err := d.assess(daemonEntry(i), nil, "")
				if err != nil {
					errs[c] = fmt.Errorf("table entry %d: %w", i, err)
					return
				}
				dg, err := resultDigest(res)
				if err != nil {
					errs[c] = err
					return
				}
				mu.Lock()
				r.Daemon[strconv.Itoa(i)] = dg
				mu.Unlock()
				if i%100 == 0 {
					fmt.Fprintf(log, "record: daemon entry %d/%d\n", i, daemonTable)
				}
			}
		}(c)
	}
	wg.Wait()
	return errors.Join(errors.Join(errs...), d.stop())
}
