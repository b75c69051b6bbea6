// Command perfbench is the repository benchmark. It runs one workload for
// one seed, checks every output against references recorded for the
// seed's inputs, and prints one metric per line followed by a JSON result
// line:
//
//	bash perfbench/run.sh --workload campaign --seed 1 --seconds 20 --trace 0
//
// Workloads (see README.md for why each was chosen and which layer
// metric should move which end-to-end metric):
//
//	campaign    the whole CPV catalog through campaign.Runner (batched)
//	algorithm1  Profile + Analyze pipelines (ares.Pipeline), one at a time
//	daemon      serve.Server on loopback with two closed-loop clients
//
// --trace 0 measures the end-to-end metrics with no tracing. --trace 1 is
// a separate run that times calls into each layer from the benchmark's own
// files, replays recorded inputs through fresh layer instances, and
// reports the per-layer metrics, the tracing overhead and a span file.
//
// --record FILE re-records refs.json (every table entry of every
// workload); run it only at a commit whose outputs are known good.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"syscall"
	"time"

	"github.com/ares-cps/ares/internal/par"
)

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// config is one invocation.
type config struct {
	workload string
	seed     int64
	seconds  time.Duration
	trace    bool
	// dir is this run's private scratch directory (removed at exit) and
	// work the persistent one that receives the span file.
	dir, work string
	refs      *refs
}

// endToEnd lists the end-to-end metrics every --trace 0 run reports, in
// output order, with their units. BENCHMARK.json declares the same set.
var endToEnd = []struct{ name, unit string }{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"op_p50_ms", "ms"},
	{"peak_rss_mb", "MiB"},
}

// report collects one run's outcome.
type report struct {
	attempted, failed int
	incorrect         []string
	metrics           map[string]metricValue
	notes             []string
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	n     int
	note  string
}

func newReport() *report { return &report{metrics: make(map[string]metricValue)} }

// set records a metric with its sample count (0 when it is not a sample
// statistic) and an optional note printed beside it.
func (r *report) set(name string, v float64, unit string, n int, note string) {
	r.metrics[name] = metricValue{Value: v, Unit: unit, n: n, note: note}
}

// wrong records an incorrect output. It fails the run.
func (r *report) wrong(format string, args ...any) {
	r.incorrect = append(r.incorrect, fmt.Sprintf(format, args...))
}

// note adds a line printed with the metrics (omissions and their reasons).
func (r *report) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "campaign, algorithm1 or daemon")
	seed := fs.Int64("seed", 1, "workload seed")
	seconds := fs.Float64("seconds", 20, "measured seconds")
	trace := fs.Int("trace", 0, "1 runs the traced per-layer run")
	work := fs.String("work", ".bench_build/work", "scratch directory")
	record := fs.String("record", "", "re-record the reference tables into this file and exit")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "perfbench: unexpected arguments %v\n", fs.Args())
		return 2
	}
	if err := os.MkdirAll(*work, 0o755); err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(*work, "run-")
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)

	if *record != "" {
		if err := recordRefs(*record, dir, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench: record:", err)
			return 1
		}
		return 0
	}

	wl, ok := workloads[*workload]
	if !ok {
		fmt.Fprintf(stderr, "perfbench: unknown workload %q (want campaign, algorithm1 or daemon)\n", *workload)
		return 2
	}
	if *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(stderr, "perfbench: --seconds must be positive and --trace 0 or 1")
		return 2
	}
	rf, err := loadRefs()
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	cfg := &config{
		workload: *workload,
		seed:     *seed,
		seconds:  time.Duration(*seconds * float64(time.Second)),
		trace:    *trace == 1,
		dir:      dir,
		work:     *work,
		refs:     rf,
	}
	//areslint:ignore parbudget reported beside every result, sizes no pool
	nproc := runtime.NumCPU()
	fmt.Fprintf(stdout, "# workload=%s seed=%d seconds=%g trace=%d gomaxprocs=%d nproc=%d\n",
		cfg.workload, cfg.seed, cfg.seconds.Seconds(), *trace, par.Workers(0), nproc)

	fn := wl.measure
	if cfg.trace {
		fn = wl.traced
	}
	rep, err := fn(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", cfg.workload, err)
		return 1
	}
	want := endToEnd
	if cfg.trace {
		want = perLayer
	}
	for _, m := range want {
		if _, ok := rep.metrics[m.name]; !ok {
			rep.set(m.name, 0, m.unit, 0, "not exercised by this workload")
		}
	}
	return emit(stdout, rep, want)
}

// emit prints the metric lines and the JSON result line. It returns the
// exit code: non-zero when any output was wrong or any operation failed.
func emit(w io.Writer, rep *report, want []struct{ name, unit string }) int {
	for _, m := range want {
		v := rep.metrics[m.name]
		line := fmt.Sprintf("%-28s %14.6g %-6s", m.name, v.Value, v.Unit)
		if v.n > 0 {
			line += fmt.Sprintf(" n=%d", v.n)
		}
		if v.note != "" {
			line += "  # " + v.note
		}
		fmt.Fprintln(w, line)
	}
	for _, n := range rep.notes {
		fmt.Fprintln(w, "# "+n)
	}
	ratio := 0.0
	if rep.attempted > 0 {
		ratio = float64(rep.failed) / float64(rep.attempted)
	}
	fmt.Fprintf(w, "# attempted=%d failed=%d failed_ratio=%g\n", rep.attempted, rep.failed, ratio)
	for _, msg := range rep.incorrect {
		fmt.Fprintln(w, "# INCORRECT: "+msg)
	}

	out := struct {
		Correct   bool                   `json:"correct"`
		Attempted int                    `json:"attempted"`
		Failed    int                    `json:"failed"`
		Metrics   map[string]metricValue `json:"metrics"`
	}{
		Correct:   len(rep.incorrect) == 0 && rep.failed == 0,
		Attempted: rep.attempted,
		Failed:    rep.failed,
		Metrics:   make(map[string]metricValue, len(want)),
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	for _, m := range want {
		v := rep.metrics[m.name]
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			v.Value = 0
		}
		out.Metrics[m.name] = v
	}
	data, err := json.Marshal(out)
	if err != nil {
		fmt.Fprintln(w, "# perfbench: encode result:", err)
		return 1
	}
	fmt.Fprintln(w, string(data))
	if !out.Correct {
		return 1
	}
	return 0
}

// workload is one named workload's untraced and traced runs.
type workload struct {
	measure func(*config) (*report, error)
	traced  func(*config) (*report, error)
}

var workloads = map[string]workload{
	"campaign":   {measure: measureCampaign, traced: traceCampaign},
	"algorithm1": {measure: measureAlgorithm1, traced: traceAlgorithm1},
	"daemon":     {measure: measureDaemon, traced: traceDaemon},
}

// peakRSSMiB returns the process's peak resident set size.
func peakRSSMiB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// medianSetup runs a workload's set-up once untimed (the process and
// the CPU are cold at start), then reps times, and returns the median
// duration in seconds. The set-up function is told which rep is the last:
// that one is kept for the timed part. An earlier one may return a
// teardown, which runs after its rep's clock has stopped, so tearing down
// is never part of setup_s.
func medianSetup(reps int, setup func(last bool) (teardown func() error, err error)) (float64, error) {
	var ds sample
	for i := -1; i < reps; i++ {
		start := time.Now()
		teardown, err := setup(i == reps-1)
		took := time.Since(start)
		if err != nil {
			return 0, err
		}
		if i >= 0 {
			ds = append(ds, took.Seconds())
		}
		if teardown != nil {
			if err := teardown(); err != nil {
				return 0, err
			}
		}
	}
	return ds.median(), nil
}

// setupReps is how many times each workload sets up; setup_s is the
// median.
const setupReps = 5

// sortedKeys returns a map's keys in order.
func sortedKeys[V any](m map[string]V) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
