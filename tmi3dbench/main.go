package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
)

// setupRuns is how many set-ups setup_s is the median of.
const setupRuns = 3

// options is one benchmark invocation.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	scale    float64
	workdir  string // scratch space for stores and trace dumps
	srcRoot  string // the repository checkout (source digest)
	// setups is how many times set-up is measured: once in-process plus
	// setups-1 fresh child processes, so process-wide caches are cold each
	// time. setup_s is their median.
	setups int
	// corrupt injects one wrong payload into the output checks (tests).
	corrupt bool
	out     io.Writer
}

// outcome is what a workload's timed run measured.
type outcome struct {
	setup     float64   // this process's set-up seconds
	attempted int       // operations tried in the timed phase
	failed    int       // flow errors, non-200s and failed output checks
	configs   int       // configs answered correctly
	wall      float64   // timed-phase seconds
	cpu       float64   // process user+sys seconds in the timed phase
	peakRSSMB float64   // peak resident set of the timed phase
	latencies []float64 // per-config seconds
	passes    []float64 // timed seconds of each pass
	counts    []count   // deterministic counts
	failures  []string  // why each failure failed
}

// count is a deterministic count: the same inputs must reproduce it exactly.
type count struct {
	name  string
	value float64
}

func (o *outcome) fail(format string, args ...any) {
	o.failed++
	o.failures = append(o.failures, fmt.Sprintf(format, args...))
}

// metricValue is one metric of the final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// workloadDef binds a workload name to its set-up and timed run.
type workloadDef struct {
	name string
	// setupOnly performs the workload's set-up in a fresh process and
	// returns its duration (the child-process setup_s sample).
	setupOnly func(o *options) (float64, error)
	run       func(o *options) (*outcome, error)
}

var workloads = []workloadDef{
	{"study-matrix", matrixSetupOnly, runMatrix},
	{"clock-sweep", sweepSetupOnly, runSweep},
	{"ppa-service", serviceSetupOnly, runService},
}

func findWorkload(name string) (workloadDef, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q (one of %s)", name, strings.Join(names, ", "))
}

func main() {
	if err := mainErr(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "tmi3dbench:", err)
		os.Exit(1)
	}
}

func mainErr(args []string) error {
	fs := flag.NewFlagSet("tmi3dbench", flag.ContinueOnError)
	o := &options{out: os.Stdout, setups: setupRuns}
	fs.StringVar(&o.workload, "workload", "", "workload name, or all to run every workload in turn in this process")
	fs.Uint64Var(&o.seed, "seed", 1, "workload seed")
	fs.Float64Var(&o.seconds, "seconds", 20, "timed-phase length in seconds")
	trace := fs.Int("trace", 0, "1 runs the traced suite and prints per-layer metrics")
	fs.Float64Var(&o.scale, "scale", defaultScale, "circuit scale")
	fs.StringVar(&o.workdir, "workdir", filepath.Join(".bench_build", "work"), "scratch directory")
	setupOnly := fs.Bool("setup-only", false, "perform set-up once, print its seconds, exit")
	record := fs.Bool("record-digests", false, "print the study-matrix digests at --scale for digests.json, exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *record {
		return printDigests(o)
	}
	if o.seconds <= 0 {
		return errors.New("--seconds must be positive")
	}
	if *trace != 0 && *trace != 1 {
		return errors.New("--trace must be 0 or 1")
	}
	ws := workloads
	if o.workload != "all" {
		w, err := findWorkload(o.workload)
		if err != nil {
			return err
		}
		ws = []workloadDef{w}
	}
	if *trace == 1 {
		ws = ws[:1] // the traced suite covers every workload
	}
	o.srcRoot = "."
	if err := os.MkdirAll(o.workdir, 0o755); err != nil {
		return err
	}
	var errs []error
	for _, w := range ws {
		if err := runOne(*o, w, *setupOnly, *trace == 1); err != nil {
			errs = append(errs, err)
		}
	}
	return errors.Join(errs...)
}

// runOne runs one workload in its own scratch directory under o.workdir.
func runOne(o options, w workloadDef, setupOnly, traced bool) error {
	dir, err := os.MkdirTemp(o.workdir, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	o.workload, o.workdir = w.name, dir
	switch {
	case setupOnly:
		s, err := w.setupOnly(&o)
		if err != nil {
			return err
		}
		_, err = fmt.Fprintf(o.out, "setup_s %s\n", strconv.FormatFloat(s, 'g', -1, 64))
		return err
	case traced:
		return runTraced(&o)
	default:
		return runTimed(&o, w)
	}
}

// childSetups measures set-up in n fresh child processes, one at a time.
func childSetups(o *options, n int) ([]float64, error) {
	if n <= 0 {
		return nil, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	var out []float64
	for i := 0; i < n; i++ {
		cmd := exec.Command(exe, "--setup-only", "--workload", o.workload,
			"--seed", strconv.FormatUint(o.seed, 10), "--scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
			"--workdir", o.workdir)
		cmd.Stderr = os.Stderr
		b, err := cmd.Output()
		if err != nil {
			return nil, fmt.Errorf("set-up child: %w", err)
		}
		lines := strings.Split(strings.TrimSpace(string(b)), "\n")
		v, ok := strings.CutPrefix(lines[len(lines)-1], "setup_s ")
		if !ok {
			return nil, fmt.Errorf("set-up child printed %q", lines[len(lines)-1])
		}
		s, err := strconv.ParseFloat(v, 64)
		if err != nil {
			return nil, err
		}
		out = append(out, s)
	}
	return out, nil
}

// runTimed runs one workload with tracing off and prints its end-to-end
// metrics. It returns an error (non-zero exit) if any output check failed.
func runTimed(o *options, w workloadDef) error {
	env := readEnvironment(o.srcRoot)
	fmt.Fprintf(o.out, "tmi3dbench workload=%s seed=%d seconds=%g scale=%g trace=0\n", o.workload, o.seed, o.seconds, o.scale)
	fmt.Fprintf(o.out, "env %s seed=%d scale=%g\n", env, o.seed, o.scale)
	setups, err := childSetups(o, o.setups-1)
	if err != nil {
		return err
	}
	res, err := w.run(o)
	if err != nil {
		return err
	}
	setups = append(setups, res.setup)
	return report(o, res, setups)
}

// report prints the end-to-end metrics, the lines that go with them, and the
// result line.
func report(o *options, res *outcome, setups []float64) error {
	ms := []metric{
		{"setup_s", "s", median(setups)},
		{"configs_per_s", "1/s", float64(res.configs) / res.wall},
		{"latency_p50_s", "s", median(res.latencies)},
		{"cpu_s_per_config", "s", res.cpu / float64(max(res.configs, 1))},
		{"peak_rss_mb", "MiB", res.peakRSSMB},
	}
	extra := []string{
		fmt.Sprintf("metric %-32s %s", "latency_p99_s", tailNote(res.latencies, 99)),
		fmt.Sprintf("metric %-32s %.6g ratio (%d of %d)", "fail_frac",
			float64(res.failed)/float64(max(res.attempted, 1)), res.failed, res.attempted),
		fmt.Sprintf("detail setup_samples_s=%v timed_s=%.4g pass_s=%v configs=%d latency_samples=%d",
			fmtFloats(setups), res.wall, fmtFloats(res.passes), res.configs, len(res.latencies)),
	}
	for _, c := range res.counts {
		extra = append(extra, fmt.Sprintf("count %s %s", c.name, strconv.FormatFloat(c.value, 'f', -1, 64)))
	}
	return finish(o, "metric", ms, extra, res)
}

// metric is one named measurement.
type metric struct {
	name, unit string
	v          float64
}

// finish prints the metrics, the extra lines and the failures, then the
// JSON result line last. A NaN or infinite metric (nothing was there to
// measure it on) is left out of the result and counts as a failure. It
// returns an error if any check failed.
func finish(o *options, prefix string, ms []metric, extra []string, res *outcome) error {
	w := o.out
	metrics := map[string]metricValue{}
	for _, m := range ms {
		fmt.Fprintf(w, "%s %-32s %.6g %s\n", prefix, m.name, m.v, m.unit)
		if math.IsNaN(m.v) || math.IsInf(m.v, 0) {
			res.fail("%s: nothing to measure it on", m.name)
			continue
		}
		metrics[m.name] = metricValue{Value: m.v, Unit: m.unit}
	}
	for _, l := range extra {
		fmt.Fprintln(w, l)
	}
	for i, f := range res.failures {
		if i == 20 {
			fmt.Fprintf(w, "failure ... %d more\n", len(res.failures)-20)
			break
		}
		fmt.Fprintf(w, "failure %s\n", f)
	}
	line := resultLine{
		Correct:   res.failed == 0 && res.attempted > 0,
		Attempted: max(res.attempted, 1),
		Failed:    res.failed,
		Metrics:   metrics,
	}
	if res.attempted == 0 {
		line.Failed = 1
	}
	if err := printJSON(w, line); err != nil {
		return err
	}
	if !line.Correct {
		return fmt.Errorf("%s: %d of %d operations failed their checks", o.workload, res.failed, res.attempted)
	}
	return nil
}

func printJSON(w io.Writer, v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return fmt.Errorf("result line: %w", err)
	}
	_, err = fmt.Fprintln(w, string(b))
	return err
}

func fmtFloats(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = strconv.FormatFloat(x, 'g', 4, 64)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// deadline is the timed phase's budget: a workload starts another unit of
// work (a pass) only while the time measured so far, plus the mean unit cost,
// stays within it.
type deadline struct {
	budget float64
	spent  float64
	units  int
}

func (d *deadline) add(sec float64) { d.spent += sec; d.units++ }

func (d *deadline) more() bool {
	if d.units == 0 {
		return true
	}
	return d.spent+d.spent/float64(d.units) <= d.budget*1.1
}
