// Command perfbench is rpcrank's end-to-end benchmark. It starts rpcd
// nodes built from the checkout under test, drives one workload over real
// sockets, checks sampled answers against the in-process model, and prints
// every metric by name and unit; the last line of standard output is one
// JSON object {"correct", "attempted", "failed", "metrics"}.
//
// Run it through run.sh from the repository root, which builds rpcd and
// this program first:
//
//	bash perfbench/run.sh --workload small-open --seed 1 --seconds 20 --trace 0
//
// --trace 0 reports the end-to-end metrics, measured with tracing off.
// --trace 1 runs the workload's timed window with client tracing on every
// other request, then times calls into each layer's public functions
// in-process and reports the per-layer metrics (see README.md).
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"time"
)

// config is one invocation's settings.
type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	rpcd     string // rpcd binary built from the checkout
	work     string // per-run working directory inside the checkout
}

// metric is one reported value.
type metric struct {
	name  string
	value float64
	unit  string
	note  string // sample counts and bases, printed beside the value
}

// result is what a workload run produces.
type result struct {
	attempted, failed int
	wrong             int      // sampled answers that did not verify
	metrics           []metric // the mode's metrics: exactly these form the result line
	info              []metric // printed by name and unit beside them, not in the result line
	lines             []string // per-phase accounting, printed before the metrics
}

func (r *result) add(name string, value float64, unit, note string) {
	r.metrics = append(r.metrics, metric{name, value, unit, note})
}

// addInfo records a metric that is printed but not part of the result
// line: a wall-clock metric whose run-to-run spread on a shared virtual
// machine is wider than any regression bound (see README.md).
func (r *result) addInfo(name string, value float64, unit, note string) {
	r.info = append(r.info, metric{name, value, unit, note})
}

func (r *result) logf(format string, args ...any) {
	r.lines = append(r.lines, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(context.Context, *bench) error{
	"small-open":  runSmallOpen,
	"bulk-closed": runBulkClosed,
	"group-churn": runGroupChurn,
}

func main() {
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var cfg config
	var trace int
	fs.StringVar(&cfg.workload, "workload", "", "workload: small-open, bulk-closed or group-churn")
	fs.Int64Var(&cfg.seed, "seed", 1, "seed every input is generated from")
	fs.IntVar(&cfg.seconds, "seconds", 20, "length of the timed window, in seconds")
	fs.IntVar(&trace, "trace", 0, "1: traced run reporting per-layer metrics")
	fs.StringVar(&cfg.rpcd, "rpcd", "", "rpcd binary")
	build := fs.String("build-dir", ".bench_build", "directory for run files")
	if err := fs.Parse(args); err != nil {
		return 2, err
	}
	wl, ok := workloads[cfg.workload]
	if !ok {
		return 2, fmt.Errorf("unknown --workload %q", cfg.workload)
	}
	if cfg.seconds < 1 {
		return 2, errors.New("--seconds must be at least 1")
	}
	if cfg.rpcd == "" {
		return 2, errors.New("--rpcd is required (run through run.sh)")
	}
	cfg.trace = trace == 1
	// The generator keeps its own collector out of the latency samples as
	// far as it can: every request buffer it sends is pre-generated, and a
	// higher GC target makes collections rarer while it measures.
	debug.SetGCPercent(400)

	work, err := os.MkdirTemp(*build, "run-")
	if err != nil {
		return 2, err
	}
	cfg.work, _ = filepath.Abs(work)
	defer os.RemoveAll(work)

	ctx, cancel := context.WithTimeout(context.Background(), 170*time.Second)
	defer cancel()
	b := &bench{cfg: cfg, tr: newTracer()}
	runErr := wl(ctx, b)
	if runErr == nil && !cfg.trace {
		// Verification runs after the timed window, while the nodes are
		// still up to serve their rule documents. (A traced run verifies
		// before it stops the nodes for the in-process replay.)
		runErr = b.verify(ctx)
	}
	b.stopAll()
	if runErr != nil {
		return 1, runErr
	}
	res := &b.res
	printEnv(stdout, cfg)
	for _, l := range res.lines {
		fmt.Fprintln(stdout, l)
	}
	failed := res.failed + res.wrong
	res.addInfo("fail_frac", float64(failed)/float64(max(res.attempted, 1)), "ratio",
		fmt.Sprintf("(failed, shed, non-2xx or wrong: %d of %d attempted, %d wrong answers)", failed, res.attempted, res.wrong))
	for _, m := range res.info {
		fmt.Fprintf(stdout, "info   %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
	}
	out := map[string]any{}
	for _, m := range res.metrics {
		fmt.Fprintf(stdout, "metric %-28s %14.6g %-8s %s\n", m.name, m.value, m.unit, m.note)
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return 1, fmt.Errorf("metric %s is not finite", m.name)
		}
		out[m.name] = map[string]any{"value": m.value, "unit": m.unit}
	}
	if cfg.trace {
		spans := filepath.Join(*build, fmt.Sprintf("spans-%s-%d.jsonl", cfg.workload, cfg.seed))
		if err := b.tr.writeJSONL(spans); err != nil {
			return 1, err
		}
		fmt.Fprintf(stdout, "spans written to %s\n", spans)
	}
	correct := res.wrong == 0
	line, err := json.Marshal(map[string]any{
		"correct": correct, "attempted": res.attempted, "failed": failed, "metrics": out,
	})
	if err != nil {
		return 1, err
	}
	fmt.Fprintln(stdout, string(line))
	if !correct {
		return 1, fmt.Errorf("%d sampled answers did not verify", res.wrong)
	}
	return 0, nil
}

// printEnv records what the numbers were measured on.
func printEnv(w io.Writer, cfg config) {
	env := map[string]any{
		"workload":   cfg.workload,
		"seed":       cfg.seed,
		"seconds":    cfg.seconds,
		"trace":      cfg.trace,
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      runtime.NumCPU(),
		"cpu_model":  cpuModel(),
		"go_version": runtime.Version(),
	}
	b, _ := json.Marshal(env)
	fmt.Fprintf(w, "env %s\n", b)
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
