// Command perfbench is the repository's end-to-end benchmark. It runs one
// named workload against the code in the checkout, checks every verdict the
// system under test produces, and prints one JSON result line:
//
//	perfbench -root . -workload live-floor -seed 1 -seconds 15 -trace 0
//
// Workloads (see README.md):
//
//	live-floor     open-loop printer lines streaming UM3 prints into nsyncd
//	session-churn  closed-loop short sessions with transport defects
//	repro-eval     EvaluateNSYNC over the CI roster of both printers
//
// nsyncd runs as a child process built from the same checkout, so its CPU
// time and peak RSS are its own. With -trace 1 the run records spans around
// the benchmark's calls into each package and reports per-layer metrics
// instead of the end-to-end ones.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
)

// metricDef is one reported metric: its name and unit.
type metricDef struct{ name, unit string }

// endToEnd lists the metrics every untraced run reports.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"verdict_ms_p50", "ms"},
	{"verdict_ms_p90", "ms"},
	{"printer_s_per_cpu_s", "printer-s/CPU-s"},
	{"sessions_per_s", "1/s"},
	{"eval_s", "s"},
	{"peak_rss_mb", "MB"},
}

// fftSizes are the transform sizes the FFT layer is timed at: every
// power of two the workloads' correlation and spectrogram shapes use.
var fftSizes = []int{256, 512, 2048, 8192, 32768, 65536}

// perLayer lists the metrics every traced run reports.
func perLayer() []metricDef {
	var out []metricDef
	for _, n := range fftSizes {
		out = append(out, metricDef{fmt.Sprintf("fft.ns_per_transform.%d", n), "ns"})
	}
	out = append(out,
		metricDef{"fft.transforms_per_window", "count"},
		metricDef{"fft.mb_per_window", "MB"},
	)
	for _, s := range probeShapes {
		out = append(out, metricDef{"tde.delay_us." + s.name, "us"})
	}
	out = append(out, metricDef{"tde.calls", "count"})
	for _, s := range probeShapes {
		out = append(out, metricDef{"dwm.step_us." + s.name, "us"})
	}
	return append(out,
		metricDef{"dwm.steps", "count"},
		metricDef{"stft.ms_per_run", "ms"},
		metricDef{"stft.frames", "count"},
		metricDef{"core.push_us_per_frame", "us"},
		metricDef{"core.finish_ms", "ms"},
		metricDef{"core.features_ms_per_run", "ms"},
		metricDef{"core.windows", "count"},
		metricDef{"ingest.codec_ns_per_frame", "ns"},
		metricDef{"ingest.reseq_ns_per_frame", "ns"},
		metricDef{"ingest.reseq_useful_ratio", "ratio"},
		metricDef{"ingest.dial_ms", "ms"},
		metricDef{"ingest.dials_per_session", "count"},
		metricDef{"ingest.pool_acquire_us", "us"},
		metricDef{"ingest.capture_state_us", "us"},
		metricDef{"ingest.state_kb", "KB"},
		metricDef{"ingest.journal_snapshot_us", "us"},
		metricDef{"ingest.journal_kb_per_session", "KB"},
		metricDef{"experiment.generate_s.UM3", "s"},
		metricDef{"experiment.generate_s.RM3", "s"},
		metricDef{"experiment.train_s", "s"},
		metricDef{"experiment.classify_s", "s"},
		metricDef{"experiment.windows", "count"},
		metricDef{"nsyncd.cpu_s", "s"},
		metricDef{"nsyncd.busy_share", "share"},
		metricDef{"nsyncd.dsp_share", "share"},
		metricDef{"nsyncd.queue_depth_max", "count"},
		metricDef{"nsyncd.frames", "count"},
		metricDef{"nsyncd.repaired_frames", "count"},
		metricDef{"nsyncd.journal_appends", "count"},
		metricDef{"loadgen.late_ms_p99", "ms"},
		metricDef{"loadgen.cpu_share", "share"},
		metricDef{"trace.dsp_share", "share"},
		metricDef{"trace.ingest_share", "share"},
		metricDef{"trace.overhead_share", "share"},
	)
}

// result is the JSON line every run ends with.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runConfig is what every workload receives.
type runConfig struct {
	root     string // checkout root
	workload string
	work     string // this run's private scratch directory
	nsyncd   string // path of the nsyncd binary under test
	seed     int64
	seconds  float64
	trace    bool
}

// outcome is what a workload returns: verdict bookkeeping plus raw metric
// values keyed by name (units come from the catalogue).
type outcome struct {
	attempted, failed int
	firstErr          error
	metrics           map[string]float64
}

func (o *outcome) fail(err error) {
	o.failed++
	if o.firstErr == nil {
		o.firstErr = err
	}
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"live-floor":    runLiveFloor,
	"session-churn": runSessionChurn,
	"repro-eval":    runReproEval,
}

func main() {
	var (
		root     = flag.String("root", ".", "checkout root (holds cmd/nsyncd and .bench_build)")
		workload = flag.String("workload", "", "workload name: live-floor, session-churn, or repro-eval")
		seed     = flag.Int64("seed", 1, "input seed: the same seed gives the same inputs")
		seconds  = flag.Float64("seconds", 15, "measurement time per run")
		trace    = flag.Int("trace", 0, "1 = traced run reporting per-layer metrics")
		child    = flag.String("child", "", "internal: run a child-process role (repro)")
		record   = flag.Bool("record", false, "repro-eval: record the roster's confusion counts instead of checking them")
	)
	flag.Parse()
	if *child != "" {
		if err := runChild(*child, *root, *seed, *seconds, *trace == 1); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench child:", err)
			os.Exit(1)
		}
		return
	}
	recordCounts = *record
	// The load generator's own garbage collection runs on the cores nsyncd
	// is measured on; a small, short-lived heap needs it rarely.
	debug.SetGCPercent(800)
	if err := run(*root, *workload, *seed, *seconds, *trace == 1); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(root, workload string, seed int64, seconds float64, trace bool) error {
	fn, ok := workloads[workload]
	if !ok {
		return fmt.Errorf("unknown workload %q", workload)
	}
	root, err := filepath.Abs(root)
	if err != nil {
		return err
	}
	nsyncd := filepath.Join(root, ".bench_build", "bin", "nsyncd")
	if _, err := os.Stat(nsyncd); err != nil {
		return fmt.Errorf("nsyncd binary not built: %w", err)
	}
	work, err := os.MkdirTemp(filepath.Join(root, ".bench_build"), "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(work)
	cfg := runConfig{root: root, workload: workload, work: work, nsyncd: nsyncd, seed: seed, seconds: seconds, trace: trace}
	out, err := fn(cfg)
	if err != nil {
		return err
	}
	if out.firstErr != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %d of %d failed, first: %v\n", out.failed, out.attempted, out.firstErr)
	}
	defs := endToEnd
	if trace {
		defs = perLayer()
	}
	res := result{
		Correct:   out.failed == 0,
		Attempted: max(out.attempted, 1),
		Failed:    out.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	var missing []string
	for _, d := range defs {
		v, ok := out.metrics[d.name]
		if !ok {
			missing = append(missing, d.name)
			continue
		}
		res.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	if len(missing) > 0 {
		sort.Strings(missing)
		return fmt.Errorf("workload %s did not report %s", workload, strings.Join(missing, ", "))
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	return nil
}

// nproc is the core count the load generator and the experiment engine
// size themselves to.
func nproc() int { return runtime.NumCPU() }
