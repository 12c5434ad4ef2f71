package nsync

// The BENCH_nsync.json harness: when benchmarks are requested (any
// -bench pattern), TestMain re-runs the headline probes — the evaluation
// scaling curve, DWM throughput, and the sensor-drift recovery sweep —
// via testing.Benchmark after the normal run and writes their results as
// machine-readable JSON, so CI can archive a perf trajectory next to the
// human-readable benchmark log. A plain `go test ./...` never writes the
// file.
//
//	go test -bench . -run '^$' -benchtime 1x .
//
// produces BENCH_nsync.json in the working directory.

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"testing"

	"nsync/internal/dwm"
	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/sensor"
)

// benchJSONPath is where TestMain writes the results.
const benchJSONPath = "BENCH_nsync.json"

func TestMain(m *testing.M) {
	code := m.Run()
	if code == 0 && benchRequested() {
		if err := writeBenchJSON(benchJSONPath); err != nil {
			fmt.Fprintln(os.Stderr, "bench json:", err)
			code = 1
		}
	}
	os.Exit(code)
}

// benchRequested reports whether this test invocation asked for benchmarks
// (-bench / -test.bench with a non-empty pattern).
func benchRequested() bool {
	f := flag.Lookup("test.bench")
	return f != nil && f.Value.String() != ""
}

// benchRecord is one benchmark result in BENCH_nsync.json.
type benchRecord struct {
	Name        string  `json:"name"`
	N           int     `json:"n"`
	NsPerOp     float64 `json:"ns_per_op"`
	AllocsPerOp int64   `json:"allocs_per_op"`
	BytesPerOp  int64   `json:"bytes_per_op"`
	// StepsPerSec is the DWM window-processing throughput (windows of
	// observed signal synchronized per wall-clock second); zero for
	// benchmarks where it does not apply.
	StepsPerSec float64            `json:"steps_per_sec,omitempty"`
	Extra       map[string]float64 `json:"extra,omitempty"`
}

// writeBenchJSON runs the serial vs parallel evaluation probes and the DWM
// synchronization throughput probe under testing.Benchmark (which honours
// -test.benchtime) and writes the results.
func writeBenchJSON(path string) error {
	// One evaluation probe per explicit worker count (1/2/4/8): the JSON
	// gains a real scaling curve, each row carrying the worker count it was
	// actually benchmarked at. The old harness's single "Parallel" probe
	// used workers = 0, which resolves to GOMAXPROCS and on a single-core
	// runner recorded workers: 1 — an unmeasured curve (see
	// benchEvaluateNSYNC).
	probes := []struct {
		name string
		f    func(b *testing.B)
	}{
		{"EvaluateNSYNCSerial", func(b *testing.B) { b.ReportAllocs(); benchEvaluateNSYNC(b, 1) }},
		{"EvaluateNSYNCParallel/workers=2", func(b *testing.B) { b.ReportAllocs(); benchEvaluateNSYNC(b, 2) }},
		{"EvaluateNSYNCParallel/workers=4", func(b *testing.B) { b.ReportAllocs(); benchEvaluateNSYNC(b, 4) }},
		{"EvaluateNSYNCParallel/workers=8", func(b *testing.B) { b.ReportAllocs(); benchEvaluateNSYNC(b, 8) }},
		{"DWMSyncRawAudio", benchDWMSteps},
		// The continuous-operations probe: no throughput, but its Extra
		// metrics record the drift decay/recovery outcome that benchcheck
		// asserts on (rebased FPR must end near the fresh-retrain floor).
		{"DriftSweepACC", benchDriftSweep},
		// The fleet serving probe: one Server under a wave of mixed
		// concurrent sessions. Its Extra metrics are the operator-facing
		// fleet numbers (sessions per core-second, p99 verdict latency,
		// shed rate) and a wrong_verdicts count benchcheck pins at zero.
		{"FleetLoad", BenchmarkFleetLoad},
		// The crash-safety probe: the same wave served journal-on vs
		// journal-off. Its Extra metrics carry the on/off throughput ratio
		// benchcheck floors (journaling may cost at most ~10–15%) and a
		// wrong_verdicts count pinned at zero across both arms.
		{"JournalOverhead", BenchmarkJournalOverhead},
		// The drain probe: a two-peer fleet hands every live session to its
		// successor mid-wave. Its Extra metrics carry the migration count,
		// the p99 client-observed pause across the drain, and a
		// wrong_verdicts count benchcheck pins at zero — migration must
		// never change a verdict.
		{"FleetHandoffLatency", BenchmarkFleetHandoffLatency},
	}
	var records []benchRecord
	for _, p := range probes {
		res := testing.Benchmark(p.f)
		if res.N == 0 {
			return fmt.Errorf("benchmark %s failed (zero iterations)", p.name)
		}
		rec := benchRecord{
			Name:        p.name,
			N:           res.N,
			NsPerOp:     float64(res.T.Nanoseconds()) / float64(res.N),
			AllocsPerOp: res.AllocsPerOp(),
			BytesPerOp:  res.AllocedBytesPerOp(),
			Extra:       res.Extra,
		}
		if w, ok := res.Extra["windows_per_op"]; ok && res.T > 0 {
			rec.StepsPerSec = w * float64(res.N) / res.T.Seconds()
		}
		records = append(records, rec)
	}
	out, err := json.MarshalIndent(struct {
		Results []benchRecord `json:"results"`
	}{records}, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(out, '\n'), 0o644)
}

// benchDWMSteps is BenchmarkDWMSyncRawAudio with the per-op window count
// reported, so the JSON writer can derive DWM steps/sec.
func benchDWMSteps(b *testing.B) {
	b.ReportAllocs()
	ds := benchDatasets(b)["UM3"]
	ref, err := ds.Ref.Signal(sensor.AUD, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	obs, err := ds.TestBenign[0].Signal(sensor.AUD, ids.Raw)
	if err != nil {
		b.Fatal(err)
	}
	params := experiment.CI().DWM["UM3"]
	s, err := dwm.NewSynchronizer(ref, params)
	if err != nil {
		b.Fatal(err)
	}
	windows := s.NumWindows(obs.Len())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := dwm.Run(obs, ref, params); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(windows), "windows_per_op")
	b.ReportMetric(obs.Duration(), "signal_s_per_op")
}
