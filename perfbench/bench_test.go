package main

// Tests of the benchmark itself. Run them from this directory:
//
//	go test .          # builds nsyncd, runs the stream workloads briefly
//	go test -short .   # catalogue and input checks only

import (
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"reflect"
	"testing"
)

// TestBenchmarkJSONMatchesCatalogue pins BENCHMARK.json's metric lists to
// the metrics the runs actually report.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bench struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &bench); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []metricDef) {
		t.Helper()
		gm := map[string]string{}
		for _, m := range got {
			gm[m.Name] = m.Unit
		}
		wm := map[string]string{}
		for _, m := range want {
			wm[m.name] = m.unit
		}
		if !reflect.DeepEqual(gm, wm) {
			t.Errorf("%s metrics in BENCHMARK.json %v, reported %v", kind, gm, wm)
		}
	}
	check("end_to_end", bench.EndToEnd, endToEnd)
	check("per_layer", bench.PerLayer, perLayer())
}

// TestSeedsChangeInputs: two seeds must give different inputs, and the
// same seed the same inputs.
func TestSeedsChangeInputs(t *testing.T) {
	_, a, err := churnInputs(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, again, err := churnInputs(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, b, err := churnInputs(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a[0].frames, again[0].frames) || !reflect.DeepEqual(a[0].want, again[0].want) {
		t.Error("seed 1 gave different session-churn inputs on two calls")
	}
	if reflect.DeepEqual(a[0].frames, b[0].frames) {
		t.Error("seeds 1 and 2 gave the same session-churn inputs")
	}
	if testing.Short() {
		return
	}
	_, fa, _, err := floorInputs(t.TempDir(), 1)
	if err != nil {
		t.Fatal(err)
	}
	_, fb, _, err := floorInputs(t.TempDir(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(fa[0].frames, fb[0].frames) {
		t.Error("seeds 1 and 2 gave the same live-floor inputs")
	}
	if rosterSeed(1) == rosterSeed(2) || rosterSeed(heldOutSeed) == rosterSeed(1) {
		t.Error("seeds 1, 2 and the held-out seed must select different repro-eval rosters")
	}
}

// TestSeedsPassGate runs the stream workloads briefly against a freshly
// built nsyncd on two seeds: every verdict must match its reference.
// repro-eval's gate needs the full rosters (minutes), so it is left to
// the benchmark runs themselves.
func TestSeedsPassGate(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs nsyncd")
	}
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	work := t.TempDir()
	bin := filepath.Join(work, "nsyncd")
	build := exec.Command("go", "build", "-o", bin, "nsync/cmd/nsyncd")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("build nsyncd: %v\n%s", err, out)
	}
	for _, w := range []string{"session-churn", "live-floor"} {
		for _, seed := range []int64{1, 2} {
			dir := t.TempDir()
			out, err := workloads[w](runConfig{root: root, workload: w, work: dir, nsyncd: bin, seed: seed, seconds: 2})
			if err != nil {
				t.Fatalf("%s seed %d: %v", w, seed, err)
			}
			if out.failed > 0 || out.attempted == 0 {
				t.Errorf("%s seed %d: %d of %d failed, first: %v", w, seed, out.failed, out.attempted, out.firstErr)
			}
		}
	}
}
