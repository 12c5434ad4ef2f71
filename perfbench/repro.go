package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/obs"
	"nsync/internal/sensor"
)

// repro-eval: the batch end-to-end number. Set-up generates the CI rosters
// of both printers; the measured pass runs EvaluateNSYNC with DWM on
// ACC/raw, AUD/raw and AUD/spectro for each, with experiment workers =
// nproc, in a child process of its own so its peak RSS is the evaluation's.

// reproCell is one EvaluateNSYNC call of the roster.
type reproCell struct {
	ch sensor.Channel
	tf ids.Transform
}

var reproCells = []reproCell{{sensor.ACC, ids.Raw}, {sensor.AUD, ids.Raw}, {sensor.AUD, ids.Spectro}}

func cellKey(p string, c reproCell) string { return fmt.Sprintf("%s/%s/%s", p, c.ch, c.tf) }

// shape names the probe shape the cell's DWM runs at on printer p.
func (c reproCell) shape(p string) string {
	if c.tf == ids.Spectro {
		return fmt.Sprintf("%s-%sspec", p, c.ch)
	}
	return fmt.Sprintf("%s-%s", p, c.ch)
}

// Roster base seeds. A run's seed selects one of rosterSeeds; heldOutSeed
// selects a fifth roster that no tuning run used, kept for later claims.
// Each roster's confusion counts are recorded in reproCountsFile.
var rosterSeeds = []int64{11, 12, 13, 14}

// reproSetups is how many times set-up generates the rosters; setup_s is
// the median. Each generation takes ~12 s on two cores, so more would
// crowd the run.
const reproSetups = 2

const (
	heldOutSeed       = 1009
	heldOutRosterSeed = 15
	reproCountsFile   = "repro_counts.json"
)

func rosterSeed(seed int64) int64 {
	if seed == heldOutSeed {
		return heldOutRosterSeed
	}
	n := int64(len(rosterSeeds))
	return rosterSeeds[((seed%n)+n)%n]
}

// recordCounts makes repro-eval write its counts instead of checking them.
var recordCounts bool

// cellCounts is one cell's confusion counts: FP, TN, TP, FN for the overall
// verdict and for each discriminator sub-module alone.
type cellCounts [16]int

func countsOf(o experiment.NSYNCOutcome) cellCounts {
	var c cellCounts
	for i, oc := range []experiment.Outcome{o.Overall, o.CDisp, o.HDist, o.VDist} {
		copy(c[4*i:], []int{oc.FP, oc.TN, oc.TP, oc.FN})
	}
	return c
}

// reproReport is what the evaluation child prints as JSON.
type reproReport struct {
	SetupS    []float64             `json:"setup_s"`
	GenerateS map[string]float64    `json:"generate_s"`
	PassS     []float64             `json:"pass_s"`
	CellS     []float64             `json:"cell_s"`
	CPUS      float64               `json:"cpu_s"`
	PeakRSSMB float64               `json:"peak_rss_mb"` // before any traced extras
	PrinterS  float64               `json:"printer_s"`
	Runs      int                   `json:"runs"`
	CellGapMS []float64             `json:"cell_gap_ms"`
	Counts    map[string]cellCounts `json:"counts"`
	// Attempted and Failed count the traced run's loopback sessions.
	Attempted  int                `json:"attempted"`
	Failed     int                `json:"failed"`
	FirstErr   string             `json:"first_err,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	RosterSeed int64              `json:"roster_seed"`
}

func runReproEval(cfg runConfig) (*outcome, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	args := []string{"-child", "repro", "-root", cfg.root, "-seed", fmt.Sprint(cfg.seed), "-seconds", fmt.Sprint(cfg.seconds)}
	if cfg.trace {
		args = append(args, "-trace", "1")
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout = &stdout
	cmd.Stderr = os.Stderr
	cmd.Dir = cfg.work
	cmd.SysProcAttr = dieWithParent()
	g0, start := selfCPU(), time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("evaluation process: %w", err)
	}
	genShare := (selfCPU() - g0) / (time.Since(start).Seconds() * float64(nproc()))
	var rep reproReport
	if err := json.Unmarshal(stdout.Bytes(), &rep); err != nil {
		return nil, fmt.Errorf("evaluation process output: %w", err)
	}
	out := &outcome{metrics: map[string]float64{}, attempted: rep.Attempted, failed: rep.Failed}
	if rep.FirstErr != "" {
		out.firstErr = errors.New(rep.FirstErr)
	}
	if err := checkCounts(cfg.root, rep, out); err != nil {
		return nil, err
	}
	evalS := median(rep.PassS)
	m := out.metrics
	m["setup_s"] = median(rep.SetupS)
	// A batch operator waits for a cell's verdicts, not for one print's:
	// the latency quantiles are over the roster's cells.
	var cellMS []float64
	for _, s := range rep.CellS {
		cellMS = append(cellMS, s*1e3)
	}
	m["verdict_ms_p50"] = quantile(cellMS, 0.5)
	m["verdict_ms_p90"] = quantile(cellMS, 0.9)
	m["printer_s_per_cpu_s"] = rep.PrinterS / rep.CPUS
	m["sessions_per_s"] = float64(rep.Runs) / sum(rep.PassS)
	m["eval_s"] = evalS
	m["peak_rss_mb"] = rep.PeakRSSMB
	for k, v := range rep.Layers {
		m[k] = v
	}
	m["loadgen.cpu_share"] = genShare
	return out, nil
}

func sum(vs []float64) float64 {
	var s float64
	for _, v := range vs {
		s += v
	}
	return s
}

// checkCounts compares every cell's confusion counts with the recorded
// ones (or records them with -record).
func checkCounts(root string, rep reproReport, out *outcome) error {
	path := filepath.Join(root, "perfbench", reproCountsFile)
	recorded := map[string]map[string]cellCounts{}
	if b, err := os.ReadFile(path); err == nil {
		if err := json.Unmarshal(b, &recorded); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	} else if !recordCounts {
		return err
	}
	key := fmt.Sprint(rep.RosterSeed)
	if recordCounts {
		recorded[key] = rep.Counts
		b, err := json.MarshalIndent(recorded, "", "  ")
		if err != nil {
			return err
		}
		return os.WriteFile(path, append(b, '\n'), 0o644)
	}
	want, ok := recorded[key]
	if !ok {
		return fmt.Errorf("no recorded counts for roster seed %s", key)
	}
	keys := make([]string, 0, len(want))
	for k := range want {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		out.attempted++
		if got, ok := rep.Counts[k]; !ok || got != want[k] {
			out.fail(fmt.Errorf("roster %s cell %s: counts %v, recorded %v", key, k, got, want[k]))
		}
	}
	return nil
}

// ---- the evaluation child ----

func runChild(role, root string, seed int64, seconds float64, trace bool) error {
	if role != "repro" {
		return fmt.Errorf("unknown child role %q", role)
	}
	rep, err := reproEval(root, seed, seconds, trace)
	if err != nil {
		return err
	}
	return json.NewEncoder(os.Stdout).Encode(rep)
}

func reproEval(root string, seed int64, seconds float64, trace bool) (*reproReport, error) {
	experiment.SetWorkers(nproc())
	scale := experiment.CI()
	rep := &reproReport{RosterSeed: rosterSeed(seed), GenerateS: map[string]float64{}, Counts: map[string]cellCounts{}}
	var datasets map[string]*experiment.Dataset
	for i := 0; i < reproSetups; i++ {
		// Let the previous rosters go before generating them again, so
		// repeating set-up does not raise the peak RSS.
		datasets = map[string]*experiment.Dataset{}
		runtime.GC()
		start := time.Now()
		for _, prof := range experiment.Profiles() {
			t := time.Now()
			ds, err := experiment.Generate(scale, prof, rep.RosterSeed)
			if err != nil {
				return nil, err
			}
			rep.GenerateS[prof.Name] = time.Since(t).Seconds()
			datasets[prof.Name] = ds
		}
		rep.SetupS = append(rep.SetupS, time.Since(start).Seconds())
	}

	// One pass judges every cell of both printers; passes repeat until the
	// requested measurement time is covered. With tracing, each cell runs
	// inside a span and its DWM steps are counted per shape.
	var tr *tracer
	if trace {
		obs.SetEnabled(true)
		tr = newTracer()
	}
	cellSteps := map[string]float64{}
	before := snapObs()
	c0 := selfCPU()
	prevEnd := time.Now()
	for pass := 0; pass == 0 || sum(rep.PassS) < seconds; pass++ {
		t := time.Now()
		for _, prof := range experiment.Profiles() {
			ds := datasets[prof.Name]
			for _, cell := range reproCells {
				key := cellKey(prof.Name, cell)
				ct := time.Now()
				// A cell is due the moment the previous one returned.
				rep.CellGapMS = append(rep.CellGapMS, ms(ct.Sub(prevEnd)))
				sp := tr.begin("experiment.evaluate_nsync", key, 0)
				s0 := snapObs()
				o, err := experiment.EvaluateNSYNC(ds, cell.ch, cell.tf, newDWM(scale, prof.Name), scale.OCCMarginNSYNC)
				if err != nil {
					return nil, err
				}
				tr.end(sp)
				prevEnd = time.Now()
				cellSteps[cell.shape(prof.Name)] += snapObs().sub(s0).steps
				rep.CellS = append(rep.CellS, prevEnd.Sub(ct).Seconds())
				if prev, ok := rep.Counts[key]; ok && prev != countsOf(o) {
					return nil, fmt.Errorf("cell %s changed counts between passes", key)
				}
				rep.Counts[key] = countsOf(o)
				for _, runs := range [][]*ids.Run{ds.Train, ds.TestBenign, ds.TestMalicious} {
					for _, r := range runs {
						rep.PrinterS += r.Duration
					}
				}
				rep.Runs += len(ds.TestBenign) + len(ds.TestMalicious)
			}
		}
		rep.PassS = append(rep.PassS, time.Since(t).Seconds())
	}
	rep.CPUS = selfCPU() - c0
	var err error
	if rep.PeakRSSMB, err = peakRSSMB(0); err != nil {
		return nil, err
	}
	if trace {
		layers, err := reproLayers(root, seed, datasets, rep, snapObs().sub(before), cellSteps, tr)
		if err != nil {
			return nil, err
		}
		rep.Layers = layers
	}
	return rep, nil
}
