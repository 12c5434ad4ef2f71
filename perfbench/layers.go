package main

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"time"

	"nsync/internal/dwm"
	"nsync/internal/experiment"
	"nsync/internal/fft"
	"nsync/internal/obs"
	"nsync/internal/sensor"
	"nsync/internal/stft"
	"nsync/internal/tde"
)

// probeShape is one window and search shape a workload's DWM runs at: the
// channel's rate and lane count with the DWM parameters it is judged with.
type probeShape struct {
	name   string
	rate   float64
	lanes  int
	params dwm.Params
}

// probeShapes are every DWM shape the three workloads produce: live-floor
// streams UM3 ACC, MAG and AUD; session-churn the FleetLoad ACC and MAG;
// repro-eval both printers' ACC/raw, AUD/raw and AUD/spectro.
var probeShapes = func() []probeShape {
	ci := experiment.CI()
	rates := ci.Sensor.Rates
	spec := ci.Spectro[sensor.AUD]
	specLanes := 2 * spec.Bins(rates.AUD) // the spectrogram of AUD's two lanes
	um3, rm3 := ci.DWM["UM3"], ci.DWM["RM3"]
	return []probeShape{
		{"UM3-ACC", rates.ACC, 6, um3},
		{"UM3-MAG", rates.MAG, 3, um3},
		{"UM3-AUD", rates.AUD, 2, um3},
		{"UM3-AUDspec", 1 / spec.DeltaT, specLanes, um3},
		{"RM3-ACC", rates.ACC, 6, rm3},
		{"RM3-AUD", rates.AUD, 2, rm3},
		{"RM3-AUDspec", 1 / spec.DeltaT, specLanes, rm3},
		{"churn-ACC", churnRate, 2, churnParams},
		{"churn-MAG", churnRate, 1, churnParams},
	}
}()

// fftSize is the correlation transform size of one TDE estimate at shape
// s: the fast path zero-pads the search region (n_win + 2 n_ext samples)
// plus the window to a power of two.
func (s probeShape) fftSize() int {
	sp := s.params.Samples(s.rate)
	return fft.NextPow2(2*sp.NWin + 2*sp.NExt)
}

// transformsPerEstimate is how many FFTs of fftSize one TDE estimate runs
// per lane on the fast path at this commit: forward transforms of both
// operands and one inverse.
const transformsPerEstimate = 3

// fftLoad converts per-shape window counts into FFT work per DWM window:
// transforms, and megabytes of complex128 data transformed. perStep is the
// measured TDE estimates per DWM step.
func fftLoad(windows map[string]float64, perStep float64) (perWindow, mbPerWindow float64) {
	var total, transforms, bytes float64
	for _, s := range probeShapes {
		w := windows[s.name]
		n := w * perStep * transformsPerEstimate * float64(s.lanes)
		total += w
		transforms += n
		bytes += n * float64(s.fftSize()) * 16
	}
	return transforms / total, bytes / total / 1e6
}

// timeIt runs f in batches until each batch covers at least 20 ms, and
// returns the median time per call over five batches.
func timeIt(f func()) time.Duration {
	n := 1
	for {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		if time.Since(start) >= 20*time.Millisecond {
			break
		}
		n *= 2
	}
	var per []float64
	for b := 0; b < 5; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per))
}

// probeLayers times the layers below core on every probe shape by calling
// their public functions directly: fft transforms at each size, one TDE
// estimate and one DWM step per shape, and one spectrogram of a CI-scale
// AUD print.
func probeLayers(m map[string]float64) error {
	rng := rand.New(rand.NewSource(7))
	sizes := map[int]bool{}
	for _, n := range fftSizes {
		sizes[n] = true
		x := make([]complex128, n)
		for i := range x {
			x[i] = complex(rng.NormFloat64(), 0)
		}
		buf := make([]complex128, n)
		d := timeIt(func() { copy(buf, x); fft.InPlace(buf) })
		m[fmt.Sprintf("fft.ns_per_transform.%d", n)] = float64(d.Nanoseconds())
		if cmplx.IsNaN(buf[0]) {
			return fmt.Errorf("fft probe produced NaN")
		}
	}
	for _, s := range probeShapes {
		if !sizes[s.fftSize()] {
			return fmt.Errorf("shape %s transforms at %d, not in the timed sizes %v", s.name, s.fftSize(), fftSizes)
		}
		sp := s.params.Samples(s.rate)
		const steps = 12
		ref := noiseSignal(rng, s.rate, s.lanes, sp.NWin+steps*sp.NHop+2*sp.NExt)
		obsd := perturbed(rng, ref)
		win := obsd.Slice(sp.NExt, sp.NExt+sp.NWin)
		search := ref.Slice(0, sp.NWin+2*sp.NExt)
		est := tde.New()
		var err error
		d := timeIt(func() { _, _, err = est.DelayBiasedAt(search, win, sp.NExt, sp.NSigma) })
		if err != nil {
			return err
		}
		m["tde.delay_us."+s.name] = float64(d) / 1e3
		sync, err := dwm.NewSynchronizer(ref, s.params)
		if err != nil {
			return err
		}
		var stepErr error
		var per []float64
		for rep := 0; rep < 3; rep++ {
			sync.Reset()
			start := time.Now()
			for i := 0; i < steps; i++ {
				if _, _, err := sync.Step(obsd.Slice(i*sp.NHop, i*sp.NHop+sp.NWin)); err != nil {
					stepErr = err
				}
			}
			per = append(per, float64(time.Since(start))/steps)
		}
		if stepErr != nil {
			return stepErr
		}
		m["dwm.step_us."+s.name] = median(per) / 1e3
	}
	ci := experiment.CI()
	cfg := ci.Spectro[sensor.AUD]
	aud := noiseSignal(rng, ci.Sensor.Rates.AUD, 2, int(65*ci.Sensor.Rates.AUD))
	if !sizes[fft.NextPow2(cfg.WindowSamples(aud.Rate))] {
		return fmt.Errorf("stft transforms at %d, not in the timed sizes %v", fft.NextPow2(cfg.WindowSamples(aud.Rate)), fftSizes)
	}
	var per []float64
	var frames int
	for rep := 0; rep < 3; rep++ {
		start := time.Now()
		spec, err := stft.Transform(aud, cfg)
		if err != nil {
			return err
		}
		per = append(per, ms(time.Since(start)))
		frames = spec.Len()
	}
	m["stft.ms_per_run"] = median(per)
	m["stft.frames"] = float64(frames)
	return nil
}

// obsSnap is a reading of the in-process obs counters and timers the
// traced runs difference around a phase.
type obsSnap struct {
	steps, stepSum, estimates, trainSum, classifySum, journalBytes float64
}

func snapObs() obsSnap {
	step := obs.GetTimer("dwm.step").Histogram()
	return obsSnap{
		steps:        float64(step.Count()),
		stepSum:      step.Sum(),
		estimates:    float64(obs.GetCounter("tde.estimates").Value()),
		trainSum:     obs.GetTimer("stage.train").Histogram().Sum(),
		classifySum:  obs.GetTimer("stage.classify").Histogram().Sum(),
		journalBytes: float64(obs.GetCounter("journal.bytes").Value()),
	}
}

func (a obsSnap) sub(b obsSnap) obsSnap {
	return obsSnap{
		a.steps - b.steps, a.stepSum - b.stepSum, a.estimates - b.estimates,
		a.trainSum - b.trainSum, a.classifySum - b.classifySum, a.journalBytes - b.journalBytes,
	}
}

// probeExperiment measures the experiment layer on stream workloads, which
// never run it themselves: a reduced CI roster per printer (2 training, 2
// benign and 1 run per attack) and one EvaluateNSYNC on UM3 ACC/raw.
func probeExperiment(m map[string]float64) error {
	scale := experiment.CI()
	scale.Counts = experiment.Counts{Train: 2, TestBenign: 2, PerAttack: 1}
	experiment.SetWorkers(nproc())
	var um3 *experiment.Dataset
	for _, prof := range experiment.Profiles() {
		start := time.Now()
		ds, err := experiment.Generate(scale, prof, 3)
		if err != nil {
			return err
		}
		m["experiment.generate_s."+prof.Name] = time.Since(start).Seconds()
		if prof.Name == "UM3" {
			um3 = ds
		}
	}
	before := snapObs()
	if _, err := experiment.EvaluateNSYNC(um3, sensor.ACC, reproCells[0].tf, newDWM(scale, "UM3"), scale.OCCMarginNSYNC); err != nil {
		return err
	}
	d := snapObs().sub(before)
	m["experiment.train_s"] = d.trainSum
	m["experiment.classify_s"] = d.classifySum
	m["experiment.windows"] = d.steps
	return nil
}
