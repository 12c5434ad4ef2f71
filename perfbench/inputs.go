package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"

	"nsync/internal/core"
	"nsync/internal/dwm"
	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/ingest"
	"nsync/internal/printer"
	"nsync/internal/registry"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

// streamSetup is a trained daemon configuration: the .nsig files nsyncd
// boots from, plus the same model trained in-process for reference
// verdicts.
type streamSetup struct {
	channels []string
	specs    []ingest.ChannelSpec
	params   dwm.Params
	r        float64
	k        int
	// refPattern and trainPatterns are nsyncd's -ref and -train values.
	refPattern    string
	trainPatterns []string
	model         *registry.Model
}

// writeSetup stores the reference and training signals as nsyncd reads
// them and trains the identical model in-process, the way nsyncd's boot
// does: features of each training run, then OCC thresholds.
func writeSetup(dir string, names []string, ref []*sigproc.Signal, train [][]*sigproc.Signal, params dwm.Params, r float64, k int) (*streamSetup, error) {
	st := &streamSetup{channels: names, params: params, r: r, k: k, model: &registry.Model{K: k}}
	st.refPattern = filepath.Join(dir, "ref_%s.nsig")
	for i := range train {
		st.trainPatterns = append(st.trainPatterns, filepath.Join(dir, fmt.Sprintf("train%d_%%s.nsig", i)))
	}
	for c, name := range names {
		if err := ref[c].SaveFile(fmt.Sprintf(st.refPattern, name)); err != nil {
			return nil, err
		}
		for i, run := range train {
			if err := run[c].SaveFile(fmt.Sprintf(st.trainPatterns[i], name)); err != nil {
				return nil, err
			}
		}
	}
	for _, name := range names {
		refSig, err := sigproc.LoadFile(fmt.Sprintf(st.refPattern, name))
		if err != nil {
			return nil, err
		}
		det, err := core.NewDetector(refSig, core.Config{
			Sync: &core.DWMSynchronizer{Params: params},
			OCC:  core.OCCConfig{R: r},
		})
		if err != nil {
			return nil, err
		}
		var feats []*core.Features
		for _, pat := range st.trainPatterns {
			s, err := sigproc.LoadFile(fmt.Sprintf(pat, name))
			if err != nil {
				return nil, err
			}
			f, err := det.Features(s)
			if err != nil {
				return nil, err
			}
			feats = append(feats, f)
		}
		if err := det.TrainFromFeatures(feats); err != nil {
			return nil, err
		}
		th, err := det.Thresholds()
		if err != nil {
			return nil, err
		}
		st.model.Channels = append(st.model.Channels, registry.ChannelModel{
			Name: name, Reference: refSig, Params: params, Thresholds: th,
		})
		st.specs = append(st.specs, ingest.ChannelSpec{Name: name, Lanes: refSig.Channels(), Rate: refSig.Rate})
	}
	return st, nil
}

// daemonArgs are nsyncd's flags for this setup; journal is the journal
// directory and extra any further flags.
func (st *streamSetup) daemonArgs(journal string, extra ...string) []string {
	args := []string{
		"-listen", "127.0.0.1:0",
		"-ref", st.refPattern,
		"-train", strings.Join(st.trainPatterns, ","),
		"-channels", strings.Join(st.channels, ","),
		"-k", fmt.Sprint(st.k),
		"-twin", fmt.Sprint(st.params.TWin), "-thop", fmt.Sprint(st.params.THop),
		"-text", fmt.Sprint(st.params.TExt), "-tsigma", fmt.Sprint(st.params.TSigma),
		"-eta", fmt.Sprint(st.params.Eta), "-r", fmt.Sprint(st.r),
		"-journal", journal, "-journal-sync", "none",
		"-read-timeout", "60s",
	}
	return append(args, extra...)
}

// referenceVerdict runs an in-process FusedMonitor over the frames of one
// session plan, delivered the way the daemon delivers them: each channel's
// frames pass a resequencer in send order and whatever it releases is
// pushed. Fused alerts are edge-triggered on the order in which channels
// advance, so the reference must see the same interleaving the wire does.
func (st *streamSetup) referenceVerdict(p *sessionPlan) (*ingest.Verdict, error) {
	fm, err := st.model.Monitor()
	if err != nil {
		return nil, err
	}
	sink := ingest.NewMonitorSink(fm, st.specs)
	reseq := make([]*ingest.Resequencer, len(st.specs))
	for ch, spec := range st.specs {
		reseq[ch] = ingest.NewResequencer(spec.Lanes, ingest.ResequencerConfig{})
	}
	for _, fr := range p.frames {
		released, err := reseq[fr.ch].Offer(fr.seq, fr.values)
		if err != nil {
			return nil, err
		}
		if len(released) > 0 {
			if err := sink.Push(fr.ch, released); err != nil {
				return nil, err
			}
		}
	}
	for ch, r := range reseq {
		if err := r.SetEOS(p.totals[ch]); err != nil {
			return nil, err
		}
		if released := r.Flush(); len(released) > 0 {
			if err := sink.Push(ch, released); err != nil {
				return nil, err
			}
		}
	}
	return sink.Finish("finished")
}

// addReferences fills each plan's reference verdict, in parallel.
func (st *streamSetup) addReferences(plans []*sessionPlan) error {
	return parallel(len(plans), func(i int) error {
		v, err := st.referenceVerdict(plans[i])
		plans[i].want = v
		return err
	})
}

// parallel runs f(0..n-1) on nproc goroutines and returns the first error.
func parallel(n int, f func(i int) error) error {
	var wg sync.WaitGroup
	errs := make([]error, n)
	next := make(chan int)
	for w := 0; w < nproc(); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range next {
				errs[i] = f(i)
			}
		}()
	}
	for i := 0; i < n; i++ {
		next <- i
	}
	close(next)
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	return nil
}

// ---- simulated UM3 prints (live-floor) ----

// simulatePrint runs one printing process at CI scale and captures the
// given channels, cut to the first printS seconds of printing. It mirrors
// the experiment roster's simulation: warm start with a per-run heater
// phase, recording anchored at the end of the heating preamble.
func simulatePrint(scale experiment.Scale, prog *gcode.Program, prof printer.Profile, chans []sensor.Channel, printS float64, seed int64) ([]*sigproc.Signal, error) {
	phase := rand.New(rand.NewSource(seed * 7919))
	tr, err := printer.Run(prog, prof, printer.Options{
		Seed:          seed,
		TraceRate:     scale.TraceRate,
		InitialHotend: 205 + (phase.Float64()*2 - 1),
		InitialBed:    60 + (phase.Float64()*1.6 - 0.8),
	})
	if err != nil {
		return nil, err
	}
	if ready := tr.EventTime("hotend-ready"); ready > 0 {
		tr = tr.TrimBefore(ready)
	}
	var out []*sigproc.Signal
	for _, ch := range chans {
		s, err := sensor.Acquire(tr, ch, scale.Sensor, seed)
		if err != nil {
			return nil, err
		}
		n := int(printS * s.Rate)
		if n > s.Len() {
			return nil, fmt.Errorf("print of %.1fs shorter than %.1fs", s.Duration(), printS)
		}
		out = append(out, s.Slice(0, n))
	}
	return out, nil
}

// ---- FleetLoad-shaped noise sessions (session-churn) ----

func noiseSignal(rng *rand.Rand, rate float64, lanes, n int) *sigproc.Signal {
	s := sigproc.New(rate, lanes, n)
	for l := 0; l < lanes; l++ {
		for i := 0; i < n; i++ {
			s.Data[l][i] = rng.NormFloat64()
		}
	}
	return s
}

// perturbed is a benign repeat of ref: the same process plus sensor noise.
func perturbed(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := ref.Clone()
	for l := range s.Data {
		for i := range s.Data[l] {
			s.Data[l][i] += 0.05 * rng.NormFloat64()
		}
	}
	return s
}

// attacked replaces the second half of a benign repeat with uncorrelated
// noise: a substituted design deviating mid-print.
func attacked(rng *rand.Rand, ref *sigproc.Signal) *sigproc.Signal {
	s := perturbed(rng, ref)
	for l := range s.Data {
		for i := s.Len() / 2; i < s.Len(); i++ {
			s.Data[l][i] = 2 * rng.NormFloat64()
		}
	}
	return s
}
