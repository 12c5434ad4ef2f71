package main

import (
	"fmt"
	"path/filepath"
	"reflect"
	"time"

	"nsync/internal/core"
	"nsync/internal/experiment"
	"nsync/internal/ingest"
	"nsync/internal/sigproc"
)

func newDWM(scale experiment.Scale, printer string) core.Synchronizer {
	return &core.DWMSynchronizer{Params: scale.DWM[printer]}
}

// replayDaemonPath drives sessions through the daemon's path by calling
// each layer's public function in the order nsyncd does, every call inside
// a span: frame codec, Resequencer, SharedPool acquire, MonitorSink push,
// state capture and journal snapshot, MonitorSink finish, journal finish,
// pool release. Every verdict must equal the session's reference. A state
// capture runs every snapEvery frames, and at least once per session so its
// cost is known even where the daemon's cadence skips short sessions.
func replayDaemonPath(dir string, st *streamSetup, plans []*sessionPlan, snapEvery int, tr *tracer, m map[string]float64) error {
	pool := ingest.NewSharedPool(nil)
	version, err := pool.Register(st.model)
	if err != nil {
		return err
	}
	mode, err := ingest.ParseJournalSyncMode("none")
	if err != nil {
		return err
	}
	journal, _, err := ingest.OpenJournal(filepath.Join(dir, "replay-journal"), ingest.JournalConfig{SyncMode: mode})
	if err != nil {
		return err
	}
	defer journal.Close()
	var offered, released, stateBytes, captures float64
	var buf []byte
	before := snapObs()
	for i, p := range plans {
		id := fmt.Sprintf("replay-%d", i)
		root := tr.begin("replay.session", id, 0)
		span := func(name string, f func() error) error {
			s := tr.begin(name, id, root)
			err := f()
			tr.end(s)
			return err
		}
		var sink ingest.Sink
		hello := &ingest.Frame{Type: ingest.FrameHello, SessionID: id, Tenant: p.hello.Tenant, Channels: st.specs}
		if err := span("ingest.pool_acquire", func() (err error) { sink, err = pool.Acquire(hello); return err }); err != nil {
			return err
		}
		span("ingest.journal_admit", func() error { journal.Admit(id, p.hello.Tenant, version, 0, st.specs); return nil }) //nolint:errcheck // cannot fail
		reseq := make([]*ingest.Resequencer, len(st.specs))
		for ch, spec := range st.specs {
			reseq[ch] = ingest.NewResequencer(spec.Lanes, ingest.ResequencerConfig{})
		}
		// capture journals a monitor snapshot as the daemon's worker does;
		// prefix "probe." keeps a capture the daemon would not have made out
		// of the busy-time split.
		capture := func(prefix string) error {
			var state []byte
			if err := span(prefix+"ingest.capture_state", func() (err error) {
				state, err = sink.(ingest.StatefulSink).CaptureState()
				return err
			}); err != nil {
				return err
			}
			committed := make([]uint64, len(reseq))
			for ch, r := range reseq {
				committed[ch] = r.Committed()
			}
			span(prefix+"ingest.journal_snapshot", func() error { journal.Snapshot(id, committed, state); return nil }) //nolint:errcheck // cannot fail
			stateBytes += float64(len(state))
			captures++
			return nil
		}
		for n, fr := range p.frames {
			var f *ingest.Frame
			if err := span("ingest.codec", func() error {
				var err error
				if buf, err = ingest.AppendFrame(buf[:0], &ingest.Frame{Type: ingest.FrameData, Channel: fr.ch, Seq: fr.seq, Values: fr.values}); err != nil {
					return err
				}
				f, err = ingest.DecodeFrame(buf[4:])
				return err
			}); err != nil {
				return err
			}
			var out []float64
			if err := span("ingest.reseq", func() (err error) { out, err = reseq[f.Channel].Offer(f.Seq, f.Values); return err }); err != nil {
				return err
			}
			offered += float64(len(f.Values))
			released += float64(len(out))
			if len(out) > 0 {
				if err := span("core.push", func() error { return sink.Push(f.Channel, out) }); err != nil {
					return err
				}
			}
			if (n+1)%snapEvery == 0 {
				if err := capture(""); err != nil {
					return err
				}
			} else if snapEvery > len(p.frames) && n == len(p.frames)/2 {
				// Sessions shorter than the cadence never snapshot; take
				// one off the books so the capture cost is still known.
				if err := capture("probe."); err != nil {
					return err
				}
			}
		}
		var v *ingest.Verdict
		if err := span("core.finish", func() error {
			for ch, r := range reseq {
				if err := r.SetEOS(p.totals[ch]); err != nil {
					return err
				}
				if out := r.Flush(); len(out) > 0 {
					if err := sink.Push(ch, out); err != nil {
						return err
					}
				}
			}
			var err error
			v, err = sink.Finish("finished")
			return err
		}); err != nil {
			return err
		}
		span("ingest.journal_finish", func() error { journal.Finish(id); return nil }) //nolint:errcheck // cannot fail
		span("ingest.pool_acquire", func() error { pool.Release(sink); return nil })   //nolint:errcheck // cannot fail
		tr.end(root)
		if !reflect.DeepEqual(v, p.want) {
			return fmt.Errorf("in-process replay of session %d: verdict %+v, reference %+v", i, *v, *p.want)
		}
	}
	d := snapObs().sub(before)
	tot := tr.totals()
	us := func(name string) float64 {
		t, p := tot[name], tot["probe."+name]
		return float64(t.sum+p.sum) / 1e3 / float64(t.n+p.n)
	}
	frames := float64(tot["ingest.codec"].n)
	m["ingest.codec_ns_per_frame"] = float64(tot["ingest.codec"].sum.Nanoseconds()) / frames
	m["ingest.reseq_ns_per_frame"] = float64(tot["ingest.reseq"].sum.Nanoseconds()) / frames
	m["ingest.reseq_useful_ratio"] = released / offered
	m["ingest.pool_acquire_us"] = float64(tot["ingest.pool_acquire"].sum) / 1e3 / float64(len(plans))
	m["ingest.capture_state_us"] = us("ingest.capture_state")
	m["ingest.state_kb"] = stateBytes / captures / 1024
	m["ingest.journal_snapshot_us"] = us("ingest.journal_snapshot")
	m["core.push_us_per_frame"] = float64(tot["core.push"].sum) / 1e3 / frames
	m["core.finish_ms"] = float64(tot["core.finish"].mean()) / 1e6
	m["core.windows"] = d.steps
	m["dwm.steps"] = d.steps
	m["tde.calls"] = d.estimates

	// Where the replay's busy time went: DSP (every DWM step, TDE and FFT
	// included, timed by dwm's own step timer) against ingest and journal.
	var busy time.Duration
	for _, name := range []string{"ingest.codec", "ingest.reseq", "ingest.pool_acquire", "ingest.journal_admit", "core.push",
		"ingest.capture_state", "ingest.journal_snapshot", "core.finish", "ingest.journal_finish"} {
		busy += tot[name].sum
	}
	var ingestT time.Duration
	for _, name := range []string{"ingest.codec", "ingest.reseq", "ingest.pool_acquire", "ingest.journal_admit",
		"ingest.capture_state", "ingest.journal_snapshot", "ingest.journal_finish"} {
		ingestT += tot[name].sum
	}
	m["trace.dsp_share"] = d.stepSum / busy.Seconds()
	m["trace.ingest_share"] = ingestT.Seconds() / busy.Seconds()

	windows := map[string]float64{}
	for _, p := range plans {
		for ch, spec := range st.specs {
			shape, err := shapeOf(st, ch)
			if err != nil {
				return err
			}
			n := int(p.totals[ch])
			sp := st.params.Samples(spec.Rate)
			if n >= sp.NWin {
				windows[shape] += float64((n-sp.NWin)/sp.NHop + 1)
			}
		}
	}
	m["fft.transforms_per_window"], m["fft.mb_per_window"] = fftLoad(windows, d.estimates/d.steps)
	return nil
}

// shapeOf names the probe shape of channel ch of a stream setup.
func shapeOf(st *streamSetup, ch int) (string, error) {
	spec := st.specs[ch]
	for _, s := range probeShapes {
		if s.rate == spec.Rate && s.lanes == spec.Lanes && s.params == st.params {
			return s.name, nil
		}
	}
	return "", fmt.Errorf("channel %s (%d lanes @ %g Hz) matches no probe shape", spec.Name, spec.Lanes, spec.Rate)
}

// featuresProbe times Detector.Features on one training print, summed over
// the setup's channels: the per-print cost of boot training.
func (st *streamSetup) featuresProbe(m map[string]float64) error {
	var total float64
	for c, name := range st.channels {
		det, err := core.NewDetector(st.model.Channels[c].Reference, core.Config{
			Sync: &core.DWMSynchronizer{Params: st.params},
			OCC:  core.OCCConfig{R: st.r},
		})
		if err != nil {
			return err
		}
		s, err := sigproc.LoadFile(fmt.Sprintf(st.trainPatterns[0], name))
		if err != nil {
			return err
		}
		var per []float64
		for rep := 0; rep < 3; rep++ {
			start := time.Now()
			if _, err := det.Features(s); err != nil {
				return err
			}
			per = append(per, ms(time.Since(start)))
		}
		total += median(per)
	}
	m["core.features_ms_per_run"] = total
	return nil
}
