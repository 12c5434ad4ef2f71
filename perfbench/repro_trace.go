package main

import (
	"context"
	"fmt"
	"net"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/ids"
	"nsync/internal/ingest"
	"nsync/internal/obs"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

// reproLayers is repro-eval's traced run, inside the evaluation process
// after the measured pass. The experiment, dwm and tde figures come from
// the pass itself (eval is the obs delta over it, cellSteps its DWM steps
// per shape). The core and ingest figures come from replaying four of the
// UM3 roster's test prints, full length on ACC, MAG and AUD, through an
// in-process ingest server and through the daemon path call by call;
// repro-eval never runs ingest, so those figures should not move with it.
func reproLayers(root string, seed int64, datasets map[string]*experiment.Dataset, rep *reproReport, eval obsSnap, cellSteps map[string]float64, tr *tracer) (map[string]float64, error) {
	m := map[string]float64{}
	scale := experiment.CI()
	for p, s := range rep.GenerateS {
		m["experiment.generate_s."+p] = s
	}
	m["experiment.train_s"] = eval.trainSum
	m["experiment.classify_s"] = eval.classifySum
	m["experiment.windows"] = eval.steps
	m["nsyncd.cpu_s"] = rep.CPUS
	m["nsyncd.busy_share"] = rep.CPUS / (sum(rep.PassS) * float64(nproc()))
	m["loadgen.late_ms_p99"] = quantile(rep.CellGapMS, 0.99)

	// Tracing overhead: the first cell again with obs and spans off.
	obs.SetEnabled(false)
	start := time.Now()
	if _, err := experiment.EvaluateNSYNC(datasets["UM3"], reproCells[0].ch, reproCells[0].tf, newDWM(scale, "UM3"), scale.OCCMarginNSYNC); err != nil {
		return nil, err
	}
	m["trace.overhead_share"] = rep.CellS[0]/time.Since(start).Seconds() - 1
	obs.SetEnabled(true)

	st, plans, err := reproStreams(datasets["UM3"], scale)
	if err != nil {
		return nil, err
	}
	if err := loopbackProbe(st, plans, rep, m, tr); err != nil {
		return nil, err
	}
	if err := replayDaemonPath(".", st, plans, floorSnapEvery, tr, m); err != nil {
		return nil, err
	}
	if err := st.featuresProbe(m); err != nil {
		return nil, err
	}
	if err := probeLayers(m); err != nil {
		return nil, err
	}
	// The DSP figures describe the evaluation itself, not the replay.
	m["dwm.steps"] = eval.steps
	m["tde.calls"] = eval.estimates
	m["nsyncd.dsp_share"] = eval.stepSum / rep.CPUS
	m["fft.transforms_per_window"], m["fft.mb_per_window"] = fftLoad(cellSteps, eval.estimates/eval.steps)
	return m, writeTrace(runConfig{root: root, workload: "repro-eval", seed: seed}, tr)
}

// reproStreams trains a UM3 daemon model on the roster (reference run plus
// training runs, ACC, MAG and AUD) and plans four test prints as sessions.
func reproStreams(ds *experiment.Dataset, scale experiment.Scale) (*streamSetup, []*sessionPlan, error) {
	chans := []sensor.Channel{sensor.ACC, sensor.MAG, sensor.AUD}
	sigs := func(r *ids.Run) ([]*sigproc.Signal, error) {
		var out []*sigproc.Signal
		for _, ch := range chans {
			s, err := r.Signal(ch, ids.Raw)
			if err != nil {
				return nil, err
			}
			out = append(out, s)
		}
		return out, nil
	}
	ref, err := sigs(ds.Ref)
	if err != nil {
		return nil, nil, err
	}
	var train [][]*sigproc.Signal
	for _, r := range ds.Train {
		s, err := sigs(r)
		if err != nil {
			return nil, nil, err
		}
		train = append(train, s)
	}
	var names []string
	for _, ch := range chans {
		names = append(names, ch.String())
	}
	st, err := writeSetup(".", names, ref, train, scale.DWM["UM3"], scale.OCCMarginNSYNC, floorK)
	if err != nil {
		return nil, nil, err
	}
	var plans []*sessionPlan
	for _, r := range []*ids.Run{ds.TestBenign[0], ds.TestBenign[1], ds.TestMalicious[0], ds.TestMalicious[len(ds.TestMalicious)-1]} {
		s, err := sigs(r)
		if err != nil {
			return nil, nil, err
		}
		frames, totals := planFrames(s, floorFrameS, 1, defects{}, nil)
		p := &sessionPlan{frames: frames, totals: totals, printS: s[0].Duration()}
		p.hello.Channels = st.specs
		p.hello.Tenant = r.Label
		plans = append(plans, p)
	}
	return st, plans, st.addReferences(plans)
}

// loopbackProbe serves the model from an in-process ingest server on a
// loopback port and replays the plans through it, closed loop: dial time,
// dials per session and the server's own counters, without a daemon.
func loopbackProbe(st *streamSetup, plans []*sessionPlan, rep *reproReport, m map[string]float64, tr *tracer) error {
	pool := ingest.NewSharedPool(nil)
	if _, err := pool.Register(st.model); err != nil {
		return err
	}
	mode, err := ingest.ParseJournalSyncMode("none")
	if err != nil {
		return err
	}
	journal, _, err := ingest.OpenJournal("loopback-journal", ingest.JournalConfig{SyncMode: mode})
	if err != nil {
		return err
	}
	defer journal.Close()
	srv, err := ingest.NewServer(ingest.Config{Factory: pool, Journal: journal, SnapshotEveryFrames: floorSnapEvery, ReadTimeout: time.Minute})
	if err != nil {
		return err
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(l) }()
	counter := func(name string) float64 { return float64(obs.GetCounter(name).Value()) }
	repaired := func() float64 {
		return counter("ingest.dups") + counter("ingest.reordered") + counter("ingest.gap_filled")
	}
	f0, r0, j0, b0 := counter("ingest.frames"), repaired(), counter("journal.appends"), counter("journal.bytes")
	depth := 0.0
	quit := make(chan struct{})
	polled := make(chan struct{})
	go func() {
		defer close(polled)
		for {
			select {
			case <-quit:
				return
			case <-time.After(5 * time.Millisecond):
				depth = max(depth, obs.GetGauge("ingest.queue_depth").Value())
			}
		}
	}()
	run, _ := batchLoop(l.Addr().String(), 1, len(plans), func(i int) *sessionPlan {
		return withSession(plans[i], fmt.Sprintf("loopback-%d", i), plans[i].hello.Tenant)
	}, tr)
	close(quit)
	<-polled
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		return err
	}
	if err := <-served; err != nil {
		return err
	}
	out := &outcome{}
	run.score(out)
	rep.Attempted, rep.Failed = out.attempted, out.failed
	if out.firstErr != nil {
		rep.FirstErr = out.firstErr.Error()
	}
	m["nsyncd.queue_depth_max"] = depth
	m["nsyncd.frames"] = counter("ingest.frames") - f0
	m["nsyncd.repaired_frames"] = repaired() - r0
	m["nsyncd.journal_appends"] = counter("journal.appends") - j0
	m["ingest.journal_kb_per_session"] = (counter("journal.bytes") - b0) / 1024 / float64(len(plans))
	m["ingest.dial_ms"], m["ingest.dials_per_session"] = run.dials()
	return nil
}
