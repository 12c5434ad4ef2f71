package main

import (
	"fmt"
	"math/rand"
	"time"

	"nsync/internal/dwm"
	"nsync/internal/sigproc"
)

// session-churn: the FleetLoad fixture shape — ACC with 2 lanes and MAG
// with 1 lane at 100 Hz, 20 s prints, 0.5 s DWM windows — replayed closed
// loop over two connections with seeded lossless transport defects.
const (
	churnRate      = 100.0
	churnSamples   = 2000 // 20 s
	churnFrameS    = 0.1  // 10 samples per frame
	churnPlans     = 64   // distinct defect schedules cycled through
	churnTenants   = 4
	churnBatch     = 32 // sessions per eval_s batch
	churnSlices    = 10 // time slices the measured phase is reduced over
	churnAttackMod = 4  // every 4th observation is attacked
)

var churnParams = dwm.Params{TWin: 0.5, THop: 0.25, TExt: 0.2, TSigma: 0.1, Eta: 0.1}

// churnInputs builds the seeded fixture: reference and training signals for
// nsyncd, observations with reference verdicts, and the session plans.
func churnInputs(work string, seed int64) (*streamSetup, []*sessionPlan, error) {
	rng := rand.New(rand.NewSource(seed))
	names := []string{"ACC", "MAG"}
	lanes := []int{2, 1}
	var ref []*sigproc.Signal
	for _, l := range lanes {
		ref = append(ref, noiseSignal(rng, churnRate, l, churnSamples))
	}
	var train [][]*sigproc.Signal
	for i := 0; i < 4; i++ {
		var run []*sigproc.Signal
		for _, r := range ref {
			run = append(run, perturbed(rng, r))
		}
		train = append(train, run)
	}
	st, err := writeSetup(work, names, ref, train, churnParams, 0.3, 1)
	if err != nil {
		return nil, nil, err
	}
	// Eight observations, every churnAttackMod-th attacked, cycled through
	// the plans.
	var obs [][]*sigproc.Signal
	for v := 0; v < 8; v++ {
		var sigs []*sigproc.Signal
		for _, r := range ref {
			if v%churnAttackMod == churnAttackMod-1 {
				sigs = append(sigs, attacked(rng, r))
			} else {
				sigs = append(sigs, perturbed(rng, r))
			}
		}
		obs = append(obs, sigs)
	}
	var plans []*sessionPlan
	for i := 0; i < churnPlans; i++ {
		frames, totals := planFrames(obs[i%len(obs)], churnFrameS, 1, defects{shuffleWindow: 8, dupProb: 0.05}, rng)
		p := &sessionPlan{frames: frames, totals: totals, reconnectAfter: len(frames) / 2, printS: churnSamples / churnRate}
		p.hello.Channels = st.specs
		plans = append(plans, p)
	}
	if err := st.addReferences(plans); err != nil {
		return nil, nil, err
	}
	return st, plans, nil
}

func runSessionChurn(cfg runConfig) (*outcome, error) {
	st, plans, err := churnInputs(cfg.work, cfg.seed)
	if err != nil {
		return nil, err
	}
	next := func(i int) *sessionPlan {
		return withSession(plans[i%len(plans)], fmt.Sprintf("churn-%d-%d", cfg.seed, i), fmt.Sprintf("tenant-%d", i%churnTenants))
	}
	ph := &streamPhase{cfg: cfg, st: st, replay: plans[:16], snapEvery: 256, load: func(d *daemon, tr *tracer) (*loadResult, error) {
		start := time.Now()
		width := seconds2d(cfg.seconds / churnSlices)
		cpu := sampleCPU(d, start, width, churnSlices)
		g0 := selfCPU()
		run, wall := closedLoop(d.addr, nproc(), start, cfg.seconds, next, tr)
		samples, err := cpu()
		if err != nil {
			return nil, err
		}
		slices := run.sliced(start, width, func(r *sessionResult) time.Time { return r.doneAt }, samples)
		return &loadResult{
			runs:         []*streamRun{run},
			slices:       slices,
			sessionsPerS: slices.perS,
			evalS:        run.batchSeconds(churnBatch),
			late:         run.late,
			genCPUShare:  (selfCPU() - g0) / (wall.Seconds() * float64(nproc())),
		}, nil
	}}
	return ph.run()
}
