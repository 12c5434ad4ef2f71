package main

import (
	"fmt"
	"math/rand"
	"sync"
	"time"

	"nsync/internal/experiment"
	"nsync/internal/gcode"
	"nsync/internal/printer"
	"nsync/internal/sensor"
	"nsync/internal/sigproc"
)

// live-floor: two printer lines, one connection each, streaming simulated
// UM3 gear prints (ACC, MAG and AUD at CI rates) into nsyncd on a fixed
// schedule. Every 5th print is a Table I attack, rotating through the five.
const (
	floorPrintS  = 8.0  // printer-seconds per print
	floorFrameS  = 0.25 // printer-seconds per data frame
	floorLines   = 2
	floorOffered = 45.0 // printer-seconds per wall second, both lines together
	// floorGap is the idle time a line leaves between prints (a bed being
	// cleared). It is longer than a healthy verdict takes, so a line's next
	// print starts on schedule unless nsyncd falls behind.
	floorGap       = 0.15
	floorBenign    = 8   // distinct benign prints cycled through
	floorTrain     = 4   // benign training prints nsyncd boots from
	floorR         = 1.0 // OCC margin for the small training set (as at CI scale)
	floorK         = 2
	floorSnapEvery = 32 // journal a monitor snapshot every 32 frames
	floorBatch     = 16 // prints per closed-loop throughput batch
	floorBursts    = 7
	floorSlices    = 5 // time slices the open-loop phase is reduced over
	floorAttackMod = 5
)

var floorChannels = []sensor.Channel{sensor.ACC, sensor.MAG, sensor.AUD}

// floorPeriod is the wall seconds between print starts on one line: a
// print streams for floorPeriod-floorGap seconds, then the line idles.
const floorPeriod = floorLines * floorPrintS / floorOffered

// floorInputs simulates the seeded prints and trains the daemon setup.
// It returns the benign and attack session plans.
func floorInputs(work string, seed int64) (*streamSetup, []*sessionPlan, []*sessionPlan, error) {
	scale := experiment.CI()
	benign, malicious, err := scale.Programs()
	if err != nil {
		return nil, nil, nil, err
	}
	type job struct {
		prog  *gcode.Program
		label string
	}
	var jobs []job
	for i := 0; i < 1+floorTrain+floorBenign; i++ {
		jobs = append(jobs, job{benign, "Benign"})
	}
	for _, name := range experiment.AttackNames {
		jobs = append(jobs, job{malicious[name], name})
	}
	rng := rand.New(rand.NewSource(seed))
	seeds := make([]int64, len(jobs))
	for i := range seeds {
		seeds[i] = rng.Int63n(1 << 40)
	}
	runs := make([][]*sigproc.Signal, len(jobs))
	if err := parallel(len(jobs), func(i int) error {
		var err error
		runs[i], err = simulatePrint(scale, jobs[i].prog, printer.UM3(), floorChannels, floorPrintS, seeds[i])
		return err
	}); err != nil {
		return nil, nil, nil, err
	}
	var names []string
	for _, ch := range floorChannels {
		names = append(names, ch.String())
	}
	params := scale.DWM["UM3"]
	st, err := writeSetup(work, names, runs[0], runs[1:1+floorTrain], params, floorR, floorK)
	if err != nil {
		return nil, nil, nil, err
	}
	compress := floorPrintS / (floorPeriod - floorGap)
	var plans []*sessionPlan
	for i, sigs := range runs[1+floorTrain:] {
		frames, totals := planFrames(sigs, floorFrameS, compress, defects{}, nil)
		p := &sessionPlan{
			frames: frames, totals: totals, printS: floorPrintS,
			finishDue: seconds2d(floorPrintS / compress),
		}
		p.hello.Channels = st.specs
		p.hello.Tenant = jobs[1+floorTrain+i].label
		plans = append(plans, p)
	}
	if err := st.addReferences(plans); err != nil {
		return nil, nil, nil, err
	}
	return st, plans[:floorBenign], plans[floorBenign:], nil
}

func runLiveFloor(cfg runConfig) (*outcome, error) {
	st, benign, attacks, err := floorInputs(cfg.work, cfg.seed)
	if err != nil {
		return nil, err
	}
	// print g of the floor (both lines interleaved) is an attack every
	// floorAttackMod prints, rotating through Table I.
	printPlan := func(g int, prefix string) *sessionPlan {
		p := benign[g%len(benign)]
		if g%floorAttackMod == floorAttackMod-1 {
			p = attacks[(g/floorAttackMod)%len(attacks)]
		}
		return withSession(p, fmt.Sprintf("%s-%d-%d", prefix, cfg.seed, g), p.hello.Tenant)
	}
	ph := &streamPhase{
		cfg: cfg, st: st, extraArgs: []string{"-snapshot-every", fmt.Sprint(floorSnapEvery)},
		replay: append(append([]*sessionPlan{}, benign[:6]...), attacks[:2]...), snapEvery: floorSnapEvery,
	}
	ph.load = func(d *daemon, tr *tracer) (*loadResult, error) {
		start := time.Now()
		width := seconds2d(cfg.seconds / floorSlices)
		cpu := sampleCPU(d, start, width, floorSlices)
		g0 := selfCPU()
		run, wall := openLoop(d.addr, start, cfg.seconds, func(g int) *sessionPlan { return printPlan(g, "floor") }, tr)
		genShare := (selfCPU() - g0) / (wall.Seconds() * float64(nproc()))
		samples, err := cpu()
		if err != nil {
			return nil, err
		}
		// Closed-loop batches: how long the daemon takes to judge a fixed
		// batch of prints when nothing paces them.
		var walls []float64
		var bursts []*streamRun
		for b := 0; b < floorBursts; b++ {
			next := func(i int) *sessionPlan { return printPlan(b*floorBatch+i, fmt.Sprintf("burst%d", b)) }
			br, w := batchLoop(d.addr, floorLines, floorBatch, next, tr)
			walls = append(walls, w.Seconds())
			bursts = append(bursts, br)
		}
		evalS := median(walls)
		// A slice holds too few verdicts for a p90 with ten beyond it; the
		// latency quantiles pool the whole run (~113 verdicts) instead.
		slices := run.sliced(start, width, func(r *sessionResult) time.Time { return r.finishAt }, samples)
		slices.p50, slices.p90 = run.pooled()
		return &loadResult{
			runs:         append([]*streamRun{run}, bursts...),
			slices:       slices,
			sessionsPerS: floorBatch / evalS, evalS: evalS,
			late: run.late, genCPUShare: genShare,
		}, nil
	}
	return ph.run()
}

// openLoop runs floorLines printer lines for seconds: line l starts print
// j at a fixed time, and every frame and Finish waits for its due time,
// whether or not the daemon kept up. next builds the g-th print overall.
func openLoop(addr string, start time.Time, seconds float64, next func(g int) *sessionPlan, tr *tracer) (*streamRun, time.Duration) {
	run := &streamRun{}
	period := seconds2d(floorPeriod)
	end := start.Add(seconds2d(seconds))
	var wg sync.WaitGroup
	for l := 0; l < floorLines; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; ; j++ {
				at := start.Add(time.Duration(j)*period + time.Duration(l)*period/floorLines)
				if !at.Before(end) {
					return
				}
				if wait := time.Until(at); wait > 0 {
					time.Sleep(wait)
				}
				p := next(j*floorLines + l)
				r := runSession(addr, p, at, true, tr)
				run.add(p, r)
				run.mu.Lock()
				run.late = append(run.late, ms(r.helloAt.Sub(at)))
				for _, d := range r.late {
					run.late = append(run.late, ms(d))
				}
				run.mu.Unlock()
			}
		}()
	}
	wg.Wait()
	return run, time.Since(start)
}

// batchLoop judges n sessions over conns connections, closed loop, and
// returns them with the wall time the whole batch took.
func batchLoop(addr string, conns, n int, next func(i int) *sessionPlan, tr *tracer) (*streamRun, time.Duration) {
	run := &streamRun{}
	jobs := make(chan int, n)
	for i := 0; i < n; i++ {
		jobs <- i
	}
	close(jobs)
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range jobs {
				p := next(i)
				run.add(p, runSession(addr, p, time.Now(), false, tr))
			}
		}()
	}
	wg.Wait()
	return run, time.Since(start)
}
