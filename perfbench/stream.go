package main

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"nsync/internal/ingest"
	"nsync/internal/obs"
)

// latencyLimit is what a failed or refused session counts as in the latency
// quantiles: it missed any latency target an operator would set.
const latencyLimit = 10 * time.Second

// boots is how many times each stream workload boots nsyncd to take the
// median set-up time.
const boots = 5

// streamRun collects the sessions of one measured phase.
type streamRun struct {
	mu      sync.Mutex
	results []sessionResult
	plans   []*sessionPlan
	// late is the generator's lateness per scheduled action, in ms.
	late []float64
}

func (s *streamRun) add(p *sessionPlan, r sessionResult) {
	s.mu.Lock()
	s.plans = append(s.plans, p)
	s.results = append(s.results, r)
	s.mu.Unlock()
}

// score checks every verdict against its reference.
func (s *streamRun) score(out *outcome) {
	for i, r := range s.results {
		out.attempted++
		if err := r.check(s.plans[i].want); err != nil {
			out.fail(fmt.Errorf("session %s: %w", s.plans[i].hello.SessionID, err))
		}
	}
}

// sliceStats are a phase's figures taken per time slice and reduced by
// their median across slices, so a burst of outside load on a shared
// machine skews one slice instead of the run.
type sliceStats struct {
	p50, p90 float64 // verdict latency quantiles, ms
	pspc     float64 // printer-seconds judged per nsyncd CPU-second
	perS     float64 // sessions per wall second
}

// sliced cuts the phase that began at start into len(cpu)-1 slices of
// width, files each session under the slice its key time falls in, and
// reduces. cpu holds nsyncd's CPU seconds at every slice boundary. A
// session that failed the check counts as missing the latency limit and
// judged nothing.
func (s *streamRun) sliced(start time.Time, width time.Duration, key func(r *sessionResult) time.Time, cpu []float64) sliceStats {
	n := len(cpu) - 1
	lat := make([][]float64, n)
	printS := make([]float64, n)
	var p50, p90, pspc, perS []float64
	for i := range s.results {
		r := &s.results[i]
		k := int(key(r).Sub(start) / width)
		if k < 0 || k >= n {
			continue
		}
		if r.check(s.plans[i].want) != nil {
			lat[k] = append(lat[k], ms(latencyLimit))
			continue
		}
		lat[k] = append(lat[k], ms(r.latency))
		printS[k] += s.plans[i].printS
	}
	for k := range lat {
		if len(lat[k]) == 0 {
			continue
		}
		p50 = append(p50, quantile(lat[k], 0.5))
		p90 = append(p90, quantile(lat[k], 0.9))
		pspc = append(pspc, printS[k]/(cpu[k+1]-cpu[k]))
		perS = append(perS, float64(len(lat[k]))/width.Seconds())
	}
	return sliceStats{p50: median(p50), p90: median(p90), pspc: median(pspc), perS: median(perS)}
}

// pooled returns the verdict latency quantiles over every session of the
// phase, a failed session counting as missing the latency limit.
func (s *streamRun) pooled() (p50, p90 float64) {
	var lat []float64
	for i := range s.results {
		r := &s.results[i]
		if r.check(s.plans[i].want) != nil {
			lat = append(lat, ms(latencyLimit))
			continue
		}
		lat = append(lat, ms(r.latency))
	}
	return quantile(lat, 0.5), quantile(lat, 0.9)
}

// sampleCPU records nsyncd's CPU seconds at start and at each of n slice
// boundaries after it; the returned wait blocks until the last sample.
func sampleCPU(d *daemon, start time.Time, width time.Duration, n int) (wait func() ([]float64, error)) {
	samples := make([]float64, n+1)
	var err error
	done := make(chan struct{})
	go func() {
		defer close(done)
		for k := 0; k <= n; k++ {
			time.Sleep(time.Until(start.Add(time.Duration(k) * width)))
			if samples[k], err = d.cpu(); err != nil {
				return
			}
		}
	}()
	return func() ([]float64, error) {
		<-done
		return samples, err
	}
}

// dials returns the mean dial time in ms and the dials per session.
func (s *streamRun) dials() (dialMS, perSession float64) {
	var n int
	var sum time.Duration
	for _, r := range s.results {
		for _, d := range r.dialTimes {
			sum += d
			n++
		}
	}
	if n == 0 || len(s.results) == 0 {
		return 0, 0
	}
	return ms(sum) / float64(n), float64(n) / float64(len(s.results))
}

// batchSeconds is the median wall time between every batch-th completion:
// the time the daemon takes to judge a fixed batch of prints.
func (s *streamRun) batchSeconds(batch int) float64 {
	var done []time.Time
	for _, r := range s.results {
		done = append(done, r.doneAt)
	}
	sort.Slice(done, func(i, j int) bool { return done[i].Before(done[j]) })
	var spans []float64
	for i := batch; i < len(done); i += batch {
		spans = append(spans, done[i].Sub(done[i-batch]).Seconds())
	}
	return median(spans)
}

// closedLoop replays sessions back to back on conns connections until
// seconds have passed, starting each session as soon as the previous
// verdict on its connection returns. next builds the i-th session's plan.
func closedLoop(addr string, conns int, start time.Time, seconds float64, next func(i int) *sessionPlan, tr *tracer) (*streamRun, time.Duration) {
	run := &streamRun{}
	deadline := start.Add(seconds2d(seconds))
	var mu sync.Mutex
	i := 0
	var wg sync.WaitGroup
	for c := 0; c < conns; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			prev := start
			for time.Now().Before(deadline) {
				mu.Lock()
				p := next(i)
				i++
				mu.Unlock()
				r := runSession(addr, p, time.Now(), false, tr)
				run.add(p, r)
				// Closed loop: a session is due the moment the previous
				// verdict on its connection arrived.
				run.mu.Lock()
				run.late = append(run.late, ms(r.helloAt.Sub(prev)))
				run.mu.Unlock()
				prev = r.doneAt
			}
		}()
	}
	wg.Wait()
	return run, time.Since(start)
}

// journalDir returns a fresh journal directory for boot i.
func journalDir(work string, i int) string {
	return filepath.Join(work, fmt.Sprintf("journal-%d", i))
}

// withSession returns a copy of plan p carrying session id and tenant.
func withSession(p *sessionPlan, id, tenant string) *sessionPlan {
	q := *p
	q.hello = ingest.Hello{SessionID: id, Tenant: tenant, Channels: p.hello.Channels}
	return &q
}

// loadResult is what one workload's load phase measured.
type loadResult struct {
	runs   []*streamRun // every session of the phase; runs[0] is the sliced one
	slices sliceStats
	// sessionsPerS and evalS are the closed-loop throughput figures:
	// sessions judged per wall second, and the median wall time of a
	// fixed batch of prints.
	sessionsPerS, evalS float64
	late                []float64 // generator lateness, ms
	genCPUShare         float64   // generator CPU / (wall * nproc)
}

// streamPhase drives one stream workload against nsyncd.
type streamPhase struct {
	cfg       runConfig
	st        *streamSetup
	extraArgs []string
	load      func(d *daemon, tr *tracer) (*loadResult, error)
	// replay are the sessions the traced run drives through the daemon
	// path in-process, capturing state every snapEvery frames.
	replay    []*sessionPlan
	snapEvery int
}

func (ph *streamPhase) run() (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	d, setup, err := bootDaemons(ph.cfg.nsyncd, boots, func(i int) []string {
		return ph.st.daemonArgs(journalDir(ph.cfg.work, i), ph.extraArgs...)
	})
	if err != nil {
		return nil, err
	}
	lr, err := ph.load(d, nil)
	var rss float64
	if err == nil {
		rss, err = d.peakRSSMB()
	}
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err != nil {
		return nil, err
	}
	for _, r := range lr.runs {
		r.score(out)
	}
	m := out.metrics
	m["setup_s"] = setup
	m["verdict_ms_p50"] = lr.slices.p50
	m["verdict_ms_p90"] = lr.slices.p90
	m["printer_s_per_cpu_s"] = lr.slices.pspc
	m["sessions_per_s"] = lr.sessionsPerS
	m["eval_s"] = lr.evalS
	m["peak_rss_mb"] = rss
	if ph.cfg.trace {
		if err := ph.traced(out, lr); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// traced repeats the load phase against a metrics-enabled nsyncd with
// client spans on, then replays the workload's sessions through the
// daemon path in-process and probes the layers below core. lr is the
// untraced load phase, for the tracing overhead.
func (ph *streamPhase) traced(out *outcome, lr *loadResult) error {
	obs.SetEnabled(true)
	m := out.metrics
	pprof, err := freeAddr()
	if err != nil {
		return err
	}
	d, _, err := startDaemon(ph.cfg.nsyncd, ph.st.daemonArgs(journalDir(ph.cfg.work, boots), append(ph.extraArgs, "-pprof", pprof)...))
	if err != nil {
		return err
	}
	scrape := newScraper(pprof)
	// The metrics listener starts beside the ingest one, not before it;
	// give it a moment. This first report holds boot training's DWM steps.
	var initial map[string]float64
	for try := 0; try < 100; try++ {
		if initial, err = scrape.read(); err == nil {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err != nil {
		scrape.stop() //nolint:errcheck // already failing
		d.stop()      //nolint:errcheck // already failing
		return err
	}
	tr := newTracer()
	c0, _ := d.cpu()
	start := time.Now()
	tlr, err := ph.load(d, tr)
	wall := time.Since(start)
	c1, _ := d.cpu()
	final, scrapeErr := scrape.stop()
	if stopErr := d.stop(); err == nil {
		err = stopErr
	}
	if err == nil {
		err = scrapeErr
	}
	if err != nil {
		return err
	}
	sessions := 0
	for _, r := range tlr.runs {
		r.score(out)
		sessions += len(r.results)
	}
	delta := func(name string) float64 { return final[name] - initial[name] }
	m["nsyncd.cpu_s"] = c1 - c0
	m["nsyncd.busy_share"] = (c1 - c0) / (wall.Seconds() * float64(nproc()))
	m["nsyncd.dsp_share"] = delta("dwm.step.total_s") / (c1 - c0)
	m["nsyncd.queue_depth_max"] = scrape.depthMax
	m["nsyncd.frames"] = delta("ingest.frames")
	m["nsyncd.repaired_frames"] = delta("ingest.dups") + delta("ingest.reordered") + delta("ingest.gap_filled")
	m["nsyncd.journal_appends"] = delta("journal.appends")
	m["ingest.journal_kb_per_session"] = delta("journal.bytes") / 1024 / float64(sessions)
	m["loadgen.late_ms_p99"] = quantile(lr.late, 0.99)
	m["loadgen.cpu_share"] = lr.genCPUShare
	// Tracing overhead: how much daemon CPU per printer-second the traced
	// phase (metrics on in nsyncd, spans in the client) cost over the
	// untraced one.
	m["trace.overhead_share"] = lr.slices.pspc/tlr.slices.pspc - 1
	dialMS, perSession := tlr.runs[0].dials()
	m["ingest.dial_ms"] = dialMS
	m["ingest.dials_per_session"] = perSession

	if err := replayDaemonPath(ph.cfg.work, ph.st, ph.replay, ph.snapEvery, tr, m); err != nil {
		return err
	}
	if err := ph.st.featuresProbe(m); err != nil {
		return err
	}
	if err := probeLayers(m); err != nil {
		return err
	}
	if err := probeExperiment(m); err != nil {
		return err
	}
	return writeTrace(ph.cfg, tr)
}

// writeTrace stores the run's spans under .bench_build/traces.
func writeTrace(cfg runConfig, tr *tracer) error {
	dir := filepath.Join(cfg.root, ".bench_build", "traces")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	return tr.write(filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", cfg.workload, cfg.seed)))
}

// freeAddr returns a loopback address nothing listens on right now.
func freeAddr() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	defer l.Close()
	return l.Addr().String(), nil
}

// scraper polls a metrics-enabled nsyncd's /metrics report, tracking the
// deepest aggregate frame queue it sees.
type scraper struct {
	url      string
	depthMax float64
	quit     chan struct{}
	done     chan struct{}
}

func newScraper(addr string) *scraper {
	s := &scraper{url: "http://" + addr + "/metrics", quit: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(20 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-s.quit:
				return
			case <-tick.C:
				if r, err := s.read(); err == nil {
					s.depthMax = max(s.depthMax, r["ingest.queue_depth"])
				}
			}
		}
	}()
	return s
}

// read fetches one report: counters and gauges by name.
func (s *scraper) read() (map[string]float64, error) {
	resp, err := http.Get(s.url)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, line := range strings.Split(string(body), "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 3 && (f[1] == "counter" || f[1] == "gauge"):
			if v, err := strconv.ParseFloat(f[2], 64); err == nil {
				out[f[0]] = v
			}
		case len(f) > 3 && f[1] == "timer" && strings.HasPrefix(f[3], "total="):
			if d, err := time.ParseDuration(strings.TrimPrefix(f[3], "total=")); err == nil {
				out[f[0]+".total_s"] = d.Seconds()
			}
		}
	}
	return out, nil
}

// stop ends polling and returns one last report.
func (s *scraper) stop() (map[string]float64, error) {
	close(s.quit)
	<-s.done
	return s.read()
}
