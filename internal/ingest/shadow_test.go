package ingest

import (
	"math"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

	"nsync/internal/core"
	"nsync/internal/registry"
	"nsync/internal/sigproc"
)

// blindModel is the fixture model with every threshold at +Inf: it never
// alerts, so its verdict on an attacked print disagrees with the fixture's.
func blindModel(t *testing.T) *registry.Model {
	t.Helper()
	m := fixtureModel(t, 1)
	inf := math.Inf(1)
	for i := range m.Channels {
		m.Channels[i].Thresholds = core.Thresholds{CC: inf, HC: inf, VC: inf}
	}
	return m
}

// attackedRuns is one attacked observation per fixture channel.
func (fx *e2eFixture) attackedRuns(seed int64) []*sigproc.Signal {
	rng := rand.New(rand.NewSource(seed))
	runs := make([]*sigproc.Signal, len(fx.refs))
	for ch, ref := range fx.refs {
		runs[ch] = attacked(rng, ref)
	}
	return runs
}

// pushRuns feeds each channel's run to s as lane-major wire samples.
func (fx *e2eFixture) pushRuns(t *testing.T, s Sink, runs []*sigproc.Signal) {
	t.Helper()
	for ch, run := range runs {
		lanes := fx.specs[ch].Lanes
		values := make([]float64, 0, run.Len()*lanes)
		for i := 0; i < run.Len(); i++ {
			for l := 0; l < lanes; l++ {
				values = append(values, run.Data[l][i])
			}
		}
		if err := s.Push(ch, values); err != nil {
			t.Fatal(err)
		}
	}
}

// shadowPool registers the fixture model as the default and installs the
// blind model as the shadow, returning both versions.
func shadowPool(t *testing.T, serve bool, onVerdict func(pv, sv *Verdict)) (pool *SharedPool, primary, candidate string) {
	t.Helper()
	pool = NewSharedPool(nil)
	primary, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	blind := blindModel(t)
	if err := pool.SetShadow(blind, serve, onVerdict); err != nil {
		t.Fatal(err)
	}
	candidate, err = blind.Version()
	if err != nil {
		t.Fatal(err)
	}
	return pool, primary, candidate
}

// TestSharedPoolAcquireWithoutShadowIsUnwrapped pins the contract journaling
// and perfbench rely on: with no shadow installed, Acquire hands out the
// stateful, version-reporting sink itself — and with one installed, the
// sink the journal unwraps to is the primary's.
func TestSharedPoolAcquireWithoutShadowIsUnwrapped(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	v, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	check := func(s Sink) {
		t.Helper()
		if _, ok := s.(StatefulSink); !ok {
			t.Fatalf("Acquire returned %T, not a StatefulSink", s)
		}
		mv, ok := s.(interface{ ModelVersion() string })
		if !ok || mv.ModelVersion() != v {
			t.Fatalf("Acquire returned %T, want a sink reporting version %s", s, v)
		}
		pool.Release(s)
	}
	s, err := pool.Acquire(fx.helloFrame("plain", ""))
	if err != nil {
		t.Fatal(err)
	}
	check(s)

	if err := pool.SetShadow(blindModel(t), false, nil); err != nil {
		t.Fatal(err)
	}
	s, err = pool.Acquire(fx.helloFrame("teed", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*shadowSink); !ok {
		t.Fatalf("with a shadow installed got %T, want *shadowSink", s)
	}
	if mv := unwrapSink(s).(interface{ ModelVersion() string }); mv.ModelVersion() != v {
		t.Fatalf("teed sink unwraps to version %s, want the primary's %s", mv.ModelVersion(), v)
	}
	pool.Release(s)

	pool.ClearShadow()
	s, err = pool.Acquire(fx.helloFrame("cleared", ""))
	if err != nil {
		t.Fatal(err)
	}
	check(s)
}

// TestShadowTeesAndReportsBothVerdicts: a shadowed session runs on both
// models, reports both verdicts, and serves the primary's; the candidate
// entry is held while installed and evicted once cleared and released.
func TestShadowTeesAndReportsBothVerdicts(t *testing.T) {
	fx := fixture(t)
	var gotP, gotS *Verdict
	pool, vp, vc := shadowPool(t, false, func(pv, sv *Verdict) { gotP, gotS = pv, sv })
	if got := pool.Refs(vc); got != 1 {
		t.Fatalf("installed shadow holds %d refs, want 1", got)
	}
	s, err := pool.Acquire(fx.helloFrame("teed", ""))
	if err != nil {
		t.Fatal(err)
	}
	ss, ok := s.(*shadowSink)
	if !ok {
		t.Fatalf("got %T, want *shadowSink", s)
	}
	if ss.primary.ModelVersion() != vp || ss.shadow.ModelVersion() != vc {
		t.Fatalf("tee runs %s / %s, want %s / %s", ss.primary.ModelVersion(), ss.shadow.ModelVersion(), vp, vc)
	}
	fx.pushRuns(t, s, fx.attackedRuns(61))
	v, err := s.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	// Shadow (serve=false): the primary verdict is authoritative.
	if !v.Intrusion {
		t.Fatalf("verdict = %+v, want the primary's intrusion", v)
	}
	if gotP == nil || gotS == nil || !gotP.Intrusion || gotS.Intrusion {
		t.Fatalf("onVerdict got %+v / %+v, want intrusion / benign", gotP, gotS)
	}
	pool.Release(s)
	if pool.Refs(vp) != 0 || pool.Refs(vc) != 1 {
		t.Fatalf("after release refs = %d / %d, want 0 / 1 (the shadow hold)", pool.Refs(vp), pool.Refs(vc))
	}

	// ClearShadow: the candidate entry loses its last ref and is evicted;
	// new sessions are primary-only again.
	pool.ClearShadow()
	if models, refs := pool.Resident(); models != 1 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after ClearShadow, want 1 / 0", models, refs)
	}
	s, err = pool.Acquire(fx.helloFrame("plain", ""))
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := s.(*sharedSink); !ok {
		t.Fatalf("after ClearShadow got %T, want *sharedSink", s)
	}
	pool.Release(s)
}

// TestShadowCanaryServesShadowVerdict: once SetServe flips the shadow to
// canary, new sessions return the candidate's verdict while the primary
// still runs for comparison; a session admitted before the flip keeps the
// mode it started with.
func TestShadowCanaryServesShadowVerdict(t *testing.T) {
	fx := fixture(t)
	var compared atomic.Int32
	pool, _, _ := shadowPool(t, false, func(pv, sv *Verdict) { compared.Add(1) })
	before, err := pool.Acquire(fx.helloFrame("pre-canary", ""))
	if err != nil {
		t.Fatal(err)
	}
	pool.SetServe(true)
	canary, err := pool.Acquire(fx.helloFrame("canary", ""))
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range []Sink{before, canary} {
		fx.pushRuns(t, s, fx.attackedRuns(62))
	}
	v, err := canary.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	if v.Intrusion {
		t.Fatalf("canary verdict = %+v, want the blind shadow's benign", v)
	}
	v, err = before.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	if !v.Intrusion {
		t.Fatalf("pre-canary verdict = %+v, want the primary's intrusion", v)
	}
	if got := compared.Load(); got != 2 {
		t.Fatalf("onVerdict ran %d times, want 2", got)
	}
	pool.Release(before)
	pool.Release(canary)
}

// TestShadowFailuresNeverCostTheSession covers both degradation paths: a
// shadow that cannot admit the session, and a shadow sink that errors
// mid-stream. In both cases the session runs to a primary verdict.
func TestShadowFailuresNeverCostTheSession(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	if _, err := pool.Register(fixtureModel(t, 1)); err != nil {
		t.Fatal(err)
	}
	// A candidate trained on a different channel layout cannot serve the
	// session: it degrades to primary-only.
	narrow := fixtureModel(t, 1)
	narrow.Channels = narrow.Channels[:1]
	if err := pool.SetShadow(narrow, false, nil); err != nil {
		t.Fatal(err)
	}
	s, err := pool.Acquire(fx.helloFrame("mismatch", ""))
	if err != nil {
		t.Fatalf("shadow layout mismatch cost the session: %v", err)
	}
	if _, ok := s.(*sharedSink); !ok {
		t.Fatalf("degraded session is %T, want *sharedSink", s)
	}
	pool.Release(s)

	// Mid-stream shadow failure: the shadow is dropped, the session finishes.
	called := false
	blind := blindModel(t)
	vc, err := blind.Version()
	if err != nil {
		t.Fatal(err)
	}
	if err := pool.SetShadow(blind, true, func(pv, sv *Verdict) { called = true }); err != nil {
		t.Fatal(err)
	}
	s, err = pool.Acquire(fx.helloFrame("dying-shadow", ""))
	if err != nil {
		t.Fatal(err)
	}
	ss := s.(*shadowSink)
	// A flushed monitor refuses further pushes: the shadow's next Push fails.
	if _, err := ss.shadow.fm.Flush(); err != nil {
		t.Fatal(err)
	}
	fx.pushRuns(t, s, fx.attackedRuns(63))
	if !ss.shadowDead {
		t.Fatal("shadow push error did not drop the shadow")
	}
	v, err := s.Finish("eof")
	if err != nil {
		t.Fatal(err)
	}
	// Even in serve mode, a dead shadow yields no verdict: primary rules.
	if !v.Intrusion {
		t.Fatalf("verdict = %+v, want the primary's intrusion", v)
	}
	if called {
		t.Fatal("onVerdict called without a shadow verdict")
	}
	pool.Release(s)
	if got := pool.Refs(vc); got != 1 {
		t.Fatalf("dead shadow sink not released to its entry: refs %d, want the hold's 1", got)
	}
}

// TestSwapReleasesToOrigin is the zero-drop invariant: a session admitted
// before a default flip keeps its pre-flip model, and every monitor — the
// primary's and the shadow's — is released back to the entry that built it,
// even after the default and the shadow have moved on.
func TestSwapReleasesToOrigin(t *testing.T) {
	fx := fixture(t)
	pool, v1, vc := shadowPool(t, false, nil)
	v2, err := pool.Register(fixtureModel(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	s1, err := pool.Acquire(fx.helloFrame("pre-flip", ""))
	if err != nil {
		t.Fatal(err)
	}
	pool.SetDefault(v2)
	pool.ClearShadow()
	s2, err := pool.Acquire(fx.helloFrame("post-flip", ""))
	if err != nil {
		t.Fatal(err)
	}
	if got := unwrapSink(s1).(*sharedSink).ModelVersion(); got != v1 {
		t.Fatalf("pre-flip session on %s, want %s", got, v1)
	}
	if got := s2.(*sharedSink).ModelVersion(); got != v2 {
		t.Fatalf("post-flip session on %s, want %s", got, v2)
	}
	// The old session still works and finishes against its own model.
	fx.pushRuns(t, s1, fx.attackedRuns(64))
	if v, err := s1.Finish("eof"); err != nil || !v.Intrusion {
		t.Fatalf("pre-flip session: %+v, %v", v, err)
	}
	p1, sh := s1.(*shadowSink).primary, s1.(*shadowSink).shadow
	pool.Release(s1)
	pool.Release(s2)
	if pool.Refs(v1) != 0 || pool.Refs(v2) != 0 {
		t.Fatalf("refs %d / %d after release, want 0 / 0", pool.Refs(v1), pool.Refs(v2))
	}
	pool.mu.Lock()
	defer pool.mu.Unlock()
	if e := pool.entries[v1]; len(e.idle) != 1 || e.idle[0] != p1.fm {
		t.Fatal("pre-flip monitor not parked on its own entry")
	}
	if len(sh.entry.idle) != 1 || sh.entry.idle[0] != sh.fm {
		t.Fatal("shadow monitor not parked on the candidate entry")
	}
	if _, ok := pool.entries[vc]; ok {
		t.Fatal("cleared shadow entry survived its last release")
	}
}

// TestSwapUnderLoad hammers Acquire/Push/Finish/Release from many goroutines
// while another goroutine keeps flipping the default and toggling the
// shadow. Run under -race; every session must complete with a verdict, and
// every ref must land back on the entry that took it.
func TestSwapUnderLoad(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	v1, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	v2, err := pool.Register(fixtureModel(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	blind := blindModel(t)
	versions := []string{v1, v2}
	var compared atomic.Int64
	onVerdict := func(pv, sv *Verdict) { compared.Add(1) }
	// The first shadow goes in before any session starts, so the workers
	// always overlap the toggling.
	if err := pool.SetShadow(blind, false, onVerdict); err != nil {
		t.Fatal(err)
	}
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for i := 1; ; i++ {
			select {
			case <-stop:
				pool.ClearShadow()
				return
			default:
			}
			pool.SetDefault(versions[i%2])
			switch i % 3 {
			case 0:
				if err := pool.SetShadow(blind, i%2 == 0, onVerdict); err != nil {
					t.Error(err)
				}
			case 1:
				pool.SetServe(true)
			case 2:
				pool.ClearShadow()
			}
			runtime.Gosched()
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s, err := pool.Acquire(fx.helloFrame("load", ""))
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				for ch, spec := range fx.specs {
					if err := s.Push(ch, make([]float64, 32*spec.Lanes)); err != nil {
						t.Errorf("Push: %v", err)
						return
					}
				}
				if v, err := s.Finish("eof"); err != nil || v == nil {
					t.Errorf("Finish: %+v, %v", v, err)
					return
				}
				pool.Release(s)
			}
		}()
	}
	wg.Wait()
	close(stop)
	<-done
	if models, refs := pool.Resident(); models != 2 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after soak, want the 2 pinned / 0", models, refs)
	}
	if compared.Load() == 0 {
		t.Fatal("no session was teed into the shadow while it was being toggled")
	}
}
