package ingest

import (
	"math/rand"
	"strings"
	"sync"
	"testing"

	"nsync/internal/registry"
)

// fixtureModel packages the trained e2e fixture as a registry model; k
// varies the vote quorum, which also varies the content address.
func fixtureModel(t *testing.T, k int) *registry.Model {
	t.Helper()
	return fixture(t).model(k)
}

func (fx *e2eFixture) helloFrame(id, model string) *Frame {
	return &Frame{Type: FrameHello, SessionID: id, Channels: fx.specs, Model: model}
}

// TestSharedPoolSessionsShareOneModel is the refcounting contract: two
// sessions on the same content address share one resident model, releasing
// one must not tear the model out from under the other, and the survivor
// still produces a working verdict.
func TestSharedPoolSessionsShareOneModel(t *testing.T) {
	fx := fixture(t)
	pool := NewSharedPool(nil)
	v, err := pool.Register(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	if pool.Default() != v {
		t.Fatalf("first registered model is not the default")
	}

	s1, err := pool.Acquire(fx.helloFrame("share-1", v))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := pool.Acquire(fx.helloFrame("share-2", "")) // empty = default
	if err != nil {
		t.Fatal(err)
	}
	if got := pool.Refs(v); got != 2 {
		t.Fatalf("Refs = %d with two sessions, want 2", got)
	}
	if models, refs := pool.Resident(); models != 1 || refs != 2 {
		t.Fatalf("Resident() = %d models / %d refs, want 1 / 2", models, refs)
	}
	// The two sinks share the model but not the monitor.
	if s1.(*sharedSink).fm == s2.(*sharedSink).fm {
		t.Fatal("two sessions share one monitor")
	}
	if s1.(*sharedSink).entry != s2.(*sharedSink).entry {
		t.Fatal("two sessions on the same version got distinct entries")
	}

	pool.Release(s1)
	if got := pool.Refs(v); got != 1 {
		t.Fatalf("Refs = %d after one release, want 1", got)
	}
	// The survivor still detects: feed it an attacked stream and finish.
	rng := rand.New(rand.NewSource(51))
	for ch := range fx.specs {
		run := attacked(rng, fx.refs[ch])
		n := run.Len()
		lanes := fx.specs[ch].Lanes
		values := make([]float64, 0, n*lanes)
		for i := 0; i < n; i++ {
			for l := 0; l < lanes; l++ {
				values = append(values, run.Data[l][i])
			}
		}
		if err := s2.Push(ch, values); err != nil {
			t.Fatal(err)
		}
	}
	verdict, err := s2.Finish("finished")
	if err != nil {
		t.Fatal(err)
	}
	if !verdict.Intrusion {
		t.Error("survivor session missed the attack after its peer released")
	}
	pool.Release(s2)
	if models, refs := pool.Resident(); models != 1 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after releases, want pinned 1 / 0", models, refs)
	}
}

// TestSharedPoolStoreLoadAndEvict: a version not resident is loaded from
// the backing store on demand and evicted when its last session leaves;
// unknown versions and mismatched layouts are admission errors.
func TestSharedPoolStoreLoadAndEvict(t *testing.T) {
	fx := fixture(t)
	store, err := registry.OpenStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	v, err := store.Put(fixtureModel(t, 1))
	if err != nil {
		t.Fatal(err)
	}
	pool := NewSharedPool(store)

	s, err := pool.Acquire(fx.helloFrame("loaded", v))
	if err != nil {
		t.Fatal(err)
	}
	if models, _ := pool.Resident(); models != 1 {
		t.Fatalf("Resident() = %d models after load, want 1", models)
	}
	pool.Release(s)
	if models, _ := pool.Resident(); models != 0 {
		t.Fatalf("store-loaded model survives its last release")
	}

	if _, err := pool.Acquire(fx.helloFrame("ghost", "feedfacecafe")); err == nil || !strings.Contains(err.Error(), "not found") {
		t.Fatalf("unknown version: got %v, want not-found error", err)
	}
	bad := &Frame{Type: FrameHello, SessionID: "bad", Model: v,
		Channels: []ChannelSpec{{Name: "X", Lanes: 1, Rate: 1}}}
	if _, err := pool.Acquire(bad); err == nil || !strings.Contains(err.Error(), "channel") {
		t.Fatalf("layout mismatch: got %v, want channel error", err)
	}
	if _, err := NewSharedPool(nil).Acquire(fx.helloFrame("none", "")); err == nil {
		t.Fatal("empty pool with no default admitted a session")
	}
}

// TestSharedPoolUnderLoad hammers Acquire/Push/Finish/Release from many
// goroutines across two registered models while another goroutine keeps
// flipping the default. Run under -race; refcounts must land on zero and
// both pinned models must survive.
func TestSharedPoolUnderLoad(t *testing.T) {
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
	if v1 == v2 {
		t.Fatal("distinct quorums produced one content address")
	}
	versions := []string{v1, v2, ""} // "" races against the flipping default

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 200; i++ {
			pool.SetDefault(versions[i%2])
		}
	}()
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 30; i++ {
				s, err := pool.Acquire(fx.helloFrame("load", versions[(w+i)%len(versions)]))
				if err != nil {
					t.Errorf("Acquire: %v", err)
					return
				}
				// A short benign chunk per channel keeps the monitor busy.
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
		}(w)
	}
	wg.Wait()
	<-done
	models, refs := pool.Resident()
	if models != 2 || refs != 0 {
		t.Fatalf("Resident() = %d models / %d refs after soak, want 2 / 0", models, refs)
	}
}
