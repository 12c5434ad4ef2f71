package ingest

import (
	"nsync/internal/obs"
	"nsync/internal/registry"
)

// Per-version push latency timers: how long the active and shadow models
// spend on one Push call. Comparing the two histograms in -metrics shows
// whether a candidate model is affordable before it is promoted.
var (
	activePushTimer = obs.GetTimer("model.active.push")
	shadowPushTimer = obs.GetTimer("model.shadow.push")
)

// shadowSetting is the pool's installed shadow: the candidate's entry (on
// which the setting holds one ref), whether its verdict is authoritative,
// and who hears about both verdicts.
type shadowSetting struct {
	entry     *sharedEntry
	serve     bool
	onVerdict func(primary, shadow *Verdict)
}

// SetShadow installs m as the shadow model for sessions admitted from now
// on — the evaluation half of the registry's promotion walk. Each session
// is teed into a monitor on m next to its primary; onVerdict, if non-nil,
// receives both verdicts whenever the session produced both; and when
// serve is true the shadow's verdict is the one returned (canary) while the
// primary still runs for comparison.
//
// The shadow is an ordinary unpinned pool entry, resolvable by version like
// any other, on which the setting holds a ref: it stays resident while
// installed and is evicted once ClearShadow drops that ref and its last
// session releases — unless Register pinned it in between, which is what
// promotion does.
func (p *SharedPool) SetShadow(m *registry.Model, serve bool, onVerdict func(primary, shadow *Verdict)) error {
	v, err := validVersion(m)
	if err != nil {
		return err
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	e, ok := p.entries[v]
	if !ok {
		e = newSharedEntry(v, m, false)
		p.entries[v] = e
	}
	e.refs++ // taken before the old hold drops, in case it is the same entry
	p.dropShadowLocked()
	p.shadow = shadowSetting{entry: e, serve: serve, onVerdict: onVerdict}
	return nil
}

// SetServe flips whether the shadow's verdict is authoritative for sessions
// admitted from now on (shadow → canary).
func (p *SharedPool) SetServe(serve bool) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.shadow.serve = serve
}

// ClearShadow removes the shadow for new sessions. Sessions already
// carrying a shadow sink finish it and release it to its entry.
func (p *SharedPool) ClearShadow() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.dropShadowLocked()
}

// dropShadowLocked releases the installed shadow's hold on its entry.
// Callers hold p.mu.
func (p *SharedPool) dropShadowLocked() {
	if e := p.shadow.entry; e != nil {
		p.shadow = shadowSetting{}
		e.refs--
		p.evictLocked(e)
	}
}

// teeShadow pairs a primary sink with a sink on the installed shadow, or
// returns the primary itself when no shadow is installed. The shadow is
// best-effort: one that cannot serve the session — a different channel
// layout, a monitor that fails to build — leaves it primary-only, because
// a broken candidate model must never cost a live session.
func (p *SharedPool) teeShadow(hello *Frame, primary *sharedSink) Sink {
	p.mu.Lock()
	sh := p.shadow
	if sh.entry == nil || matchChannelSpecs(hello.Channels, sh.entry.specs) != nil {
		p.mu.Unlock()
		return primary
	}
	fm := sh.entry.checkoutLocked()
	p.mu.Unlock()
	shadow, err := p.sink(sh.entry, fm)
	if err != nil {
		return primary
	}
	return &shadowSink{primary: primary, shadow: shadow, serve: sh.serve, onVerdict: sh.onVerdict}
}

// shadowSink tees a session into its primary and shadow sinks. The shadow
// is best-effort: its first error drops it for the rest of the session.
type shadowSink struct {
	primary *sharedSink
	shadow  *sharedSink

	serve      bool
	onVerdict  func(primary, shadow *Verdict)
	shadowDead bool
}

// Unwrap exposes the primary sink — the authoritative detector state — so
// journal snapshots capture it. Shadow state is evaluation-only and is
// deliberately not persisted: a recovered session resumes primary-only.
func (s *shadowSink) Unwrap() Sink { return s.primary }

// Push implements Sink.
func (s *shadowSink) Push(ch int, values []float64) error {
	start := activePushTimer.Start()
	err := s.primary.Push(ch, values)
	activePushTimer.Stop(start)
	if err != nil {
		return err
	}
	if !s.shadowDead {
		start := shadowPushTimer.Start()
		serr := s.shadow.Push(ch, values)
		shadowPushTimer.Stop(start)
		if serr != nil {
			s.shadowDead = true
		}
	}
	return nil
}

// Finish implements Sink. The primary verdict is authoritative unless the
// shadow is serving (canary) and produced a verdict of its own.
func (s *shadowSink) Finish(reason string) (*Verdict, error) {
	pv, perr := s.primary.Finish(reason)
	var sv *Verdict
	if !s.shadowDead {
		sv, _ = s.shadow.Finish(reason) // best-effort; shadow errors never fail the session
	}
	if perr != nil {
		return nil, perr
	}
	if s.onVerdict != nil && sv != nil {
		s.onVerdict(pv, sv)
	}
	if s.serve && sv != nil {
		return sv, nil
	}
	return pv, nil
}
