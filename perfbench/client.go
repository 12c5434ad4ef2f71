package main

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"time"

	"nsync/internal/ingest"
	"nsync/internal/sigproc"
)

// plannedFrame is one data frame of a session's send schedule.
type plannedFrame struct {
	ch     int
	seq    uint64
	values []float64 // lane-interleaved
	due    time.Duration
}

// sessionPlan is everything needed to replay one print as one session.
type sessionPlan struct {
	hello  ingest.Hello
	frames []plannedFrame
	totals []uint64
	// reconnectAfter forces one reconnect after this many sent frames
	// (0 = never).
	reconnectAfter int
	// finishDue is when the print ends, relative to the session start;
	// paced sessions measure verdict latency from here.
	finishDue time.Duration
	printS    float64 // simulated printer-seconds the session carries
	want      *ingest.Verdict
}

// defects are seeded, lossless transport defects applied to a schedule.
type defects struct {
	shuffleWindow int
	dupProb       float64
}

// planFrames cuts per-channel signals into frames of frameS printer-seconds,
// interleaves the channels in capture order, and applies the defects. A
// frame is due when its last sample exists, at the compressed clock
// (compress printer-seconds per wall second).
func planFrames(sigs []*sigproc.Signal, frameS, compress float64, d defects, rng *rand.Rand) ([]plannedFrame, []uint64) {
	totals := make([]uint64, len(sigs))
	per := make([][]plannedFrame, len(sigs))
	for ch, s := range sigs {
		n, lanes := s.Len(), s.Channels()
		totals[ch] = uint64(n)
		step := max(1, int(frameS*s.Rate))
		for start := 0; start < n; start += step {
			end := min(start+step, n)
			vals := make([]float64, 0, (end-start)*lanes)
			for i := start; i < end; i++ {
				for l := 0; l < lanes; l++ {
					vals = append(vals, s.Data[l][i])
				}
			}
			due := time.Duration(float64(end) / s.Rate / compress * float64(time.Second))
			per[ch] = append(per[ch], plannedFrame{ch: ch, seq: uint64(start), values: vals, due: due})
		}
	}
	var out []plannedFrame
	for i := 0; ; i++ {
		any := false
		for ch := range per {
			if i < len(per[ch]) {
				fr := per[ch][i]
				out = append(out, fr)
				if d.dupProb > 0 && rng.Float64() < d.dupProb {
					out = append(out, fr)
				}
				any = true
			}
		}
		if !any {
			break
		}
	}
	if w := d.shuffleWindow; w > 1 {
		for start := 0; start < len(out); start += w {
			end := min(start+w, len(out))
			rng.Shuffle(end-start, func(i, j int) { out[start+i], out[start+j] = out[start+j], out[start+i] })
		}
	}
	return out, totals
}

// sessionResult is what one replayed session produced.
type sessionResult struct {
	verdict *ingest.Verdict
	err     error
	// latency is verdict arrival minus Finish due (paced) or Finish sent.
	latency   time.Duration
	dialTimes []time.Duration
	late      []time.Duration // paced only: send time minus due time per frame
	helloAt   time.Time
	finishAt  time.Time // when Finish was due (paced) or sent
	doneAt    time.Time
}

// check reports why the session did not produce the reference verdict,
// or nil if it did.
func (r *sessionResult) check(want *ingest.Verdict) error {
	if r.err != nil {
		return r.err
	}
	if !reflect.DeepEqual(r.verdict, want) {
		return fmt.Errorf("verdict mismatch: got %+v want %+v", *r.verdict, *want)
	}
	return nil
}

// runSession replays one session plan against addr. With paced set, frames
// and Finish wait for their due times relative to start (open loop);
// otherwise they go out as fast as the connection takes them (closed loop).
func runSession(addr string, p *sessionPlan, start time.Time, paced bool, tr *tracer) (res sessionResult) {
	res.helloAt = time.Now()
	root := tr.begin("client.session", p.hello.SessionID, 0)
	defer func() { res.doneAt = time.Now(); tr.end(root) }()
	dial := func(h ingest.Hello) (*ingest.Client, error) {
		for attempt := 0; ; attempt++ {
			sp := tr.begin("client.dial", h.SessionID, root)
			t := time.Now()
			c, err := ingest.Dial(addr, h, 10*time.Second)
			res.dialTimes = append(res.dialTimes, time.Since(t))
			tr.end(sp)
			// A deliberate reconnect can beat the server noticing the old
			// connection closed; the session is free again a moment later.
			var se *ingest.ServerError
			if err != nil && errors.As(err, &se) && strings.Contains(se.Msg, "already attached") && attempt < 200 {
				time.Sleep(2 * time.Millisecond)
				continue
			}
			return c, err
		}
	}
	c, err := dial(p.hello)
	if err != nil {
		res.err = err
		return res
	}
	defer func() { c.Close() }()
	resume := p.hello
	resume.ExpectResume = true
	sendSpan := tr.begin("client.send", p.hello.SessionID, root)
	sent := 0
	for pos := 0; pos < len(p.frames); pos++ {
		fr := p.frames[pos]
		lanes := uint64(p.hello.Channels[fr.ch].Lanes)
		if fr.ch < len(c.Committed) && fr.seq+uint64(len(fr.values))/lanes <= c.Committed[fr.ch] {
			continue // wholly behind the commit point after a resume
		}
		if paced {
			due := start.Add(fr.due)
			if wait := time.Until(due); wait > 0 {
				time.Sleep(wait)
			}
			res.late = append(res.late, time.Since(due))
		}
		if err := c.SendData(fr.ch, fr.seq, fr.values); err != nil {
			res.err = err
			tr.end(sendSpan)
			return res
		}
		sent++
		if sent == p.reconnectAfter && pos+1 < len(p.frames) {
			c.Close()
			if c, err = dial(resume); err != nil {
				res.err = err
				tr.end(sendSpan)
				return res
			}
			pos = -1 // rewind; committed frames are skipped above
		}
	}
	tr.end(sendSpan)
	ref := time.Now()
	if paced {
		ref = start.Add(p.finishDue)
		if wait := time.Until(ref); wait > 0 {
			time.Sleep(wait)
		}
	}
	finSpan := tr.begin("client.finish", p.hello.SessionID, root)
	for ch, total := range p.totals {
		if err := c.SendEOS(ch, total); err != nil {
			res.err = err
			tr.end(finSpan)
			return res
		}
	}
	if !paced {
		ref = time.Now()
	}
	res.finishAt = ref
	res.verdict, res.err = c.Finish(60 * time.Second)
	res.latency = time.Since(ref)
	tr.end(finSpan)
	return res
}
