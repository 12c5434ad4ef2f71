package ingest

import (
	"bufio"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"nsync/internal/sigproc"
)

// TestReplayManyReconnectsWithinDialBudget: MaxDials is a budget per
// outage, not per session. A long print whose connection drops every four
// frames redials far more often than the default budget of 8, and every
// redial works, so it must finish with its whole stream delivered. The
// frames are paced like a sensor's, so each connection commits something
// before the next drop even when the session worker starts late.
func TestReplayManyReconnectsWithinDialBudget(t *testing.T) {
	f := &countFactory{}
	addr, _ := startServer(t, Config{Factory: f, ReadTimeout: 10 * time.Second})
	sig := noiseML(rand.New(rand.NewSource(81)), 100, 1, 2000)
	stats := &ReplayStats{}
	v, err := Replay(addr, oneChanHello("blips", 1), []*sigproc.Signal{sig}, ReplayOptions{
		FrameSamples: 10, Seed: 81, ReconnectAfter: 4, FramePause: 2 * time.Millisecond, Stats: stats,
	})
	if err != nil {
		t.Fatalf("replay: %v", err)
	}
	if v.Reason != "finished" {
		t.Fatalf("verdict reason %q, want finished", v.Reason)
	}
	if stats.Dials < 5*8 {
		t.Fatalf("Dials = %d, want the total of far more than one default budget", stats.Dials)
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	if got := f.sinks[0].samples[0]; got != 2000 {
		t.Fatalf("sink got %d samples, want 2000", got)
	}
}

// TestReplayDialBudgetSpansConnectionsWithoutProgress: a server that
// completes every handshake but never commits a sample does not end the
// outage, so the redials exhaust the budget instead of looping forever.
func TestReplayDialBudgetSpansConnectionsWithoutProgress(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			if _, err := ReadFrame(bufio.NewReader(conn)); err == nil {
				WriteFrame(conn, &Frame{Type: FrameHelloAck, Committed: []uint64{0}}) //nolint:errcheck // client may be gone
			}
			conn.Close()
		}
	}()
	sig := noiseML(rand.New(rand.NewSource(82)), 100, 1, 200)
	_, err = Replay(l.Addr().String(), oneChanHello("flapping", 1), []*sigproc.Signal{sig}, ReplayOptions{
		FrameSamples: 20, MaxDials: 4, DialBackoff: time.Millisecond, Timeout: 5 * time.Second,
	})
	if err == nil || !strings.Contains(err.Error(), "dial budget exhausted") {
		t.Fatalf("Replay against a server that never commits = %v, want dial budget exhausted", err)
	}
}
