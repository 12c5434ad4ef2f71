package ingest

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"
)

// TestServeAfterShutdownReturnsNil: a shutdown that lands before Serve — a
// SIGTERM between net.Listen and Serve — is still a graceful shutdown.
// Serve must return nil and close the listener it was handed, not report
// an error that turns a clean drain into a failed exit.
func TestServeAfterShutdownReturnsNil(t *testing.T) {
	srv, err := NewServer(Config{Factory: &countFactory{}})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Serve(l); err != nil {
		t.Fatalf("Serve on a drained server = %v, want nil", err)
	}
	if _, err := l.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("listener still open after Serve returned: Accept = %v", err)
	}
}

// TestTerminatedDuringFinishReportsWhy: a session terminated while its
// client awaits the verdict — a drain handing it to a successor — must
// answer with the termination message ("migrated", which the client
// follows), never with a generic failure the client treats as fatal. The
// worker may still pick the queued Finish first; then the verdict stands.
func TestTerminatedDuringFinishReportsWhy(t *testing.T) {
	const msg = "session migrated; reconnect"
	for i := 0; i < 10; i++ {
		f := &countFactory{gate: make(chan struct{})}
		addr, srv := startServer(t, Config{Factory: f, ReadTimeout: 10 * time.Second})
		id := fmt.Sprintf("finishing-%d", i)
		c, err := Dial(addr, oneChanHello(id, 1), 5*time.Second)
		if err != nil {
			t.Fatal(err)
		}
		// The worker blocks pushing this frame, so the Finish queues behind it.
		if err := c.SendData(0, 0, make([]float64, 10)); err != nil {
			t.Fatal(err)
		}
		type result struct {
			v   *Verdict
			err error
		}
		finished := make(chan result, 1)
		go func() {
			v, err := c.Finish(10 * time.Second)
			finished <- result{v, err}
		}()
		waitFor(t, 5*time.Second, func() bool { return srv.QueuedFrames() == 1 })
		srv.mu.Lock()
		s := srv.sessions[id]
		srv.mu.Unlock()
		s.terminate(msg)
		close(f.gate)
		r := <-finished
		var se *ServerError
		switch {
		case r.err == nil && r.v != nil:
		case errors.As(r.err, &se) && se.Msg == msg:
		default:
			t.Fatalf("Finish on a terminated session = %+v, %v; want a verdict or %q", r.v, r.err, msg)
		}
		c.Close()
	}
}
