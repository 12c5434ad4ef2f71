package main

import (
	"bufio"
	"fmt"
	"io"
	"os/exec"
	"strings"
	"sync"
	"syscall"
	"time"
)

// daemon is one nsyncd child process.
type daemon struct {
	cmd  *exec.Cmd
	addr string
	done chan struct{} // closed once the stderr reader has finished

	mu   sync.Mutex
	tail []string // last stderr lines, for error reports
}

// startDaemon execs nsyncd with args (which must include -listen
// 127.0.0.1:0) and waits until its listener accepts. It returns the time
// from exec to that moment: reading the signals, training the detectors and
// opening the journal.
func startDaemon(bin string, args []string) (*daemon, time.Duration, error) {
	d := &daemon{cmd: exec.Command(bin, args...), done: make(chan struct{})}
	d.cmd.SysProcAttr = dieWithParent()
	stderr, err := d.cmd.StderrPipe()
	if err != nil {
		return nil, 0, err
	}
	ready := make(chan string, 1)
	start := time.Now()
	if err := d.cmd.Start(); err != nil {
		return nil, 0, err
	}
	go d.readLog(stderr, ready)
	select {
	case addr, ok := <-ready:
		if !ok {
			d.cmd.Wait() //nolint:errcheck // reporting the log instead
			return nil, 0, fmt.Errorf("nsyncd exited during startup: %s", d.logTail())
		}
		d.addr = addr
		return d, time.Since(start), nil
	case <-time.After(90 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // giving up on it
		d.cmd.Wait()         //nolint:errcheck // reporting the log instead
		return nil, 0, fmt.Errorf("nsyncd did not start listening: %s", d.logTail())
	}
}

// dieWithParent makes a child process get SIGKILL if the benchmark dies
// first, so no child outlives a crashed run.
func dieWithParent() *syscall.SysProcAttr {
	return &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
}

// readLog scans nsyncd's log for the listening line, then keeps draining it
// so the daemon never blocks on a full pipe.
func (d *daemon) readLog(r io.Reader, ready chan<- string) {
	defer close(d.done)
	sc := bufio.NewScanner(r)
	sent := false
	for sc.Scan() {
		line := sc.Text()
		d.mu.Lock()
		d.tail = append(d.tail, line)
		if len(d.tail) > 20 {
			d.tail = d.tail[1:]
		}
		d.mu.Unlock()
		if !sent {
			if i := strings.Index(line, "listening on "); i >= 0 {
				addr, _, _ := strings.Cut(line[i+len("listening on "):], " ")
				ready <- addr
				sent = true
			}
		}
	}
	if !sent {
		close(ready)
	}
}

func (d *daemon) logTail() string {
	d.mu.Lock()
	defer d.mu.Unlock()
	return strings.Join(d.tail, "\n")
}

// cpu returns the daemon's user+system CPU seconds so far.
func (d *daemon) cpu() (float64, error) { return procCPU(d.cmd.Process.Pid) }

// peakRSSMB returns the daemon's peak resident set size so far.
func (d *daemon) peakRSSMB() (float64, error) { return peakRSSMB(d.cmd.Process.Pid) }

// stop drains the daemon with SIGTERM and waits for it to exit. A daemon
// that does not drain within a minute is killed; either that or a non-zero
// exit is an error. The process is gone when stop returns.
func (d *daemon) stop() error {
	d.cmd.Process.Signal(syscall.SIGTERM) //nolint:errcheck // Wait reports the outcome
	exited := make(chan error, 1)
	go func() { <-d.done; exited <- d.cmd.Wait() }()
	var err error
	select {
	case err = <-exited:
	case <-time.After(60 * time.Second):
		d.cmd.Process.Kill() //nolint:errcheck // already failing
		<-exited
		err = fmt.Errorf("did not drain within 60s")
	}
	if err != nil {
		return fmt.Errorf("nsyncd: %v: %s", err, d.logTail())
	}
	return nil
}

// bootDaemons boots nsyncd n times on fresh journal directories, keeping
// the last one running, and returns it with the median boot time. Booting
// several times makes set-up time a median instead of one cold sample.
func bootDaemons(bin string, n int, args func(i int) []string) (*daemon, float64, error) {
	var boots []float64
	for i := 0; i < n; i++ {
		d, took, err := startDaemon(bin, args(i))
		if err != nil {
			return nil, 0, err
		}
		boots = append(boots, took.Seconds())
		if i == n-1 {
			return d, median(boots), nil
		}
		// A daemon signalled this early can lose the race between its
		// listener opening and its accept loop starting, and then exits
		// non-zero; it is gone either way, which is all that matters here.
		d.stop() //nolint:errcheck // see above
	}
	panic("unreachable")
}
