package harness

// Fleet members the coordinator starts itself. A spawned member is a
// subprocess (`stbpu-suite -worker`) speaking the fleet protocol on its
// stdin/stdout; the coordinator admits the pipe pair exactly like a TCP
// accept, so exec workers get the same handshake, heartbeats, locality
// routing, prefetch, speculation and per-worker stats as network
// workers. The in-process member of a mixed fleet serves from a
// goroutine over net.Pipe. Anything that can pipe stdin/stdout to a
// process with the same binary — ssh, a container runner, a job
// scheduler — can host a member.

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"sync"
	"time"
)

// member is one coordinator-started fleet member. Subprocess and
// in-process members differ only in how they start and stop.
type member struct {
	label  string // "exec worker N" or "in-process worker"
	conn   net.Conn
	stderr *tailBuffer // nil for the in-process member
	stop   func()      // kills the process or cancels the worker
	// exited closes once the process has been reaped (or the in-process
	// worker returned); waitErr then holds its exit state.
	exited  chan struct{}
	waitErr error
	// lost marks a member the fleet has dropped, so the next Run
	// restarts its slot. Guarded by the backend mutex.
	lost bool
}

// gone reports whether the member needs replacing: the fleet dropped
// it, or its process already exited.
func (m *member) gone() bool {
	select {
	case <-m.exited:
		return true
	default:
		return m.lost
	}
}

func (m *member) String() string { return m.label }

// spawnMember starts one subprocess member with its stdio on os.Pipe
// pairs, which support deadlines, so heartbeat timeouts apply to it
// like to any socket.
func spawnMember(slot int, argv, env []string) (*member, error) {
	if len(argv) == 0 {
		return nil, errors.New("no worker command")
	}
	inR, inW, err := os.Pipe()
	if err != nil {
		return nil, err
	}
	outR, outW, err := os.Pipe()
	if err != nil {
		inR.Close()
		inW.Close()
		return nil, err
	}
	cmd := exec.Command(argv[0], argv[1:]...)
	if len(env) > 0 {
		cmd.Env = append(os.Environ(), env...)
	}
	tail := &tailBuffer{max: 4096}
	cmd.Stdin, cmd.Stdout, cmd.Stderr = inR, outW, tail
	err = cmd.Start()
	// The child holds its own copies of these ends now.
	inR.Close()
	outW.Close()
	if err != nil {
		inW.Close()
		outR.Close()
		return nil, err
	}
	m := &member{
		label:  fmt.Sprintf("exec worker %d", slot),
		conn:   &pipeConn{r: outR, w: inW},
		stderr: tail,
		stop:   func() { _ = cmd.Process.Kill() },
		exited: make(chan struct{}),
	}
	go func() {
		m.waitErr = cmd.Wait()
		close(m.exited)
	}()
	return m, nil
}

// startInProcessMember runs ServeWorker on one end of a net.Pipe and
// returns the member owning the other end.
func startInProcessMember(opts WorkerOptions) *member {
	coord, worker := net.Pipe()
	ctx, cancel := context.WithCancel(context.Background())
	m := &member{label: "in-process worker", conn: coord, stop: cancel, exited: make(chan struct{})}
	go func() {
		m.waitErr = ServeWorker(ctx, worker, worker, opts)
		worker.Close()
		close(m.exited)
	}()
	return m
}

// postmortem turns the cause of a member's loss into a diagnosis: the
// member's identity, its exit state and its recent stderr. A member
// that has not exited shortly after its connection failed is presumed
// hung and stopped.
func (m *member) postmortem(cause error) error {
	select {
	case <-m.exited:
	case <-time.After(200 * time.Millisecond):
		m.stop()
	}
	state := "exit state unknown"
	select {
	case <-m.exited:
		if m.waitErr != nil {
			state = m.waitErr.Error()
		} else {
			state = "exited cleanly"
		}
	case <-time.After(2 * time.Second):
	}
	if m.stderr != nil {
		if tail := m.stderr.String(); tail != "" {
			return fmt.Errorf("%s lost: %w; worker %s; recent stderr: %q", m, cause, state, tail)
		}
	}
	return fmt.Errorf("%s lost: %w; worker %s", m, cause, state)
}

// shutdown closes the member's connection — its clean-exit signal — and
// reaps it, stopping it if it lingers past grace.
func (m *member) shutdown(grace time.Duration) {
	m.conn.Close()
	select {
	case <-m.exited:
	case <-time.After(grace):
		m.stop()
		<-m.exited
	}
}

// pipeConn adapts a subprocess's stdout (r) and stdin (w) pipes to
// net.Conn, so the coordinator admits it like a socket.
type pipeConn struct {
	r, w *os.File
}

func (c *pipeConn) Read(p []byte) (int, error)  { return c.r.Read(p) }
func (c *pipeConn) Write(p []byte) (int, error) { return c.w.Write(p) }

func (c *pipeConn) Close() error {
	werr := c.w.Close()
	if err := c.r.Close(); err != nil {
		return err
	}
	return werr
}

func (c *pipeConn) LocalAddr() net.Addr  { return pipeAddr{} }
func (c *pipeConn) RemoteAddr() net.Addr { return pipeAddr{} }

func (c *pipeConn) SetDeadline(t time.Time) error {
	if err := c.r.SetReadDeadline(t); err != nil {
		return err
	}
	return c.w.SetWriteDeadline(t)
}

func (c *pipeConn) SetReadDeadline(t time.Time) error  { return c.r.SetReadDeadline(t) }
func (c *pipeConn) SetWriteDeadline(t time.Time) error { return c.w.SetWriteDeadline(t) }

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "stdio" }

// tailBuffer keeps the last max bytes written, for stderr post-mortems.
type tailBuffer struct {
	mu  sync.Mutex
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

func (t *tailBuffer) String() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return string(t.buf)
}
