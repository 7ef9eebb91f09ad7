package harness

// Exec-fleet tests re-exec this test binary as the worker: when the
// worker-mode env var is set, TestMain serves the fleet protocol on
// stdio instead of running tests. Coordinator and worker therefore share
// one binary and one scenario registry, exactly like stbpu-suite and
// `stbpu-suite -worker`. The scripted modes (die, wedge, flaky,
// remote-wedge) speak the real handshake and frames, then misbehave.

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

const (
	workerEnvVar         = "STBPU_HARNESS_TEST_WORKER"
	workerTraceDirEnvVar = "STBPU_HARNESS_TEST_TRACEDIR"
)

// wireCell is a cell payload exercising float/uint64 wire fidelity.
type wireCell struct {
	Shard int
	Seed  uint64
	Val   float64
}

// registerExecScenarios installs the deterministic scenarios both the
// coordinator tests and the re-exec'd worker need in their registries.
func registerExecScenarios() {
	Register(Scenario{
		Name:        "_exec-wire",
		Description: "exec-backend test scenario",
		Defaults:    Params{Trials: 16},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			return Map(ctx, pool, "_exec-wire", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (wireCell, error) {
					return wireCell{
						Shard: shard,
						Seed:  seed,
						Val:   math.Sqrt(float64(seed%1e6)) / 3,
					}, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-trace",
		Description: "exec-backend trace-store scenario",
		Defaults:    Params{Trials: 4, Records: 2_000},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			cache := pool.Traces()
			return Map(ctx, pool, "_exec-trace", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (uint64, error) {
					cols, _, err := cache.GetColumns("505.mcf", p.Records)
					if err != nil {
						return 0, err
					}
					digest := seed
					for i := 0; i < cols.Len(); i += 97 {
						digest = digest*1099511628211 ^ cols.PCs[i] ^ cols.Targets[i]
					}
					return digest, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-group",
		Description: "exec-backend locality-grouped trace scenario",
		Defaults:    Params{Trials: 8, Records: 2_000},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			workloads := []string{"505.mcf", "541.leela"}
			wl := func(shard int) string { return workloads[shard%len(workloads)] }
			cache := pool.Traces()
			return MapTraceMajor(ctx, pool, "_exec-group", p.Trials,
				func(shard int) int { return shard % len(workloads) },
				func(shard int) string { return Locality(wl(shard), p.Records) },
				func(ctx context.Context, shards []int, seeds []uint64) ([]uint64, error) {
					out := make([]uint64, len(shards))
					for i, shard := range shards {
						cols, _, err := cache.GetColumns(wl(shard), p.Records)
						if err != nil {
							return nil, err
						}
						digest := seeds[i]
						for j := 0; j < cols.Len(); j += 97 {
							digest = digest*1099511628211 ^ cols.PCs[j] ^ cols.Targets[j]
						}
						out[i] = digest
					}
					return out, nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-slow",
		Description: "exec-backend scenario whose cells take measurable time",
		Defaults:    Params{Trials: 64},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			return Map(ctx, pool, "_exec-slow", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (uint64, error) {
					time.Sleep(2 * time.Millisecond)
					return seed ^ uint64(shard), nil
				})
		},
	})
	Register(Scenario{
		Name:        "_exec-failing",
		Description: "exec-backend failing-cell scenario",
		Defaults:    Params{Trials: 8},
		Run: func(ctx context.Context, p Params, pool *Pool) (any, error) {
			return Map(ctx, pool, "_exec-failing", p.Trials,
				func(ctx context.Context, shard int, seed uint64) (int, error) {
					if shard == 5 {
						return 0, fmt.Errorf("shard %d detonated", shard)
					}
					return shard, nil
				})
		},
	})
}

func TestMain(m *testing.M) {
	switch os.Getenv(workerEnvVar) {
	case "serve":
		registerExecScenarios()
		if err := ServeWorker(context.Background(), os.Stdin, os.Stdout, WorkerOptions{
			Workers:  1,
			TraceDir: os.Getenv(workerTraceDirEnvVar),
		}); err != nil {
			fmt.Fprintln(os.Stderr, "worker:", err)
			os.Exit(1)
		}
		os.Exit(0)
	case "die":
		// Simulate a worker killed mid-chunk: join, swallow one work
		// frame, leave a trace on stderr, and vanish without answering.
		if _, err := scriptedHandshake(os.Stdin, os.Stdout, "die"); err != nil {
			os.Exit(1)
		}
		_, _ = readWork(os.Stdin)
		fmt.Fprintln(os.Stderr, "worker going down for the kill test")
		os.Exit(3)
	case "wedge":
		// Simulate a hung (not dead) worker: join, swallow one work
		// frame, then block forever without heartbeats — the shape only
		// the heartbeat deadline can unstick.
		if _, err := scriptedHandshake(os.Stdin, os.Stdout, "wedge"); err != nil {
			os.Exit(1)
		}
		_, _ = readWork(os.Stdin)
		fmt.Fprintln(os.Stderr, "worker wedged and will never answer")
		select {}
	case "remote-wedge":
		// A network worker for the kill -9 chaos test: join the fleet,
		// accept one chunk, announce it on stdout, then hang (still
		// heartbeating) until the test delivers SIGKILL.
		remoteWedgeWorkerMain()
	case "flaky":
		// Serve two chunks correctly, then die holding the third — a
		// member lost after it already delivered results, the shape that
		// must not double-count cells once the fleet requeues.
		registerExecScenarios()
		if _, err := scriptedHandshake(os.Stdin, os.Stdout, "flaky"); err != nil {
			os.Exit(1)
		}
		for served := 0; ; served++ {
			work, err := readWork(os.Stdin)
			if err != nil {
				os.Exit(0)
			}
			if served >= 2 {
				os.Exit(3)
			}
			if answerWork(os.Stdout, work) != nil {
				os.Exit(1)
			}
		}
	}
	registerExecScenarios()
	os.Exit(m.Run())
}

// scriptedHandshake runs the worker half of the handshake for the
// hand-rolled test workers.
func scriptedHandshake(r io.Reader, w io.Writer, name string) (remoteWelcome, error) {
	var welcome remoteWelcome
	if _, err := writeJSONFrame(w, remoteHello{Proto: remoteProtoVersion, Name: name}); err != nil {
		return welcome, err
	}
	_, err := readJSONFrame(r, &welcome)
	return welcome, err
}

// readWork reads one work frame.
func readWork(r io.Reader) (*wireMsg, error) {
	payload, err := readRawFrame(r)
	if err != nil {
		return nil, err
	}
	m, err := decodeWireMsg(payload)
	if err == nil && m.kind != wireKindWork {
		err = fmt.Errorf("frame kind %d, want work", m.kind)
	}
	return m, err
}

// writeResults answers the work frame seq with results or a batch error.
func writeResults(w io.Writer, seq uint64, results []CellResult, batchErr string, permanent bool) error {
	return writeRawFrame(w, encodeWireMsg(&wireMsg{kind: wireKindResults, seq: seq, results: results, err: batchErr, permanent: permanent}))
}

// answerWork executes a work frame's cells like a real worker and
// answers them.
func answerWork(w io.Writer, work *wireMsg) error {
	results, err := executeCells(context.Background(), work.cells, cellEnv{workers: 1, traceMajor: true, snapshots: true})
	if err != nil {
		return writeResults(w, work.seq, nil, err.Error(), false)
	}
	return writeResults(w, work.seq, results, "", false)
}

// newTestExecBackend builds an exec fleet whose members re-exec this
// test binary in the given worker mode.
func newTestExecBackend(t *testing.T, workers int, mode string) *RemoteBackend {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	b := &RemoteBackend{
		Spawn:        workers,
		SpawnCommand: []string{exe},
		SpawnEnv:     []string{workerEnvVar + "=" + mode},
	}
	t.Cleanup(func() { b.Close() })
	return b
}

func runWire(t *testing.T, pool *Pool) []Report {
	t.Helper()
	reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
	if err != nil {
		t.Fatal(err)
	}
	return reports
}

// TestExecBackendMatchesLocal is the distributed determinism gate: the
// same scenario on subprocess workers must marshal byte-identically to
// the in-process run.
func TestExecBackendMatchesLocal(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 1234))

	pool := NewPool(2, 1234)
	pool.SetBackend(newTestExecBackend(t, 2, "serve"))
	remote := runWire(t, pool)

	a, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(remote)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("exec-backend results diverge from local:\nlocal:  %s\nremote: %s", a, b)
	}
	if remote[0].Cells != local[0].Cells {
		t.Errorf("cell accounting differs: local %d, remote %d", local[0].Cells, remote[0].Cells)
	}
}

// TestExecBackendNegotiatesBinary: after the JSON hello/welcome
// exchange, a stock coordinator/worker pair must carry the actual work
// frames on the binary codec, without disturbing result bytes.
func TestExecBackendNegotiatesBinary(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 777))

	pool := NewPool(2, 777)
	backend := newTestExecBackend(t, 1, "serve")
	pool.SetBackend(backend)
	remote := runWire(t, pool)

	if !bytes.Equal(mustJSON(t, local), mustJSON(t, remote)) {
		t.Error("binary-codec exec results diverge from local")
	}
	st := backend.BackendStats()[0]
	if st.WireBinaryBytes == 0 {
		t.Errorf("negotiation never reached the binary codec: %+v", st)
	}
	if st.WireJSONBytes == 0 {
		t.Errorf("handshake frames should still be JSON-counted: %+v", st)
	}
}

func mustJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestExecBackendPropagatesCellErrors checks an application-level cell
// failure crosses the wire as that cell's error, not a transport fault.
func TestExecBackendPropagatesCellErrors(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-failing"}})
	if err == nil || !strings.Contains(err.Error(), "detonated") {
		t.Fatalf("err = %v, want the detonating cell's error", err)
	}
}

// TestExecBackendKilledWorkerSurfacesRootCause is the no-hang gate: a
// worker that dies mid-batch must produce a diagnosable error promptly.
func TestExecBackendKilledWorkerSurfacesRootCause(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "die"))

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("a killed worker produced no error")
		}
		msg := o.err.Error()
		if !strings.Contains(msg, "exec worker 0") || !strings.Contains(msg, "going down for the kill test") || !strings.Contains(msg, "exit status 3") {
			t.Errorf("error lacks root cause (worker id + stderr): %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("killed worker hung the run instead of failing")
	}
}

// TestExecBackendBatchTimeoutKillsWedgedWorker: a worker that hangs
// (rather than exits) used to stall the run forever. The heartbeat
// deadline, which took over the old per-batch timeout, must declare it
// dead, kill it, surface the stderr post-mortem, and — with no other
// member and no listener — fail the run promptly.
func TestExecBackendBatchTimeoutKillsWedgedWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 9)
	backend := newTestExecBackend(t, 1, "wedge")
	backend.HeartbeatTimeout = 500 * time.Millisecond
	pool.SetBackend(backend)

	type outcome struct {
		err error
	}
	done := make(chan outcome, 1)
	go func() {
		_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
		done <- outcome{err}
	}()
	select {
	case o := <-done:
		if o.err == nil {
			t.Fatal("a wedged worker produced no error")
		}
		msg := o.err.Error()
		if !strings.Contains(msg, "exec worker 0") || !strings.Contains(msg, "heartbeat timeout") || !strings.Contains(msg, "wedged and will never answer") {
			t.Errorf("error lacks the worker, the timeout diagnosis, or the stderr post-mortem: %v", o.err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("wedged worker hung the run despite the heartbeat deadline")
	}
}

// newMixedFleet builds a mixed fleet — workers exec members in mode
// plus one in-process member — and waits until every member has
// joined, so each is idle when the first run starts. Its heartbeat
// timeout bounds a hung member; the straggler floor keeps speculation
// out of the way, so the liveness path is what recovers a chunk.
func newMixedFleet(t *testing.T, workers int, mode string) *RemoteBackend {
	t.Helper()
	b := newTestExecBackend(t, workers, mode)
	b.HeartbeatTimeout = 500 * time.Millisecond
	b.MinStragglerAge = time.Minute
	b.JoinInProcess(WorkerOptions{Workers: 1})
	b.mu.Lock()
	err := b.spawnLocked()
	b.mu.Unlock()
	if err != nil {
		t.Fatal(err)
	}
	waitJoins(t, b, uint64(workers)+1)
	return b
}

// TestExecBatchTimeoutRequeuesOntoMulti: when a wedged exec member sits
// in a mixed fleet, its chunk must requeue onto the in-process member
// once the heartbeat deadline (which replaced the per-batch timeout)
// declares it dead, leaving results byte-identical to a pure local run.
func TestExecBatchTimeoutRequeuesOntoMulti(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 642))

	fleet := newMixedFleet(t, 1, "wedge")
	pool := NewPool(2, 642)
	pool.SetBackend(fleet)
	mixed := runWire(t, pool)

	a, err := json.Marshal(local)
	if err != nil {
		t.Fatal(err)
	}
	b, err := json.Marshal(mixed)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Errorf("timeout-requeued run diverges from local:\nlocal: %s\nmixed: %s", a, b)
	}
	retried := false
	for _, st := range fleet.BackendStats() {
		if st.Retries > 0 {
			retried = true
		}
	}
	if !retried {
		t.Error("no retries recorded; the wedged member's chunk was never requeued")
	}
}

// TestMixedRequeueCellAccounting: when an exec member dies after
// already delivering results, requeue onto the in-process member must
// leave both the results and the cell accounting identical to a pure
// local run — a cell may be counted and streamed only once.
func TestMixedRequeueCellAccounting(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	run := func(pool *Pool) []Report {
		t.Helper()
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-slow"}})
		if err != nil {
			t.Fatal(err)
		}
		return reports
	}
	local := run(NewPool(2, 321))

	// Two members of equal speed split eight chunks, so the flaky one
	// serves two and dies holding a third.
	fleet := newMixedFleet(t, 1, "flaky")
	pool := NewPool(2, 321)
	pool.SetBackend(fleet)
	mixed := run(pool)

	if !bytes.Equal(mustJSON(t, local), mustJSON(t, mixed)) {
		t.Error("requeued mixed run diverges from local")
	}
	if mixed[0].Cells != local[0].Cells {
		t.Errorf("requeue double-counted cells: local %d, mixed %d", local[0].Cells, mixed[0].Cells)
	}
	if st := fleet.BackendStats()[0]; st.Backend != "mixed" || st.Retries == 0 {
		t.Errorf("the flaky member's chunk was never requeued: %+v", st)
	}
}

// TestExecFleetLastMemberLostFailsRun: with no listener, a fleet whose
// every member died cannot finish, so the run must fail at once with a
// member's post-mortem instead of waiting out the join grace.
func TestExecFleetLastMemberLostFailsRun(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(2, 5)
	pool.SetBackend(newTestExecBackend(t, 2, "die"))
	start := time.Now()
	_, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-wire"}})
	if err == nil || !strings.Contains(err.Error(), "going down for the kill test") {
		t.Fatalf("err = %v, want a dead member's post-mortem", err)
	}
	if d := time.Since(start); d > 30*time.Second {
		t.Errorf("all-members-dead failure took %v", d)
	}
}

// TestExecFleetRespawnsDeadMember: a member that died between runs is
// replaced at the start of the next Run.
func TestExecFleetRespawnsDeadMember(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	local := runWire(t, NewPool(2, 31))
	fleet := newTestExecBackend(t, 1, "serve")
	pool := NewPool(2, 31)
	pool.SetBackend(fleet)
	runWire(t, pool)

	fleet.mu.Lock()
	m := fleet.members[0]
	fleet.mu.Unlock()
	m.stop()
	<-m.exited
	again := runWire(t, pool)
	if !bytes.Equal(mustJSON(t, local), mustJSON(t, again)) {
		t.Error("run on the respawned member diverges from local")
	}
	if st := fleet.BackendStats()[0]; st.Joins != 2 || len(st.Workers) != 2 {
		t.Errorf("dead member was not replaced: %+v", st)
	}
}

// TestExecBackendRejectsAnonymousCells: Map calls outside RunAll carry
// no scenario context, so a fleet must refuse them loudly.
func TestExecBackendRejectsAnonymousCells(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	pool := NewPool(1, 9)
	pool.SetBackend(newTestExecBackend(t, 1, "serve"))
	_, err := Map(context.Background(), pool, "anon", 2,
		func(ctx context.Context, shard int, seed uint64) (int, error) { return shard, nil })
	if err == nil || !strings.Contains(err.Error(), "not addressable") {
		t.Fatalf("err = %v, want the not-addressable refusal", err)
	}
}

// TestServeWorkerProtocolRoundTrip drives the worker loop in-process
// over a pipe: hello out, welcome in, one work frame in, one result
// frame out, clean shutdown when the coordinator closes its end.
func TestServeWorkerProtocolRoundTrip(t *testing.T) {
	coord, worker := net.Pipe()
	serveDone := make(chan error, 1)
	go func() { serveDone <- ServeWorker(context.Background(), worker, worker, WorkerOptions{Workers: 1}) }()

	var hello remoteHello
	if _, err := readJSONFrame(coord, &hello); err != nil {
		t.Fatal(err)
	}
	if hello.Proto != remoteProtoVersion || hello.Name == "" {
		t.Fatalf("hello = %+v", hello)
	}
	if _, err := writeJSONFrame(coord, remoteWelcome{Proto: remoteProtoVersion, HeartbeatMS: 60_000}); err != nil {
		t.Fatal(err)
	}

	params := Params{Trials: 4}
	specs := make([]CellSpec, params.Trials)
	for i := range specs {
		specs[i] = CellSpec{
			Scenario: "_exec-wire", Params: params, Scope: "_exec-wire",
			Shard: i, Seed: ShardSeed(42, "_exec-wire", i), RootSeed: 42,
		}
	}
	if err := writeRawFrame(coord, encodeWireMsg(&wireMsg{kind: wireKindWork, seq: 7, cells: specs})); err != nil {
		t.Fatal(err)
	}
	payload, err := readRawFrame(coord)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := decodeWireMsg(payload)
	if err != nil {
		t.Fatal(err)
	}
	if resp.kind != wireKindResults || resp.seq != 7 || resp.err != "" {
		t.Fatalf("reply kind=%d seq=%d err=%q", resp.kind, resp.seq, resp.err)
	}
	if len(resp.results) != params.Trials {
		t.Fatalf("got %d results, want %d", len(resp.results), params.Trials)
	}
	for i, r := range resp.results {
		var cell wireCell
		if err := decodeInto(&resp.results[i], &cell); err != nil {
			t.Fatal(err)
		}
		if cell.Shard != r.Shard || cell.Seed != ShardSeed(42, "_exec-wire", r.Shard) {
			t.Errorf("result %d inconsistent: %+v", i, cell)
		}
	}

	coord.Close()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("ServeWorker returned %v on a clean close", err)
		}
	case <-time.After(5 * time.Second):
		t.Error("ServeWorker did not stop when the coordinator closed")
	}
}

// TestExecWorkerSharesTraceDir is the worker-side gate for the
// persistent trace tier: subprocess workers pointed at a shared
// -trace-dir spill the traces they generate (visible as STBT files),
// a second worker fleet serves from those spills, and results stay
// byte-identical to the in-process run either way.
func TestExecWorkerSharesTraceDir(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns subprocess workers")
	}
	dir := t.TempDir()

	runTrace := func(t *testing.T, pool *Pool) []byte {
		t.Helper()
		reports, err := RunAll(context.Background(), pool, Options{Filters: []string{"_exec-trace"}})
		if err != nil {
			t.Fatal(err)
		}
		b, err := json.Marshal(reports)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	local := runTrace(t, NewPool(2, 77))

	newBackend := func() *RemoteBackend {
		b := newTestExecBackend(t, 1, "serve")
		b.SpawnEnv = append(b.SpawnEnv, workerTraceDirEnvVar+"="+dir)
		return b
	}
	pool := NewPool(2, 77)
	pool.SetBackend(newBackend())
	first := runTrace(t, pool)
	if !bytes.Equal(local, first) {
		t.Error("trace-dir worker results diverge from local")
	}
	spills, err := filepath.Glob(filepath.Join(dir, "*.stbt"))
	if err != nil || len(spills) == 0 {
		t.Fatalf("worker spilled no traces into %s (err %v)", dir, err)
	}

	// A fresh worker fleet decodes the spill instead of regenerating;
	// replay must not notice the difference.
	pool2 := NewPool(2, 77)
	pool2.SetBackend(newBackend())
	second := runTrace(t, pool2)
	if !bytes.Equal(local, second) {
		t.Error("spill-served worker results diverge from local")
	}
}
