package harness

// Worker side of the fleet protocol. A worker executes a spec by
// looking the scenario up in its own registry and re-running the
// scenario's decomposition with a capture backend that runs only the
// requested shards — cells are pure functions of (scenario, params,
// scope, shard, root seed), so the worker's results are bit-identical
// to what the coordinator would have computed.
//
// One loop, ServeWorker, serves every kind of fleet member: a spawned
// subprocess on its stdin/stdout (`stbpu-suite -worker`), a network
// worker on a dialed TCP connection (ServeRemoteWorker, `stbpu-suite
// -worker -connect`), and the in-process member of a mixed fleet on an
// in-memory pipe. Each worker process fills its own trace and
// checkpoint stores, which persist across chunks; the welcome frame can
// point them at shared disk tiers.

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"time"

	"stbpu/internal/snapstore"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

// WorkerOptions configures ServeWorker.
type WorkerOptions struct {
	// Workers is the in-process concurrency used to execute a batch's
	// cells (<= 0 means GOMAXPROCS).
	Workers int
	// CacheBytes bounds the worker's process-local trace store
	// (<= 0 means tracestore.DefaultMaxBytes).
	CacheBytes int64
	// TraceDir, when nonempty, points the worker's trace store at the
	// shared persistent tier (tracestore.SetDir): workers decode traces
	// another process already generated instead of regenerating them.
	TraceDir string
	// TraceMajor toggles trace-major grouping in the worker's capture
	// runs (nil means the default, on). Pure scheduling: results are
	// bit-identical either way.
	TraceMajor *bool
	// TraceMmap switches the worker's disk tier into zero-copy mmap
	// mode (tracestore.Store.SetMapped). Only meaningful with TraceDir.
	TraceMmap bool
	// Snapshots toggles the warm-state snapshot tier in the worker's
	// capture runs (nil means the default, on). Pure acceleration:
	// results are bit-identical either way.
	Snapshots *bool
	// SnapBytes bounds the worker's process-local checkpoint store
	// (<= 0 means snapstore.DefaultMaxBytes).
	SnapBytes int64
	// SnapDir, when nonempty, points the worker's checkpoint store at
	// the shared persistent tier (snapstore.SetDir): workers restore
	// warm predictor state another process already computed instead of
	// replaying warmup prefixes.
	SnapDir string
	// WorkloadSpecs holds raw JSON workload-spec documents
	// (internal/trace/spec) to register before serving cells, so the
	// worker resolves the same spec workload names the coordinator
	// schedules. Content-hashed names make registration idempotent.
	WorkloadSpecs []string
}

// cellEnv bundles the per-process execution environment capture runs
// inherit: the stores cells share and the scheduling/acceleration
// toggles, none of which may change results.
type cellEnv struct {
	workers    int
	store      *tracestore.Store
	snaps      *snapstore.Store
	traceMajor bool
	snapshots  bool
}

// newCellEnv registers opts' workload specs and builds the environment
// a serving worker runs every chunk in: process-local trace and
// checkpoint stores, wired to the persistent disk tiers when configured,
// and the tri-state toggles resolved (nil means on).
func newCellEnv(opts WorkerOptions) (cellEnv, error) {
	for _, doc := range opts.WorkloadSpecs {
		s, err := spec.Parse([]byte(doc))
		if err != nil {
			return cellEnv{}, fmt.Errorf("worker: workload spec: %w", err)
		}
		if err := spec.Register(s); err != nil {
			return cellEnv{}, fmt.Errorf("worker: workload spec %q: %w", s.Name, err)
		}
	}
	store := tracestore.New(opts.CacheBytes, nil)
	store.SetMapped(opts.TraceMmap)
	if opts.TraceDir != "" {
		if err := store.SetDir(opts.TraceDir); err != nil {
			return cellEnv{}, fmt.Errorf("worker: trace dir %s: %w", opts.TraceDir, err)
		}
	}
	snaps := snapstore.New(opts.SnapBytes)
	if opts.SnapDir != "" {
		if err := snaps.SetDir(opts.SnapDir); err != nil {
			return cellEnv{}, fmt.Errorf("worker: snap dir %s: %w", opts.SnapDir, err)
		}
	}
	return cellEnv{
		workers:    opts.Workers,
		store:      store,
		snaps:      snaps,
		traceMajor: opts.TraceMajor == nil || *opts.TraceMajor,
		snapshots:  opts.Snapshots == nil || *opts.Snapshots,
	}, nil
}

// prefetch starts background warmup of the stores for upcoming
// locality keys: trace columns materialize via the tracestore's
// singleflight entry (so a later GetColumns joins rather than
// duplicates the work) and matching snapshot spills are pulled into
// the page cache. Advisory and asynchronous — results never depend on
// it.
func (env cellEnv) prefetch(keys []string) {
	for _, k := range keys {
		name, records, ok := SplitLocality(k)
		if !ok {
			continue
		}
		if env.store != nil {
			env.store.Prefetch(name, records)
		}
		if env.snaps != nil {
			env.snaps.Prefetch(name)
		}
	}
}

// ServeWorker runs the worker side of the fleet protocol over one
// connection (r and w are its two directions): send the hello, adopt
// the welcome's settings, then execute work frames and answer result
// frames until the coordinator closes the connection — the clean
// shutdown signal — or ctx is canceled. Heartbeats flow on a separate
// goroutine at the cadence the coordinator asked for, so a worker deep
// in a long chunk still proves liveness. Welcome settings fill only
// what opts leaves unset: a worker's own -trace-dir or -trace-major
// wins over the coordinator's.
func ServeWorker(ctx context.Context, r io.Reader, w io.Writer, opts WorkerOptions) error {
	br := bufio.NewReader(r)
	host, _ := os.Hostname()
	if host == "" {
		host = "worker"
	}
	setDeadline(r, time.Now().Add(remoteHandshakeTimeout))
	setDeadline(w, time.Now().Add(remoteHandshakeTimeout))
	if _, err := writeJSONFrame(w, remoteHello{Proto: remoteProtoVersion, Name: fmt.Sprintf("%s/%d", host, os.Getpid())}); err != nil {
		return fmt.Errorf("worker: hello: %w", err)
	}
	var welcome remoteWelcome
	if _, err := readJSONFrame(br, &welcome); err != nil {
		return fmt.Errorf("worker: welcome: %w", err)
	}
	if welcome.Proto != remoteProtoVersion {
		return fmt.Errorf("worker: coordinator speaks protocol %d, want %d", welcome.Proto, remoteProtoVersion)
	}
	setDeadline(r, time.Time{})
	setDeadline(w, time.Time{})
	if opts.TraceDir == "" {
		opts.TraceDir = welcome.TraceDir
	}
	if opts.TraceMajor == nil {
		opts.TraceMajor = welcome.TraceMajor
	}
	if !opts.TraceMmap && welcome.TraceMmap != nil {
		opts.TraceMmap = *welcome.TraceMmap
	}
	if opts.Snapshots == nil {
		opts.Snapshots = welcome.Snapshots
	}
	if opts.SnapDir == "" {
		opts.SnapDir = welcome.SnapDir
	}
	// Coordinator-forwarded specs compose with any the worker loaded
	// locally; content-hashed names make double registration harmless.
	opts.WorkloadSpecs = append(opts.WorkloadSpecs, welcome.WorkloadSpecs...)
	env, err := newCellEnv(opts)
	if err != nil {
		return err
	}

	var wmu sync.Mutex
	send := func(m *wireMsg) error {
		payload := encodeWireMsg(m)
		wmu.Lock()
		defer wmu.Unlock()
		setWriteDeadline(w, time.Now().Add(remoteHandshakeTimeout))
		return writeRawFrame(w, payload)
	}
	stop := make(chan struct{})
	defer close(stop)
	heartbeat := time.Duration(welcome.HeartbeatMS) * time.Millisecond
	if heartbeat <= 0 {
		heartbeat = time.Second
	}
	go func() {
		t := time.NewTicker(heartbeat)
		defer t.Stop()
		for {
			select {
			case <-stop:
				return
			case <-t.C:
				if send(&wireMsg{kind: wireKindHeartbeat}) != nil {
					return
				}
			}
		}
	}()

	for {
		payload, err := readRawFrame(br)
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			if errors.Is(err, io.EOF) || errors.Is(err, net.ErrClosed) || errors.Is(err, io.ErrClosedPipe) {
				return nil // coordinator closed the connection: clean shutdown
			}
			return fmt.Errorf("worker: read chunk: %w", err)
		}
		work, err := decodeWireMsg(payload)
		if err != nil {
			return fmt.Errorf("worker: read chunk: %w", err)
		}
		if work.kind != wireKindWork {
			return fmt.Errorf("worker: unexpected frame kind %d (want work)", work.kind)
		}
		if len(work.prefetch) > 0 {
			env.prefetch(work.prefetch)
		}
		reply := &wireMsg{kind: wireKindResults, seq: work.seq}
		if reply.results, err = executeCells(ctx, work.cells, env); err != nil {
			reply.err = err.Error()
			reply.permanent = errors.Is(err, ErrPermanent)
		}
		if err := send(reply); err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			return fmt.Errorf("worker: send results: %w", err)
		}
	}
}

// ServeRemoteWorker dials a coordinator's listener and runs ServeWorker
// on the connection; canceling ctx closes it.
func ServeRemoteWorker(ctx context.Context, addr string, opts WorkerOptions) error {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return fmt.Errorf("worker: connect %s: %w", addr, err)
	}
	defer conn.Close()
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			conn.Close()
		case <-stop:
		}
	}()
	return ServeWorker(ctx, conn, conn, opts)
}

// setDeadline and setWriteDeadline apply a deadline when the connection
// supports one (sockets, pipes); stdio on some platforms does not, and
// is left without.
func setDeadline(c any, t time.Time) {
	if d, ok := c.(interface{ SetDeadline(time.Time) error }); ok {
		_ = d.SetDeadline(t)
	}
}

func setWriteDeadline(c any, t time.Time) {
	if d, ok := c.(interface{ SetWriteDeadline(time.Time) error }); ok {
		_ = d.SetWriteDeadline(t)
	}
}

// errCellsCaptured aborts a scenario Run once the capture backend has
// executed every requested shard; the decomposition after the Map call
// never runs on the worker (aggregation happens on the coordinator).
var errCellsCaptured = errors.New("harness: requested cells captured")

// executeCells executes wire specs in this process: specs group by
// (scenario, scope, params, root seed), and each group re-runs its
// scenario's decomposition with a capture backend that executes only the
// requested shards on an env.workers-wide local pool. Results come back
// in wire form, ready to frame.
func executeCells(ctx context.Context, specs []CellSpec, env cellEnv) ([]CellResult, error) {
	type groupKey struct {
		scenario, scope, params string
		root                    uint64
	}
	keyOf := func(s CellSpec) (groupKey, error) {
		pj, err := CanonicalParams(s.Params)
		if err != nil {
			// Unencodable params are a property of the spec, not of this
			// worker: every backend would fail the batch identically.
			return groupKey{}, Permanent(err)
		}
		return groupKey{scenario: s.Scenario, scope: s.Scope, params: pj, root: s.RootSeed}, nil
	}
	groups := map[groupKey][]CellSpec{}
	var order []groupKey
	for _, s := range specs {
		if s.Scenario == "" {
			// Every worker would refuse it the same way.
			return nil, Permanent(fmt.Errorf("spec %s/%d has no scenario: cells mapped outside RunAll are not addressable remotely", s.Scope, s.Shard))
		}
		k, err := keyOf(s)
		if err != nil {
			return nil, err
		}
		if _, seen := groups[k]; !seen {
			order = append(order, k)
		}
		groups[k] = append(groups[k], s)
	}

	var out []CellResult
	for _, k := range order {
		group := groups[k]
		scen, ok := Get(k.scenario)
		if !ok {
			return nil, fmt.Errorf("scenario %q is not registered in this worker", k.scenario)
		}
		results, err := captureScenarioCells(ctx, scen, group, env)
		if err != nil {
			return nil, err
		}
		out = append(out, results...)
	}
	return out, nil
}

// captureScenarioCells re-runs one scenario's decomposition and captures
// the requested shards of the requested scope.
func captureScenarioCells(ctx context.Context, scen Scenario, group []CellSpec, env cellEnv) ([]CellResult, error) {
	scope := group[0].Scope
	params := group[0].Params
	want := make(map[int]bool, len(group))
	for _, s := range group {
		want[s.Shard] = true
	}
	cap := &captureBackend{scope: scope, want: want, inner: NewLocalBackend(env.workers)}
	pool := NewPool(env.workers, group[0].RootSeed)
	pool.SetTraceMajor(env.traceMajor)
	pool.SetSnapshots(env.snapshots)
	if env.store != nil {
		pool.SetTraceStore(env.store)
	}
	if env.snaps != nil {
		pool.SetSnapStore(env.snaps)
	}
	pool.SetBackend(cap)
	// Let the scenario's own MapTraceMajor call group only the shards
	// this batch asked for (pure scheduling; see traceMajorWantKey).
	_, err := scen.Run(withTraceMajorWant(ctx, scope, want), params, pool)
	pool.endScenario()
	if !cap.captured {
		// Both shapes are deterministic scenario bugs — the decomposition
		// itself is broken for these params, on any backend — so they are
		// marked Permanent: requeueing the batch elsewhere would only
		// repeat the failure across the whole fleet.
		if err != nil {
			if ctxErr := ctx.Err(); ctxErr != nil {
				return nil, ctxErr
			}
			return nil, Permanent(fmt.Errorf("scenario %s failed before reaching scope %q: %w", scen.Name, scope, err))
		}
		return nil, Permanent(fmt.Errorf("scenario %s never mapped scope %q (params mismatch?)", scen.Name, scope))
	}
	if len(cap.results) != len(want) {
		// A canceled context also stops the batch early — report the
		// interrupt, not a bogus decomposition diagnosis.
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		// A failing cell legitimately stops the batch early; only a
		// clean-but-short batch means the worker's decomposition disagrees
		// with the coordinator's.
		failed := false
		for _, r := range cap.results {
			if r.Err != "" {
				failed = true
				break
			}
		}
		if !failed {
			return nil, Permanent(fmt.Errorf("scenario %s scope %q produced %d of %d requested cells (cell space mismatch)",
				scen.Name, scope, len(cap.results), len(want)))
		}
	}
	return cap.results, nil
}

// captureBackend intercepts the Map call for one scope: it executes only
// the wanted shards, stores their wire-encoded results, and aborts the
// scenario Run with errCellsCaptured. Map calls for other scopes (a
// multi-scope scenario) execute fully so later scopes stay reachable.
type captureBackend struct {
	scope string
	want  map[int]bool
	inner *LocalBackend

	captured bool
	results  []CellResult
}

func (c *captureBackend) Name() string { return "capture" }

func (c *captureBackend) Close() error { return nil }

func (c *captureBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	if len(specs) == 0 || specs[0].Scope != c.scope {
		return c.inner.Run(ctx, specs)
	}
	wanted := make([]CellSpec, 0, len(c.want))
	for _, s := range specs {
		if c.want[s.Shard] {
			wanted = append(wanted, s)
		}
	}
	results, err := c.inner.Run(ctx, wanted)
	if err != nil {
		return nil, err
	}
	for i := range results {
		results[i].encodeWire()
	}
	c.captured = true
	c.results = results
	return nil, errCellsCaptured
}
