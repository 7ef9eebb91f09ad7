package harness

// The worker fleet: RemoteBackend is the one scheduler behind every
// distributed backend. Its members are connections that speak the fleet
// protocol (a JSON hello/welcome handshake, then binary frames — see
// wire.go): TCP workers that dial the coordinator's listener
// (`stbpu-suite -worker -connect host:port`), subprocesses it spawns
// itself on stdio pipes (`-backend exec`), and an in-process worker on
// an in-memory pipe (the local share of `-backend mixed`). Members may
// join or leave at any point in a run:
//
//   - Batches split into chunks pulled by whichever workers are live;
//     a worker that joins mid-run starts pulling immediately. Chunks
//     never span locality keys, and dispatch is locality-aware: a
//     chunk prefers the worker whose trace/snapshot caches are already
//     warm for its key (the worker that last served it, else a
//     rendezvous-hash choice that stays stable as the fleet changes),
//     falling back to plain oldest-first work sharing whenever the
//     preferred worker is busy — an idle fleet never starves.
//   - Liveness is heartbeat-based: workers send a heartbeat frame on a
//     coordinator-chosen cadence, and a connection silent past the
//     heartbeat timeout is declared dead — a hung subprocess is killed.
//     Its in-flight chunk requeues (filtered to the cells no other copy
//     has delivered yet).
//   - Stragglers are handled by speculative re-execution: when the
//     queue is drained and a worker sits idle while another holds a
//     chunk past the straggler threshold, the idle worker re-runs the
//     chunk's missing cells. The first result to arrive for a cell
//     address wins; later duplicates are discarded. Cells are pure
//     functions of (scenario, params, scope, shard, rootSeed), so
//     duplicate execution is bit-identical and dedup by shard is safe.
//
// The determinism contract therefore survives any fleet shape: results
// merge by shard exactly as with every other backend, and the suite
// document is byte-identical to a local run modulo the stats blocks.
// See docs/ARCHITECTURE.md "The worker fleet".

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

const (
	// remoteProtoVersion gates the hello/welcome handshake. Version 2
	// dropped JSON work frames: every frame after the handshake is bin1.
	remoteProtoVersion = 2
	// remoteChunkTarget is how many chunks per live worker a batch
	// splits into; small chunks keep late joiners and steals effective.
	remoteChunkTarget = 4
	// remoteMaxChunkAttempts bounds how often one chunk may be
	// (re)dispatched before the run fails — a chunk that keeps killing
	// workers or erroring is reported, not retried forever.
	remoteMaxChunkAttempts = 10
	// remoteHandshakeTimeout bounds the hello/welcome exchange and every
	// individual frame write.
	remoteHandshakeTimeout = 10 * time.Second
)

// remoteHello is the worker's first frame after dialing.
type remoteHello struct {
	Proto int `json:"proto"`
	// Name labels the worker in fleet stats (conventionally host/pid).
	Name string `json:"name,omitempty"`
}

// remoteWelcome is the coordinator's handshake reply.
type remoteWelcome struct {
	Proto int `json:"proto"`
	// HeartbeatMS is the heartbeat cadence the coordinator expects.
	HeartbeatMS int64 `json:"heartbeat_ms"`
	// TraceDir, when nonempty, is the coordinator's persistent trace
	// tier; a worker without its own -trace-dir adopts it, so trace
	// generation is a one-time cost per machine sharing the directory.
	TraceDir string `json:"trace_dir,omitempty"`
	// TraceMajor and TraceMmap, when present, carry the coordinator's
	// scheduling and mmap-tier settings; a worker that got no explicit
	// local setting adopts them. Absent (nil — older coordinators) the
	// worker keeps its own defaults; either way results are identical,
	// only execution shape differs.
	TraceMajor *bool `json:"trace_major,omitempty"`
	TraceMmap  *bool `json:"trace_mmap,omitempty"`
	// Snapshots and SnapDir carry the coordinator's warm-state snapshot
	// tier settings, adopted the same way: the toggle when the worker
	// got no explicit local setting, the checkpoint directory when the
	// worker has none of its own. Results are bit-identical either way;
	// only the amount of warmup replay differs.
	Snapshots *bool  `json:"snapshots,omitempty"`
	SnapDir   string `json:"snap_dir,omitempty"`
	// WorkloadSpecs carries the coordinator's raw JSON workload-spec
	// documents; a joining worker registers them before serving cells,
	// so a bare `-worker` fleet resolves the same spec workload names
	// the coordinator schedules.
	WorkloadSpecs []string `json:"workload_specs,omitempty"`
}

// RemoteBackend executes cells on an elastic worker fleet. The zero
// value is a TCP coordinator: Run listens lazily on Addr (default
// 127.0.0.1:0) and waits up to JoinGrace for the first worker. With
// Spawn set (or an in-process member joined) the fleet brings its own
// members and listens only if Start is called. The exported fields must
// be set before the first Run or Start.
type RemoteBackend struct {
	// Addr is the TCP listen address, e.g. ":7701" (empty means
	// 127.0.0.1:0, useful for tests).
	Addr string
	// TraceDir is forwarded to joining workers that have no trace tier
	// of their own (see remoteWelcome.TraceDir).
	TraceDir string
	// TraceMajor and TraceMmap are forwarded to joining workers (see
	// remoteWelcome); nil leaves each worker's local setting in place.
	TraceMajor *bool
	TraceMmap  *bool
	// Snapshots and SnapDir are forwarded to joining workers (see
	// remoteWelcome.Snapshots); nil/empty leave worker settings alone.
	Snapshots *bool
	SnapDir   string
	// WorkloadSpecs holds raw JSON workload-spec documents forwarded to
	// every joining worker via the welcome frame (see
	// remoteWelcome.WorkloadSpecs).
	WorkloadSpecs []string
	// HeartbeatTimeout declares a worker dead after this much silence
	// (<= 0 means 5s). Workers heartbeat at a quarter of it.
	HeartbeatTimeout time.Duration
	// MinStragglerAge is the floor below which an in-flight chunk is
	// never considered a straggler (<= 0 means 500ms).
	MinStragglerAge time.Duration
	// StragglerFactor scales the median completed-chunk duration into
	// the straggler threshold: a chunk in flight longer than
	// max(MinStragglerAge, StragglerFactor × median) may be
	// speculatively re-executed by an idle worker (<= 0 means 3).
	StragglerFactor float64
	// JoinGrace is how long a Run tolerates an empty fleet — at start or
	// after every worker died — before failing (<= 0 means 60s).
	JoinGrace time.Duration
	// Affinity toggles locality-aware dispatch (nil means on). With it
	// off, dispatch is plain oldest-first work sharing and no prefetch
	// hints are sent; results are identical either way.
	Affinity *bool
	// Spawn is how many subprocess members the fleet keeps, each serving
	// the protocol on its stdin/stdout (`-backend exec`). They start on
	// the first Run; a member that died is respawned at the start of the
	// next Run. Without a listener, a Run whose last member dies fails
	// at once with that member's exit state and stderr tail.
	Spawn int
	// SpawnCommand is the member argv, e.g. `stbpu-suite -worker` with
	// the per-machine resource bounds.
	SpawnCommand []string
	// SpawnEnv entries are appended to the inherited environment.
	SpawnEnv []string

	// inProcess, set by JoinInProcess, configures the in-process member.
	inProcess *WorkerOptions

	mu       sync.Mutex
	ln       net.Listener
	closed   bool
	nextSeq  uint64
	nextID   int
	fleet    map[*remoteWorker]struct{}
	roster   []*remoteWorker // every worker that ever joined, join order
	inflight map[uint64]*remoteChunk
	runs     map[*remoteRun]struct{}
	// lastServed maps a locality key to the worker that most recently
	// received a chunk carrying it — the warmest home for the next one.
	lastServed map[string]*remoteWorker
	wire       wireStats
	// members holds the member started in each slot: Spawn subprocesses,
	// then the in-process member if there is one.
	members []*member
	// starting counts started members still in their handshake; with
	// no listener, only they (or live workers) can still serve a run.
	starting int
	// lastWorkerAt is when the fleet last had a live member; JoinGrace
	// measures from here (or from the run start, whichever is later).
	lastWorkerAt time.Time
	cellsTotal   uint64
	retries      uint64
	joins        uint64
	leaves       uint64

	sinkSlot
	wallNS atomic.Int64
}

// remoteWorker is one connected fleet member. Mutable state is guarded
// by the backend mutex except the write path (wmu serializes frame
// writes to the connection).
type remoteWorker struct {
	id     int
	name   string
	conn   net.Conn
	member *member // nil for a worker that dialed in
	wmu    sync.Mutex

	dead        bool
	busy        *remoteChunk
	cells       uint64
	steals      uint64
	speculative uint64
	// served records every locality key this worker has received, so
	// steals can prefer stragglers whose artifacts it already holds.
	served         map[string]struct{}
	affinityHits   uint64
	affinityMisses uint64
}

// remoteChunk is one dispatchable slice of a run's batch. A chunk is
// either pending (queued), or in flight on exactly one worker; a
// speculative clone is a separate chunk covering the original's
// not-yet-accepted shards.
type remoteChunk struct {
	run   *remoteRun
	specs []CellSpec
	// locality is the warm-artifact key shared by every spec in the
	// chunk (chunking never mixes keys; "" when cells carry none).
	locality string
	// seq is the wire id of the current dispatch (0 when pending).
	seq      uint64
	worker   *remoteWorker
	sentAt   time.Time
	attempts int
	// speculative marks a straggler re-execution clone.
	speculative bool
	// clones counts this chunk's in-flight speculative copies, so a
	// straggler is not duplicated more than once at a time.
	clones int
	// source is the chunk a speculative clone duplicates.
	source *remoteChunk
}

// remoteRun is one Run call's scheduling state, guarded by the backend
// mutex.
type remoteRun struct {
	started   time.Time
	specOf    map[int]CellSpec
	got       map[int]CellResult
	remaining int
	pending   []*remoteChunk
	inflight  map[*remoteChunk]struct{}
	// durations collects completed-chunk wall times for the straggler
	// median.
	durations []time.Duration
	// failShard is the lowest shard whose cell failed (not merely
	// canceled), or math.MaxInt. Map reports the lowest failing shard,
	// so once a cell fails the run waits only for the shards below it.
	failShard int
	err       error
	done      chan struct{}
}

func (r *remoteRun) finished() bool { return r.err != nil || r.remaining == 0 }

// needs reports whether the run still waits for shard: it has no result
// yet and lies below every failed shard.
func (r *remoteRun) needs(shard int) bool {
	_, got := r.got[shard]
	return !got && shard < r.failShard
}

// failAt records a failed cell at shard. Shards above the lowest
// failure cannot change the error Map reports, so the run stops waiting
// for them and drops them from its queue.
func (r *remoteRun) failAt(shard int) {
	if shard >= r.failShard {
		return
	}
	r.failShard = shard
	r.remaining = 0
	for s := range r.specOf {
		if r.needs(s) {
			r.remaining++
		}
	}
	kept := r.pending[:0]
	for _, c := range r.pending {
		if c.specs = missingSpecs(r, c.specs); len(c.specs) > 0 {
			kept = append(kept, c)
		}
	}
	r.pending = kept
}

// Name implements Backend: "exec" for a fleet of spawned subprocesses,
// "mixed" when an in-process member serves beside them, else "remote".
func (b *RemoteBackend) Name() string {
	switch {
	case b.Spawn > 0 && b.inProcess != nil:
		return "mixed"
	case b.Spawn > 0:
		return "exec"
	}
	return "remote"
}

func (b *RemoteBackend) heartbeatTimeout() time.Duration {
	if b.HeartbeatTimeout > 0 {
		return b.HeartbeatTimeout
	}
	return 5 * time.Second
}

func (b *RemoteBackend) minStragglerAge() time.Duration {
	if b.MinStragglerAge > 0 {
		return b.MinStragglerAge
	}
	return 500 * time.Millisecond
}

func (b *RemoteBackend) stragglerFactor() float64 {
	if b.StragglerFactor > 0 {
		return b.StragglerFactor
	}
	return 3
}

func (b *RemoteBackend) joinGrace() time.Duration {
	if b.JoinGrace > 0 {
		return b.JoinGrace
	}
	return 60 * time.Second
}

// Start begins listening and accepting workers, returning the bound
// address (which resolves an ephemeral port). Run calls it lazily for a
// fleet with no members of its own; call it explicitly to learn the
// address before launching workers.
func (b *RemoteBackend) Start() (net.Addr, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.closed {
		return nil, errors.New("remote backend is closed")
	}
	if b.ln != nil {
		return b.ln.Addr(), nil
	}
	addr := b.Addr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("remote backend: listen %s: %w", addr, err)
	}
	b.ln = ln
	b.initLocked()
	go b.acceptLoop(ln)
	return ln.Addr(), nil
}

func (b *RemoteBackend) initLocked() {
	if b.fleet == nil {
		b.fleet = map[*remoteWorker]struct{}{}
		b.inflight = map[uint64]*remoteChunk{}
		b.runs = map[*remoteRun]struct{}{}
		b.lastServed = map[string]*remoteWorker{}
	}
}

func (b *RemoteBackend) acceptLoop(ln net.Listener) {
	for {
		conn, err := ln.Accept()
		if err != nil {
			return // listener closed
		}
		go b.admit(conn, nil)
	}
}

// JoinInProcess gives the fleet a member that serves cells from
// goroutines of this process over an in-memory pipe — the local share
// of a mixed fleet. It speaks the same protocol as every other member,
// adopts the same welcome settings, and starts and restarts with the
// subprocess members; opts bounds its concurrency and stores. Call it
// before the first Run.
func (b *RemoteBackend) JoinInProcess(opts WorkerOptions) {
	b.inProcess = &opts
}

// memberSlots is how many members the fleet starts itself.
func (b *RemoteBackend) memberSlots() int {
	if b.inProcess != nil {
		return b.Spawn + 1
	}
	return b.Spawn
}

// spawnLocked starts the members a Run needs: every member slot that is
// empty or whose member the fleet lost. Requires b.mu.
func (b *RemoteBackend) spawnLocked() error {
	b.initLocked()
	for len(b.members) < b.memberSlots() {
		b.members = append(b.members, nil)
	}
	for slot, m := range b.members {
		if m != nil && !m.gone() {
			continue
		}
		if slot == b.Spawn {
			m = startInProcessMember(*b.inProcess)
		} else {
			var err error
			if m, err = spawnMember(slot, b.SpawnCommand, b.SpawnEnv); err != nil {
				return fmt.Errorf("spawn exec worker %d: %w", slot, err)
			}
		}
		b.members[slot] = m
		b.starting++
		go b.admit(m.conn, m)
	}
	return nil
}

// admit runs the handshake (always JSON-framed) and, on success, adds
// the worker to the fleet and starts its read loop. m is the member
// behind conn when the backend started it itself, nil for a TCP accept.
func (b *RemoteBackend) admit(conn net.Conn, m *member) {
	hello, err := b.handshake(conn)
	if err != nil {
		conn.Close()
		if m != nil {
			err = m.postmortem(fmt.Errorf("handshake: %w", err))
			b.mu.Lock()
			b.starting--
			m.lost = true
			b.memberLostLocked(err)
			b.mu.Unlock()
		}
		return
	}
	if tc, ok := conn.(*net.TCPConn); ok {
		_ = tc.SetKeepAlive(true)
	}

	b.mu.Lock()
	if m != nil {
		b.starting--
	}
	if b.closed {
		b.mu.Unlock()
		conn.Close()
		return
	}
	name := hello.Name
	if name == "" {
		name = "worker"
	}
	w := &remoteWorker{id: b.nextID, name: fmt.Sprintf("%s#%d", name, b.nextID), conn: conn, member: m, served: map[string]struct{}{}}
	b.nextID++
	b.joins++
	b.fleet[w] = struct{}{}
	b.roster = append(b.roster, w)
	b.lastWorkerAt = time.Now()
	b.dispatchLocked()
	b.mu.Unlock()

	go b.serveWorker(w)
}

// handshake reads the hello and answers the welcome, both JSON frames
// under the handshake deadline.
func (b *RemoteBackend) handshake(conn net.Conn) (remoteHello, error) {
	_ = conn.SetDeadline(time.Now().Add(remoteHandshakeTimeout))
	var hello remoteHello
	n, err := readJSONFrame(conn, &hello)
	if err != nil {
		return hello, err
	}
	b.wire.jsonBytes.Add(uint64(n))
	if hello.Proto != remoteProtoVersion {
		return hello, fmt.Errorf("worker speaks protocol %d, want %d", hello.Proto, remoteProtoVersion)
	}
	welcome := remoteWelcome{
		Proto:         remoteProtoVersion,
		HeartbeatMS:   heartbeatInterval(b.heartbeatTimeout()).Milliseconds(),
		TraceDir:      b.TraceDir,
		TraceMajor:    b.TraceMajor,
		TraceMmap:     b.TraceMmap,
		Snapshots:     b.Snapshots,
		SnapDir:       b.SnapDir,
		WorkloadSpecs: b.WorkloadSpecs,
	}
	if n, err = writeJSONFrame(conn, welcome); err != nil {
		return hello, err
	}
	b.wire.jsonBytes.Add(uint64(n))
	return hello, conn.SetDeadline(time.Time{})
}

// heartbeatInterval derives the worker heartbeat cadence from the
// coordinator's patience: a quarter of the timeout, clamped to
// [25ms, 1s], so several beats fit into every timeout window.
func heartbeatInterval(timeout time.Duration) time.Duration {
	iv := timeout / 4
	if iv < 25*time.Millisecond {
		iv = 25 * time.Millisecond
	}
	if iv > time.Second {
		iv = time.Second
	}
	return iv
}

// serveWorker is the coordinator-side read loop for one worker. Every
// frame refreshes the read deadline, so heartbeat-based liveness needs
// no extra timer: a connection silent past the heartbeat timeout fails
// the read, which fails the worker, which requeues its chunk.
func (b *RemoteBackend) serveWorker(w *remoteWorker) {
	for {
		_ = w.conn.SetReadDeadline(time.Now().Add(b.heartbeatTimeout()))
		payload, err := readRawFrame(w.conn)
		if err != nil {
			if errors.Is(err, os.ErrDeadlineExceeded) {
				err = fmt.Errorf("no frame within the %v heartbeat timeout", b.heartbeatTimeout())
			}
			b.failWorker(w, err)
			return
		}
		b.wire.binaryBytes.Add(uint64(len(payload)))
		m, err := decodeWireMsg(payload)
		if err != nil {
			b.failWorker(w, err)
			return
		}
		switch m.kind {
		case wireKindHeartbeat:
			// The read deadline reset above is the entire point.
		case wireKindResults:
			b.handleResults(w, m)
		default:
			b.failWorker(w, fmt.Errorf("frame kind %d from worker", m.kind))
			return
		}
	}
}

// failWorker removes a worker from the fleet and requeues its in-flight
// chunk. A member the backend started gets a post-mortem (a hung
// process is killed), and if nothing can replace it the active runs
// fail with that diagnosis.
func (b *RemoteBackend) failWorker(w *remoteWorker, cause error) {
	b.mu.Lock()
	if w.dead {
		b.mu.Unlock()
		return
	}
	w.dead = true
	closed := b.closed
	b.mu.Unlock()
	w.conn.Close()
	if w.member != nil && !closed {
		// Outside the lock: reaping a killed process can take a moment.
		cause = w.member.postmortem(cause)
	}

	b.mu.Lock()
	defer b.mu.Unlock()
	delete(b.fleet, w)
	b.leaves++
	if chunk := w.busy; chunk != nil {
		b.detachLocked(chunk)
		if !chunk.run.finished() {
			b.queueLocked(chunk, fmt.Errorf("worker %s lost: %w", w.name, cause))
		}
	}
	if w.member != nil {
		w.member.lost = true
		b.memberLostLocked(cause)
	}
	b.dispatchLocked()
}

// memberLostLocked fails every active run with the lost member's
// diagnosis when nothing can take its place: no listener for new
// workers, no live worker, no member still starting. Requires b.mu.
func (b *RemoteBackend) memberLostLocked(cause error) {
	if b.ln != nil || len(b.fleet) > 0 || b.starting > 0 {
		return
	}
	for run := range b.runs {
		b.failRunLocked(run, cause)
	}
}

// detachLocked takes an in-flight chunk off its worker. Requires b.mu.
func (b *RemoteBackend) detachLocked(chunk *remoteChunk) {
	delete(b.inflight, chunk.seq)
	delete(chunk.run.inflight, chunk)
	chunk.worker.busy = nil
	chunk.seq, chunk.worker = 0, nil
	if chunk.source != nil {
		chunk.source.clones--
	}
}

// queueLocked puts a detached chunk back on its run's queue, trimmed to
// the shards no other copy has delivered; a chunk out of dispatch
// attempts fails the run instead. Requires b.mu.
func (b *RemoteBackend) queueLocked(chunk *remoteChunk, cause error) {
	run := chunk.run
	missing := missingSpecs(run, chunk.specs)
	if len(missing) == 0 {
		// Another copy delivered everything; nothing left to redo. The
		// run may have been waiting on exactly this bookkeeping.
		b.maybeFinishLocked(run)
		return
	}
	if chunk.attempts >= remoteMaxChunkAttempts {
		b.failRunLocked(run, fmt.Errorf("chunk of %d cells failed %d dispatch attempts, last: %w",
			len(missing), chunk.attempts, cause))
		return
	}
	chunk.specs = missing
	b.retries += uint64(len(missing))
	run.pending = append(run.pending, chunk)
}

// missingSpecs filters specs to the shards the run still needs.
func missingSpecs(run *remoteRun, specs []CellSpec) []CellSpec {
	out := make([]CellSpec, 0, len(specs))
	for _, s := range specs {
		if run.needs(s.Shard) {
			out = append(out, s)
		}
	}
	return out
}

// handleResults merges one results frame: first result per shard wins,
// duplicates count as speculative waste, batch errors either fail the
// run (permanent) or requeue the chunk (transient). Every result of a
// frame is merged before a failure among them narrows what the run
// waits for: a worker's frame holds its chunk's root-cause failure
// beside the lower cells that failure canceled, and Map needs both to
// report the cause rather than the collateral cancellation.
func (b *RemoteBackend) handleResults(w *remoteWorker, reply *wireMsg) {
	b.mu.Lock()
	defer b.mu.Unlock()
	chunk := b.inflight[reply.seq]
	if chunk == nil || chunk.worker != w {
		return // stale frame for a chunk already requeued elsewhere
	}
	b.detachLocked(chunk)
	run := chunk.run

	if reply.err != "" {
		err := fmt.Errorf("remote worker %s: %s", w.name, reply.err)
		if !run.finished() {
			if reply.permanent {
				b.failRunLocked(run, Permanent(err))
			} else {
				// The worker stays in the fleet: a transient batch error
				// (say, a scenario its binary lacks) only requeues the
				// chunk, most likely to land on a different worker.
				b.queueLocked(chunk, err)
			}
		}
		b.dispatchLocked()
		return
	}

	ended := run.finished()
	accepted := 0
	failed := math.MaxInt
	for _, r := range reply.results {
		if _, dup := run.got[r.Shard]; dup || ended {
			// A speculative copy (or a copy landing after the run ended)
			// lost the race; bit-identity makes the discard safe.
			w.speculative++
			continue
		}
		if run.needs(r.Shard) {
			run.remaining--
		}
		run.got[r.Shard] = r
		w.cells++
		b.cellsTotal++
		accepted++
		if r.Err != "" && !r.Canceled && r.Shard < failed {
			failed = r.Shard
		}
	}
	if accepted > 0 {
		run.durations = append(run.durations, time.Since(chunk.sentAt))
		if chunk.speculative {
			w.steals++
		}
	}
	if !ended {
		// A worker stops its chunk at its first failed cell, so the cells
		// it skipped lie above that failure and the run no longer needs
		// them. Anything the run does still need from the chunk goes back
		// on the queue.
		run.failAt(failed)
		if len(missingSpecs(run, chunk.specs)) > 0 {
			b.queueLocked(chunk, fmt.Errorf("worker %s returned %d of %d cells", w.name, len(reply.results), len(chunk.specs)))
		}
	}
	b.maybeFinishLocked(run)
	b.dispatchLocked()
}

func (b *RemoteBackend) maybeFinishLocked(run *remoteRun) {
	if run.err == nil && run.remaining == 0 {
		if _, active := b.runs[run]; active {
			delete(b.runs, run)
			close(run.done)
		}
	}
}

func (b *RemoteBackend) failRunLocked(run *remoteRun, err error) {
	if _, active := b.runs[run]; !active || run.err != nil {
		return
	}
	run.err = err
	delete(b.runs, run)
	close(run.done)
}

// affinityOn resolves the tri-state Affinity flag (nil means on).
func (b *RemoteBackend) affinityOn() bool { return b.Affinity == nil || *b.Affinity }

// preferredWorkerLocked is the worker a locality key should land on:
// the worker that last served it while that worker remains live, else
// the rendezvous-hash champion among the live fleet. Rendezvous keeps
// placement stable as workers join and leave — only keys whose
// champion departed move. Requires b.mu.
func (b *RemoteBackend) preferredWorkerLocked(loc string) *remoteWorker {
	if w, ok := b.lastServed[loc]; ok && !w.dead {
		if _, live := b.fleet[w]; live {
			return w
		}
	}
	var best *remoteWorker
	var bestScore uint64
	for w := range b.fleet {
		if w.dead {
			continue
		}
		score := fnv1a(loc + "\x00" + w.name)
		if best == nil || score > bestScore || (score == bestScore && w.id < best.id) {
			best, bestScore = w, score
		}
	}
	return best
}

// dispatchLocked pairs idle workers with work. With affinity on, a
// first pass sends every pending chunk whose preferred worker is idle
// to that worker — holding a chunk for its warm home while the home is
// idle costs nothing. The second pass is plain work sharing: remaining
// idle workers drain the queue oldest-first (so an idle fleet never
// starves behind affinity), then speculate on stragglers. Requires
// b.mu; frame writes happen on fresh goroutines so the scheduler never
// blocks on a slow connection.
func (b *RemoteBackend) dispatchLocked() {
	if b.affinityOn() {
		for run := range b.runs {
			kept := run.pending[:0]
			for _, c := range run.pending {
				var w *remoteWorker
				if c.locality != "" {
					w = b.preferredWorkerLocked(c.locality)
				}
				if w != nil && !w.dead && w.busy == nil {
					b.assignLocked(w, c)
				} else {
					kept = append(kept, c)
				}
			}
			run.pending = kept
		}
	}
	for {
		w := b.idleWorkerLocked()
		if w == nil {
			return
		}
		chunk := b.nextChunkLocked(w)
		if chunk == nil {
			return
		}
		b.assignLocked(w, chunk)
	}
}

// assignLocked dispatches one chunk on one idle worker: affinity
// accounting, seq/inflight bookkeeping, and the async frame write.
// Requires b.mu.
func (b *RemoteBackend) assignLocked(w *remoteWorker, chunk *remoteChunk) {
	if loc := chunk.locality; loc != "" {
		// Hit/miss is judged against the preference before this very
		// assignment updates it; speculative clones are deliberate
		// cross-worker duplicates and stay out of the counters.
		if !chunk.speculative && b.affinityOn() {
			if b.preferredWorkerLocked(loc) == w {
				w.affinityHits++
			} else {
				w.affinityMisses++
			}
		}
		b.lastServed[loc] = w
		if w.served == nil {
			w.served = map[string]struct{}{}
		}
		w.served[loc] = struct{}{}
	}
	b.nextSeq++
	chunk.seq = b.nextSeq
	chunk.worker = w
	chunk.sentAt = time.Now()
	chunk.attempts++
	w.busy = chunk
	b.inflight[chunk.seq] = chunk
	chunk.run.inflight[chunk] = struct{}{}
	work := &wireMsg{kind: wireKindWork, seq: chunk.seq, cells: chunk.specs}
	if b.affinityOn() {
		work.prefetch = b.prefetchHintLocked(w, chunk)
	}
	go b.send(w, work)
}

// prefetchHintLocked names up to two locality keys w is likely to
// serve after chunk — pending chunks preferring w whose key differs
// from the one just dispatched — so the worker overlaps artifact loads
// with compute. Requires b.mu.
func (b *RemoteBackend) prefetchHintLocked(w *remoteWorker, chunk *remoteChunk) []string {
	var hints []string
	seen := map[string]bool{chunk.locality: true, "": true}
	for run := range b.runs {
		for _, c := range run.pending {
			if seen[c.locality] {
				continue
			}
			if b.preferredWorkerLocked(c.locality) != w {
				continue
			}
			seen[c.locality] = true
			hints = append(hints, c.locality)
			if len(hints) == 2 {
				return hints
			}
		}
	}
	return hints
}

// idleWorkerLocked returns a live idle worker, if any.
func (b *RemoteBackend) idleWorkerLocked() *remoteWorker {
	for w := range b.fleet {
		if !w.dead && w.busy == nil {
			return w
		}
	}
	return nil
}

// nextChunkLocked picks the next chunk for w: a queued chunk — one
// whose key w already serves when affinity is on, else the oldest —
// else a speculative clone of a straggler.
func (b *RemoteBackend) nextChunkLocked(w *remoteWorker) *remoteChunk {
	for run := range b.runs {
		if len(run.pending) == 0 {
			continue
		}
		pick := 0
		if b.affinityOn() {
			for i, c := range run.pending {
				if c.locality == "" {
					continue
				}
				if _, ok := w.served[c.locality]; ok {
					pick = i
					break
				}
			}
		}
		chunk := run.pending[pick]
		run.pending = append(run.pending[:pick], run.pending[pick+1:]...)
		return chunk
	}
	return b.speculateLocked(w)
}

// speculateLocked clones a straggling in-flight chunk for w to
// re-execute — preferring, with affinity on, the oldest straggler
// whose key w has served (its artifacts are already warm), else the
// oldest overall — or returns nil if nothing qualifies.
func (b *RemoteBackend) speculateLocked(w *remoteWorker) *remoteChunk {
	now := time.Now()
	var oldest, oldestServed *remoteChunk
	for run := range b.runs {
		threshold := b.stragglerThreshold(run)
		for c := range run.inflight {
			if c.speculative || c.clones > 0 {
				continue
			}
			if now.Sub(c.sentAt) < threshold {
				continue
			}
			if len(missingSpecs(run, c.specs)) == 0 {
				continue
			}
			if oldest == nil || c.sentAt.Before(oldest.sentAt) {
				oldest = c
			}
			if c.locality != "" {
				if _, ok := w.served[c.locality]; ok {
					if oldestServed == nil || c.sentAt.Before(oldestServed.sentAt) {
						oldestServed = c
					}
				}
			}
		}
	}
	pick := oldest
	if b.affinityOn() && oldestServed != nil {
		pick = oldestServed
	}
	if pick == nil {
		return nil
	}
	pick.clones++
	return &remoteChunk{
		run:         pick.run,
		specs:       missingSpecs(pick.run, pick.specs),
		locality:    pick.locality,
		speculative: true,
		source:      pick,
	}
}

// stragglerThreshold is how long a chunk may be in flight before an
// idle worker re-executes it: the configured floor, stretched by the
// run's median chunk duration once one exists.
func (b *RemoteBackend) stragglerThreshold(run *remoteRun) time.Duration {
	th := b.minStragglerAge()
	if n := len(run.durations); n > 0 {
		ds := append([]time.Duration(nil), run.durations...)
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		if scaled := time.Duration(b.stragglerFactor() * float64(ds[n/2])); scaled > th {
			th = scaled
		}
	}
	return th
}

// send writes one work frame, failing the worker on error.
func (b *RemoteBackend) send(w *remoteWorker, work *wireMsg) {
	payload := encodeWireMsg(work)
	b.wire.binaryBytes.Add(uint64(len(payload)))
	w.wmu.Lock()
	_ = w.conn.SetWriteDeadline(time.Now().Add(remoteHandshakeTimeout))
	err := writeRawFrame(w.conn, payload)
	w.wmu.Unlock()
	if err != nil {
		b.failWorker(w, fmt.Errorf("send chunk: %w", err))
	}
}

// Run implements Backend: the batch is chunked, scheduled across the
// live fleet, and survives workers joining, leaving, and straggling;
// Run returns when every shard has exactly one accepted result (or the
// run fails permanently).
func (b *RemoteBackend) Run(ctx context.Context, specs []CellSpec) ([]CellResult, error) {
	start := time.Now()
	defer func() { b.wallNS.Add(int64(time.Since(start))) }()
	if len(specs) == 0 {
		return nil, nil
	}
	if b.memberSlots() == 0 {
		if _, err := b.Start(); err != nil {
			return nil, err
		}
	}

	run := &remoteRun{
		started:   time.Now(),
		specOf:    make(map[int]CellSpec, len(specs)),
		got:       make(map[int]CellResult, len(specs)),
		remaining: len(specs),
		failShard: math.MaxInt,
		inflight:  map[*remoteChunk]struct{}{},
		done:      make(chan struct{}),
	}
	for _, s := range specs {
		run.specOf[s.Shard] = s
	}

	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil, errors.New("remote backend is closed")
	}
	if err := b.spawnLocked(); err != nil {
		b.mu.Unlock()
		return nil, err
	}
	if b.ln == nil && len(b.fleet) == 0 && b.starting == 0 {
		b.mu.Unlock()
		return nil, errors.New("fleet has no members and no listener")
	}
	live := len(b.fleet) + b.starting
	if live < 1 {
		live = 1
	}
	chunkSize := (len(specs) + live*remoteChunkTarget - 1) / (live * remoteChunkTarget)
	if chunkSize < 1 {
		chunkSize = 1
	}
	// Chunks group by locality key (first-appearance order — specs
	// arrive in shard order, so this is stable and results merge
	// identically) and never span two keys: affinity routing then has
	// clean units to place, and a chunk's cells always share their warm
	// artifacts.
	order := make([]string, 0, 8)
	byLoc := map[string][]CellSpec{}
	for _, s := range specs {
		if _, ok := byLoc[s.Locality]; !ok {
			order = append(order, s.Locality)
		}
		byLoc[s.Locality] = append(byLoc[s.Locality], s)
	}
	for _, loc := range order {
		group := byLoc[loc]
		for off := 0; off < len(group); off += chunkSize {
			end := off + chunkSize
			if end > len(group) {
				end = len(group)
			}
			run.pending = append(run.pending, &remoteChunk{run: run, specs: group[off:end], locality: loc})
		}
	}
	b.runs[run] = struct{}{}
	b.dispatchLocked()
	b.mu.Unlock()

	tickDone := make(chan struct{})
	defer close(tickDone)
	go b.tickRun(run, tickDone)

	select {
	case <-run.done:
	case <-ctx.Done():
		b.mu.Lock()
		b.failRunLocked(run, ctx.Err())
		b.mu.Unlock()
		<-run.done
	}

	b.mu.Lock()
	err := run.err
	results := make([]CellResult, 0, len(run.got))
	for _, r := range run.got {
		results = append(results, r)
	}
	b.mu.Unlock()
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			return nil, ctxErr
		}
		return nil, err
	}
	sortResultsByShard(results)
	// Stream completions only after the whole batch succeeded: a failed
	// batch must stay invisible to the pool's cell accounting.
	for i := range results {
		r := &results[i]
		s := run.specOf[r.Shard]
		b.notify(Cell{
			Backend: b.Name(), Scope: s.Scope, Shard: r.Shard, Seed: s.Seed,
			Elapsed: time.Duration(r.ElapsedUS) * time.Microsecond, Err: r.CellErr(),
		}, s, *r)
	}
	return results, nil
}

// tickRun drives the time-based scheduling decisions for one run —
// straggler speculation and the empty-fleet join grace — until the run
// completes or its Run call returns.
func (b *RemoteBackend) tickRun(run *remoteRun, stop <-chan struct{}) {
	tick := b.minStragglerAge() / 4
	if tick < 10*time.Millisecond {
		tick = 10 * time.Millisecond
	}
	if tick > 250*time.Millisecond {
		tick = 250 * time.Millisecond
	}
	t := time.NewTicker(tick)
	defer t.Stop()
	for {
		select {
		case <-run.done:
			return
		case <-stop:
			return
		case <-t.C:
		}
		b.mu.Lock()
		if len(b.fleet) == 0 {
			ref := run.started
			if b.lastWorkerAt.After(ref) {
				ref = b.lastWorkerAt
			}
			if time.Since(ref) > b.joinGrace() {
				b.failRunLocked(run, fmt.Errorf("no workers connected to %s for %v (fleet empty; %d joined, %d left)",
					b.listenAddrLocked(), b.joinGrace(), b.joins, b.leaves))
			}
		}
		b.dispatchLocked()
		b.mu.Unlock()
	}
}

func (b *RemoteBackend) listenAddrLocked() string {
	if b.ln == nil {
		return b.Addr
	}
	return b.ln.Addr().String()
}

// BackendStats implements StatsReporter: one fleet-level entry with a
// per-worker breakdown (every worker that ever joined, in join order).
func (b *RemoteBackend) BackendStats() []BackendStats {
	b.mu.Lock()
	defer b.mu.Unlock()
	ws := make([]WorkerStats, 0, len(b.roster))
	for _, w := range b.roster {
		ws = append(ws, WorkerStats{
			Worker: w.name, Cells: w.cells, Steals: w.steals, Speculative: w.speculative,
			AffinityHits: w.affinityHits, AffinityMisses: w.affinityMisses,
		})
	}
	stats := BackendStats{
		Backend: b.Name(),
		Cells:   b.cellsTotal,
		Retries: b.retries,
		WallMS:  time.Duration(b.wallNS.Load()).Milliseconds(),
		Joins:   b.joins,
		Leaves:  b.leaves,
		Workers: ws,
	}
	b.wire.fill(&stats)
	return []BackendStats{stats}
}

// Close shuts the coordinator down: the listener stops accepting,
// active runs fail, and worker connections close (which each worker
// treats as a clean shutdown). Members the backend started are reaped,
// and killed if they linger.
func (b *RemoteBackend) Close() error {
	b.mu.Lock()
	if b.closed {
		b.mu.Unlock()
		return nil
	}
	b.closed = true
	ln := b.ln
	workers := make([]*remoteWorker, 0, len(b.fleet))
	for w := range b.fleet {
		workers = append(workers, w)
	}
	for run := range b.runs {
		run.err = errors.New("remote backend closed")
		delete(b.runs, run)
		close(run.done)
	}
	members := b.members
	b.members = nil
	b.mu.Unlock()
	if ln != nil {
		ln.Close()
	}
	for _, w := range workers {
		w.conn.Close()
	}
	var wg sync.WaitGroup
	for _, m := range members {
		if m == nil {
			continue
		}
		wg.Add(1)
		go func(m *member) {
			defer wg.Done()
			m.shutdown(time.Second)
		}(m)
	}
	wg.Wait()
	return nil
}
