// Pool, Map, and the seeding scheme: the execution core of the package
// (see doc.go for the package overview and docs/ARCHITECTURE.md for the
// full picture).

package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"stbpu/internal/rng"
	"stbpu/internal/snapstore"
	"stbpu/internal/tracestore"
)

// Params is the union of knobs scenarios accept. Zero values mean "use the
// scenario default" (see Merged); scenarios read only the fields they
// document.
type Params struct {
	// Records is the per-workload trace length.
	Records int `json:"records,omitempty"`
	// MaxWorkloads caps the workload list (0 = all).
	MaxWorkloads int `json:"max_workloads,omitempty"`
	// MaxPairs caps the SMT pair list (0 = all).
	MaxPairs int `json:"max_pairs,omitempty"`
	// Trials is the per-cell repetition count for randomized measurements.
	Trials int `json:"trials,omitempty"`
	// Budget bounds attack-driver scans.
	Budget int `json:"budget,omitempty"`
	// Bits is the covert-channel message length.
	Bits int `json:"bits,omitempty"`
	// R is the attack-difficulty factor for threshold derivation.
	R float64 `json:"r,omitempty"`
	// Sweep is a scenario-specific axis (r values, trace lengths, ...).
	Sweep []float64 `json:"sweep,omitempty"`
	// Workload names a single-workload scenario's trace preset.
	Workload string `json:"workload,omitempty"`
	// WorkloadSpec names a registered spec-driven workload
	// ("spec:<name>@<hash>") for the workloads scenario family; empty
	// runs the built-in spec fixtures.
	WorkloadSpec string `json:"workload_spec,omitempty"`
}

// Merged fills p's zero fields from def and returns the result.
func (p Params) Merged(def Params) Params {
	if p.Records == 0 {
		p.Records = def.Records
	}
	if p.MaxWorkloads == 0 {
		p.MaxWorkloads = def.MaxWorkloads
	}
	if p.MaxPairs == 0 {
		p.MaxPairs = def.MaxPairs
	}
	if p.Trials == 0 {
		p.Trials = def.Trials
	}
	if p.Budget == 0 {
		p.Budget = def.Budget
	}
	if p.Bits == 0 {
		p.Bits = def.Bits
	}
	if p.R == 0 {
		p.R = def.R
	}
	if len(p.Sweep) == 0 {
		p.Sweep = def.Sweep
	}
	if p.Workload == "" {
		p.Workload = def.Workload
	}
	if p.WorkloadSpec == "" {
		p.WorkloadSpec = def.WorkloadSpec
	}
	return p
}

// DefaultRootSeed seeds runs that don't specify one. Any value works; this
// one is fixed so default runs are comparable across machines.
const DefaultRootSeed uint64 = 0x57b9c0ffee

// ShardSeed derives the RNG seed for one cell. It depends only on the root
// seed, the scope name, and the shard index — never on worker count or
// scheduling — so results are reproducible at any parallelism.
func ShardSeed(root uint64, scope string, shard int) uint64 {
	s := root ^ fnv1a(scope)
	rng.SplitMix64(&s)
	s ^= uint64(shard) * 0x9e3779b97f4a7c15
	return rng.SplitMix64(&s)
}

func fnv1a(s string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// Cell is one completed unit of work, streamed to the pool's observer as
// workers finish (completion order, not shard order).
type Cell struct {
	// Backend names the backend that executed the cell.
	Backend string
	// Scope is the scenario-local cell-space name passed to Map.
	Scope string
	// Shard is the cell's dense index within the scope.
	Shard int
	// Seed is the derived per-cell RNG seed.
	Seed uint64
	// Elapsed is the cell's wall-clock time.
	Elapsed time.Duration
	// Err is the cell's error, if any.
	Err error
}

// Pool is a sized worker pool with a root seed. It carries no goroutines
// of its own; Map spins workers up per call, so an idle Pool costs
// nothing and one Pool can serve many sequential scenarios.
type Pool struct {
	workers  int
	rootSeed uint64

	mu       sync.Mutex
	observer func(Cell)
	sink     Sink
	traces   *tracestore.Store
	snaps    *snapstore.Store
	backend  Backend
	// scenario/params are the scenario context RunAll (or a worker's
	// capture run) establishes around Scenario.Run, stamped into every
	// CellSpec so fleet workers can address cells by name.
	scenario       string
	scenarioParams Params
	// modelMajor disables trace-major grouping (see SetTraceMajor;
	// stored inverted so the zero-value pool defaults to trace-major).
	modelMajor bool
	// snapshotsOff disables the warm-state snapshot tier (see
	// SetSnapshots; stored inverted so the zero-value pool defaults to
	// snapshots on).
	snapshotsOff bool

	cells atomic.Uint64
}

// sharedTraceStore backs Traces for nil pools (harness.Map's "no pool"
// convenience path), so even ad-hoc runs share one process-wide cache.
// sharedSnapStore is its snapshot-tier twin.
var (
	sharedTraceStoreOnce sync.Once
	sharedTraceStore     *tracestore.Store
	sharedSnapStoreOnce  sync.Once
	sharedSnapStore      *snapstore.Store
)

// SetTraceStore installs the cross-run trace store scenario cells share
// (nil reverts to lazy default creation). Call before running scenarios.
func (p *Pool) SetTraceStore(s *tracestore.Store) {
	p.mu.Lock()
	p.traces = s
	p.mu.Unlock()
}

// Traces returns the pool's shared trace store, lazily creating one with
// the default byte budget. Scenarios fetch workload traces through it so
// one (workload, records) trace is generated once per suite run rather
// than once per scenario; because generation is deterministic, sharing
// cannot perturb results (see tracestore's package comment).
func (p *Pool) Traces() *tracestore.Store {
	if p == nil {
		sharedTraceStoreOnce.Do(func() {
			sharedTraceStore = tracestore.New(0, nil)
		})
		return sharedTraceStore
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.traces == nil {
		p.traces = tracestore.New(0, nil)
	}
	return p.traces
}

// SetSnapStore installs the checkpoint store scenario cells share for
// the warm-state snapshot tier (nil reverts to lazy default creation).
// Call before running scenarios.
func (p *Pool) SetSnapStore(s *snapstore.Store) {
	p.mu.Lock()
	p.snaps = s
	p.mu.Unlock()
}

// Snaps returns the pool's shared checkpoint store, lazily creating one
// with the default byte budget. Scenarios capture warm predictor state
// at phase boundaries through it, so a phase measurement restores a
// checkpoint instead of replaying its whole warmup prefix; because
// snapshots are deterministic encodings of deterministic replay, sharing
// cannot perturb results.
func (p *Pool) Snaps() *snapstore.Store {
	if p == nil {
		sharedSnapStoreOnce.Do(func() {
			sharedSnapStore = snapstore.New(0)
		})
		return sharedSnapStore
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.snaps == nil {
		p.snaps = snapstore.New(0)
	}
	return p.snaps
}

// SetSnapshots toggles the warm-state snapshot tier for scenarios on
// this pool (default on). Off, phase cells fall back to replaying their
// warmup prefix from record zero — which only changes speed, never
// results: the flag exists to pin that equivalence in tests and CI and
// to isolate regressions.
func (p *Pool) SetSnapshots(on bool) {
	p.mu.Lock()
	p.snapshotsOff = !on
	p.mu.Unlock()
}

// SnapshotsOn reports whether the warm-state snapshot tier is enabled.
func (p *Pool) SnapshotsOn() bool {
	if p == nil {
		return true
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return !p.snapshotsOff
}

// NewPool returns a pool running up to workers cells concurrently
// (workers <= 0 means GOMAXPROCS) with the given root seed.
func NewPool(workers int, rootSeed uint64) *Pool {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Pool{workers: workers, rootSeed: rootSeed}
}

// SetBackend installs the backend Map schedules cells through (nil
// reverts to the lazily created LocalBackend). Backends that stream
// completed cells are wired to the pool's observer.
func (p *Pool) SetBackend(b Backend) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if s, ok := b.(cellSink); ok {
		s.setSink(p.complete)
	}
	p.backend = b
}

// Backend returns the pool's backend, lazily creating a LocalBackend
// sized to the pool's worker count.
func (p *Pool) Backend() Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.backend == nil {
		lb := NewLocalBackend(p.workers)
		lb.setSink(p.complete)
		p.backend = lb
	}
	return p.backend
}

// beginScenario establishes the scenario context stamped into CellSpecs;
// endScenario clears it. RunAll brackets every Scenario.Run with them.
func (p *Pool) beginScenario(name string, params Params) {
	p.mu.Lock()
	p.scenario, p.scenarioParams = name, params
	p.mu.Unlock()
}

func (p *Pool) endScenario() {
	p.mu.Lock()
	p.scenario, p.scenarioParams = "", Params{}
	p.mu.Unlock()
}

func (p *Pool) scenarioContext() (string, Params) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.scenario, p.scenarioParams
}

// complete is where backends report finished cells: it maintains the
// pool's cell counter and feeds the sink (wire-encoded) and observer.
// The sink call — wire encoding plus, for a Journal, a disk append —
// runs outside the pool lock so concurrent workers don't serialize
// behind each other's I/O; sinks synchronize internally. Observer
// calls stay serialized under the pool lock as SetObserver documents.
func (p *Pool) complete(c Cell, spec CellSpec, res CellResult) {
	p.cells.Add(1)
	if sink := p.currentSink(); sink != nil {
		wire := res
		wire.encodeWire() // the copy leaves the backend's live value intact
		sink.CellDone(c, spec, wire)
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.observer != nil {
		p.observer(c)
	}
}

// Default returns a GOMAXPROCS-wide pool with DefaultRootSeed.
func Default() *Pool { return NewPool(0, DefaultRootSeed) }

// Workers reports the pool's concurrency.
func (p *Pool) Workers() int { return p.workers }

// RootSeed reports the pool's root seed.
func (p *Pool) RootSeed() uint64 { return p.rootSeed }

// Cells reports how many cells the pool has completed since creation.
func (p *Pool) Cells() uint64 { return p.cells.Load() }

// SetObserver installs fn to receive every completed Cell (nil removes
// it). Calls are serialized; fn must not block for long.
func (p *Pool) SetObserver(fn func(Cell)) {
	p.mu.Lock()
	p.observer = fn
	p.mu.Unlock()
}

// SetSink installs s to receive every completed cell with its spec and
// wire-encoded result (nil removes it). Calls are serialized like the
// observer's. A sink that also implements CellLookup (a resumed
// Journal) additionally short-circuits Map: cells it already holds are
// not re-executed.
func (p *Pool) SetSink(s Sink) {
	p.mu.Lock()
	p.sink = s
	p.mu.Unlock()
}

func (p *Pool) currentSink() Sink {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.sink
}

// Map runs fn over the n-cell space named scope through the pool's
// backend and returns the results in shard order. Each cell receives its
// ShardSeed. The first error (lowest shard index) cancels the remaining
// cells and is returned; a canceled ctx stops workers promptly and
// returns ctx.Err().
//
// With the default LocalBackend the cell functions run in-process on the
// pool's goroutine workers, exactly as before backends existed. On a
// fleet (RemoteBackend) the specs are shipped by (scenario, params,
// scope, shard, root seed) and executed by its workers; Map merges
// whatever comes back into shard order, so results are bit-identical
// regardless of which worker ran which cell.
//
// When the pool's sink implements CellLookup (a resumed Journal), cells
// the lookup already holds are not re-executed: their stored values are
// decoded into the output, and their completion is replayed to the
// observer and sink (Backend "journal") so Report.Cells matches an
// uninterrupted run. Because cells are pure functions of their address,
// the spliced values are bit-identical to re-executing.
func Map[T any](ctx context.Context, p *Pool, scope string, n int, fn func(ctx context.Context, shard int, seed uint64) (T, error)) ([]T, error) {
	if p == nil {
		p = Default()
	}
	out := make([]T, n)
	if n == 0 {
		return out, nil
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}

	scenario, params := p.scenarioContext()
	erased := func(ctx context.Context, shard int, seed uint64) (any, error) {
		return fn(ctx, shard, seed)
	}
	specs := make([]CellSpec, n)
	locality := localityFor(ctx, scope)
	for i := range specs {
		specs[i] = CellSpec{
			Scenario: scenario,
			Params:   params,
			Scope:    scope,
			Shard:    i,
			Seed:     ShardSeed(p.rootSeed, scope, i),
			RootSeed: p.rootSeed,
			fn:       erased,
		}
		if locality != nil {
			specs[i].Locality = locality(i)
		}
	}

	got := make([]bool, n)
	errs := make([]error, n)
	anyErr := false

	b := p.Backend()
	pending := specs
	if lookup, ok := p.currentSink().(CellLookup); ok && scenario != "" {
		pending = make([]CellSpec, 0, n)
		for _, s := range specs {
			r, done := lookup.LookupCell(s)
			if !done {
				pending = append(pending, s)
				continue
			}
			if err := decodeInto(&r, &out[s.Shard]); err != nil {
				return nil, fmt.Errorf("%s shard %d: journaled cell: %w", scope, s.Shard, err)
			}
			got[s.Shard] = true
			p.complete(Cell{
				Backend: "journal", Scope: s.Scope, Shard: s.Shard, Seed: s.Seed,
				Elapsed: journalElapsed(r.ElapsedUS),
			}, s, r)
		}
	}

	var results []CellResult
	if len(pending) > 0 {
		var runErr error
		results, runErr = b.Run(ctx, pending)
		if runErr != nil {
			if err := ctx.Err(); err != nil {
				return nil, err
			}
			return nil, fmt.Errorf("%s: %s backend: %w", scope, b.Name(), runErr)
		}
	}
	for idx := range results {
		r := &results[idx]
		if r.Shard < 0 || r.Shard >= n {
			return nil, fmt.Errorf("%s: %s backend returned out-of-range shard %d", scope, b.Name(), r.Shard)
		}
		if got[r.Shard] {
			return nil, fmt.Errorf("%s: %s backend returned duplicate results for shard %d", scope, b.Name(), r.Shard)
		}
		got[r.Shard] = true
		if err := r.CellErr(); err != nil {
			errs[r.Shard] = err
			anyErr = true
			continue
		}
		if err := decodeInto(r, &out[r.Shard]); err != nil {
			return nil, fmt.Errorf("%s shard %d: %s backend: %w", scope, r.Shard, b.Name(), err)
		}
	}

	if anyErr {
		// Report the lowest-indexed *root-cause* error: once a cell fails
		// the backend cancels its remaining in-flight cells, so lower-
		// indexed cells may abort with context.Canceled — those are
		// collateral, not the cause, as long as the caller's context is
		// still live.
		var collateral error
		collateralShard := -1
		for i, err := range errs {
			if err == nil {
				continue
			}
			if errors.Is(err, context.Canceled) && ctx.Err() == nil {
				if collateral == nil {
					collateral, collateralShard = err, i
				}
				continue
			}
			return nil, fmt.Errorf("%s shard %d: %w", scope, i, err)
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		return nil, fmt.Errorf("%s shard %d: %w", scope, collateralShard, collateral)
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	for i, ok := range got {
		if !ok {
			return nil, fmt.Errorf("%s: %s backend returned no result for shard %d", scope, b.Name(), i)
		}
	}
	return out, nil
}
