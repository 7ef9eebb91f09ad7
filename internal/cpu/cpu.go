// Package cpu is the cycle-level out-of-order CPU model substituting for
// the paper's gem5 DerivO3CPU evaluation (Table IV; see DESIGN.md for the
// substitution argument). It implements an interval-style timing model
// (Genbrugge/Eyerman/Eeckhout): sustained dispatch at core width,
// punctuated by miss events — branch mispredictions (front-end redirect +
// refill) and long-latency cache misses (partially hidden by the reorder
// buffer).
//
// The analytic core's cycle count is the sum of two independent terms:
//
//   - the memory term: instruction counts plus dispatch,
//     fetch-stall and load-stall cycles from one pass of the Table IV
//     cache hierarchy over the trace. Block sizes and load addresses
//     derive from each record's PC and target alone, so this term depends
//     only on the trace and its Config — never on branch outcomes;
//   - the branch term: MispredictPenalty per misprediction, from a
//     columnar replay of the BPU model (sim.RunColumnsMulti).
//
// RunColumns and RunSMTColumns compute the memory term once and replay
// any number of models over the same trace alongside it; Core is the
// one-model view of the same engine.
//
// What matters for Figs. 4-6 is that the model couples prediction quality
// to IPC the same way gem5's pipeline does: every extra misprediction
// costs a squash window, so the ST-vs-unprotected IPC delta tracks the
// prediction-rate delta.
package cpu

import (
	"context"

	"stbpu/internal/bpu"
	"stbpu/internal/cache"
	"stbpu/internal/sim"
	"stbpu/internal/stats"
	"stbpu/internal/trace"
)

// Config parameterizes the core (defaults per Table IV).
type Config struct {
	// Width is the issue/dispatch width (8).
	Width int
	// ROB is the reorder buffer depth (192).
	ROB int
	// IQ, LQ, SQ are queue sizes (64/32/32); they bound the overlap
	// window for load misses.
	IQ, LQ, SQ int
	// MispredictPenalty is the front-end redirect + refill cost.
	MispredictPenalty int
	// BTBMissPenalty is the fetch bubble for a taken branch without a
	// target. No engine charges it: bpu.Unit.Update reports a BTB miss
	// only on a taken branch with no predicted target, which is always
	// also a misprediction, and the misprediction penalty already covers
	// the redirect. Only the test oracle reads it, on a branch that
	// bpu's TestBTBMissImpliesMispredict shows never runs.
	BTBMissPenalty int

	// InstrPerBranch is the mean non-branch instructions per branch
	// record (workload dependent; ~5 for SPEC int).
	InstrPerBranch int
	// LoadFrac is the fraction of non-branch instructions that access
	// memory.
	LoadFrac float64
	// DataFootprint is the synthesized data working-set size in bytes.
	DataFootprint uint64
}

// TableIVConfig returns the paper's gem5 core configuration.
func TableIVConfig() Config {
	return Config{
		Width:             8,
		ROB:               192,
		IQ:                64,
		LQ:                32,
		SQ:                32,
		MispredictPenalty: 16,
		BTBMissPenalty:    8,
		InstrPerBranch:    5,
		LoadFrac:          0.3,
		DataFootprint:     8 << 20,
	}
}

// Result is one core-simulation outcome.
type Result struct {
	Workload     string
	Model        string
	Instructions uint64
	Cycles       uint64
	Branch       sim.Result
}

// IPC returns instructions per cycle.
func (r Result) IPC() float64 {
	return stats.Ratio(r.Instructions, r.Cycles)
}

// SMTResult is a two-thread co-run outcome.
type SMTResult struct {
	Workloads [2]string
	Model     string
	// PerThread are the per-thread timing results.
	PerThread [2]Result
	// Cycles is the shared-core total.
	Cycles uint64
}

// HarmonicMeanIPC is the throughput metric of Fig. 5 (Michaud): the
// harmonic mean of per-thread IPCs.
func (r SMTResult) HarmonicMeanIPC() float64 {
	hm, err := stats.HarmonicMean([]float64{r.PerThread[0].IPC(), r.PerThread[1].IPC()})
	if err != nil {
		return 0
	}
	return hm
}

// memory is the trace-only term of the analytic core: what one pass of
// the cache hierarchy over a trace (or an SMT pair's round-robin
// interleave) charges, independent of any branch predictor.
type memory struct {
	// Instructions is each thread's retired instruction count (thread 1
	// stays zero for a single-thread run).
	Instructions [2]uint64
	// Cycles is the dispatch, fetch-stall and load-stall total on the
	// shared core clock.
	Cycles uint64
}

// runCheckInterval is how many records (SMT: rounds) the memory pass
// executes between context checks (mirrors sim.RunCtx).
const runCheckInterval = 8192

// memPass charges records against one hierarchy. The per-block dispatch
// cycles and load counts are tabulated once per pass: a record's block
// size is 1..2·InstrPerBranch.
type memPass struct {
	h          *cache.Hierarchy
	footprint  uint64
	ipb2       uint64
	robOverlap uint64
	dispatch   []uint64 // block → dispatch cycles at core width
	loads      []int    // block → loads in the block
	cycles     uint64
}

func newMemPass(cfg Config, h *cache.Hierarchy, robOverlap int) *memPass {
	n := 2*cfg.InstrPerBranch + 1
	p := &memPass{
		h:          h,
		footprint:  cfg.DataFootprint,
		ipb2:       uint64(2 * cfg.InstrPerBranch),
		robOverlap: uint64(robOverlap),
		dispatch:   make([]uint64, n),
		loads:      make([]int, n),
	}
	for block := 1; block < n; block++ {
		p.dispatch[block] = uint64((block + cfg.Width - 1) / cfg.Width)
		p.loads[block] = int(float64(block) * cfg.LoadFrac)
	}
	return p
}

// row charges row i of cols (i is the record's index within its own
// thread) and returns the instructions it retires: the block plus the
// branch.
func (p *memPass) row(cols *trace.Columns, i int) uint64 {
	pc := cols.PCs[i]
	h := hashRow(pc, cols.Targets[i], i)
	block := 1 + int(h%p.ipb2) // mean ≈ InstrPerBranch

	// Dispatch the block at core width.
	p.cycles += p.dispatch[block]

	// Instruction fetch misses stall the front end.
	if il := p.h.AccessInstr(pc); il > 4 {
		p.cycles += uint64(il) / 2 // partially pipelined fetch
	}

	// Loads: long-latency misses are hidden up to the ROB fill time;
	// consecutive misses in the same block overlap (MLP 2).
	for l := 0; l < p.loads[block]; l++ {
		if lat := uint64(p.h.AccessData(loadAddr(p.footprint, h, l))); lat > p.robOverlap {
			p.cycles += (lat - p.robOverlap) / 2
		}
	}
	return uint64(block) + 1
}

// memoryTerm computes the memory term of a single-thread run of a (b ==
// nil) or of the SMT co-run of a and b on h. An SMT co-run interleaves
// the threads round-robin — the order RunSMTColumns replays the BPU in —
// and shares the ROB overlap window between them.
func memoryTerm(ctx context.Context, cfg Config, h *cache.Hierarchy, a, b *trace.Columns) (memory, error) {
	robOverlap := cfg.ROB / cfg.Width
	na, nb := a.Len(), 0
	if b != nil {
		robOverlap /= 2 // window shared by threads
		nb = b.Len()
	}
	p := newMemPass(cfg, h, robOverlap)
	rounds := max(na, nb)
	var m memory
	for lo := 0; lo < rounds; lo += runCheckInterval {
		if err := ctx.Err(); err != nil {
			return memory{}, err
		}
		for r := lo; r < min(lo+runCheckInterval, rounds); r++ {
			if r < na {
				m.Instructions[0] += p.row(a, r)
			}
			if r < nb {
				m.Instructions[1] += p.row(b, r)
			}
		}
	}
	m.Cycles = p.cycles
	return m, nil
}

// loadAddr synthesizes a data address for load l of a block with realistic
// locality: ~90% of accesses fall in a hot 64KB region, ~9% in a warm 1MB
// region, and the rest sweep the full footprint — giving the L1/L2/LLC hit
// rates real SPEC workloads exhibit.
func loadAddr(footprint, h uint64, l int) uint64 {
	x := h>>8 ^ uint64(l)*0x2545f4914f6cdd1d
	x ^= x >> 31
	x *= 0x9e3779b97f4a7c15
	region := uint64(64 << 10)
	switch sel := (x >> 56) % 100; {
	case sel >= 99:
		region = footprint
	case sel >= 90:
		region = 1 << 20
	}
	if region > footprint {
		region = footprint
	}
	return (x % region) &^ 0x3f
}

// recHash derives deterministic per-record variation (instruction count,
// load addresses) from the record itself, so protected and unprotected
// models see the *identical* instruction stream.
func recHash(rec trace.Record, i int) uint64 { return hashRow(rec.PC, rec.Target, i) }

// hashRow is recHash over the two fields it reads.
func hashRow(pc, target uint64, i int) uint64 {
	h := pc ^ uint64(i)*0x9e3779b97f4a7c15 ^ target<<1
	h ^= h >> 33
	h *= 0xff51afd7ed558ccd
	h ^= h >> 29
	return h
}

// withMemory runs the memory term on its own goroutine while replay runs
// the branch term. It always waits for the memory pass, so h is never
// touched after it returns.
func withMemory(ctx context.Context, cfg Config, h *cache.Hierarchy, a, b *trace.Columns, replay func() error) (memory, error) {
	var mem memory
	var memErr error
	done := make(chan struct{})
	go func() {
		defer close(done)
		mem, memErr = memoryTerm(ctx, cfg, h, a, b)
	}()
	err := replay()
	<-done
	if err != nil {
		return memory{}, err
	}
	return mem, memErr
}

// cycles is the analytic core's total: the memory term plus the branch
// term.
func (cfg Config) cycles(mem memory, mispredicts uint64) uint64 {
	return mem.Cycles + uint64(cfg.MispredictPenalty)*mispredicts
}

// RunColumns runs a single-thread trace through the core once per model:
// one memory pass on a fresh Table IV hierarchy, and one columnar replay
// feeding every model (sim.RunColumnsMulti). results[i] is exactly what
// New(cfg, models[i]).RunCtx returns on the same trace.
func RunColumns(ctx context.Context, cfg Config, models []sim.Model, cols *trace.Columns) ([]Result, error) {
	return runColumns(ctx, cfg, cache.TableIVHierarchy(), models, cols)
}

func runColumns(ctx context.Context, cfg Config, h *cache.Hierarchy, models []sim.Model, cols *trace.Columns) ([]Result, error) {
	var rs []sim.Result
	mem, err := withMemory(ctx, cfg, h, cols, nil, func() (err error) {
		rs, err = sim.RunColumnsMulti(ctx, models, cols)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]Result, len(rs))
	for i, r := range rs {
		out[i] = Result{
			Workload:     cols.Name,
			Model:        r.Model,
			Instructions: mem.Instructions[0],
			Cycles:       cfg.cycles(mem, r.Mispredicts),
			Branch:       r,
		}
	}
	return out, nil
}

// RunSMTColumns co-runs two traces on one core in SMT mode once per
// model: records interleave round-robin (ICOUNT-style fairness), the BPU
// and caches are shared, and both threads accumulate cycles on the shared
// clock. The memory term runs once on a fresh Table IV hierarchy; every
// model replays one interleaved view of the pair (interleave) with its
// rows routed to per-thread counters. results[i] is exactly what
// New(cfg, models[i]).RunSMTCtx returns on the same pair.
func RunSMTColumns(ctx context.Context, cfg Config, models []sim.Model, a, b *trace.Columns) ([]SMTResult, error) {
	return runSMTColumns(ctx, cfg, cache.TableIVHierarchy(), models, a, b)
}

func runSMTColumns(ctx context.Context, cfg Config, h *cache.Hierarchy, models []sim.Model, a, b *trace.Columns) ([]SMTResult, error) {
	pair := interleave(a, b)
	split := 2 * min(a.Len(), b.Len())
	tail := 0
	if b.Len() > a.Len() {
		tail = 1
	}
	routed := make([]*threadModel, len(models))
	wrapped := make([]sim.Model, len(models))
	for i, m := range models {
		cm, _ := m.(sim.ColumnModel)
		routed[i] = &threadModel{inner: m, cm: cm, split: split, tail: tail}
		wrapped[i] = routed[i]
	}
	mem, err := withMemory(ctx, cfg, h, a, b, func() error {
		_, err := sim.RunColumnsMulti(ctx, wrapped, pair)
		return err
	})
	if err != nil {
		return nil, err
	}
	out := make([]SMTResult, len(models))
	for i, tm := range routed {
		name := models[i].Name()
		cycles := cfg.cycles(mem, tm.per[0].Mispredicts+tm.per[1].Mispredicts)
		res := SMTResult{Workloads: [2]string{a.Name, b.Name}, Model: name, Cycles: cycles}
		for t, cols := range [2]*trace.Columns{a, b} {
			res.PerThread[t] = Result{
				Workload:     cols.Name,
				Model:        name,
				Instructions: mem.Instructions[t],
				Cycles:       cycles,
				Branch:       counterResult(tm.per[t], cols.Len()),
			}
		}
		out[i] = res
	}
	return out, nil
}

// counterResult is a per-thread branch result: the thread's record count
// and event counters (run-scoped counters such as re-randomizations
// belong to the shared model, not to a thread).
func counterResult(c bpu.Counters, records int) sim.Result {
	return sim.Result{
		Records:       records,
		Mispredicts:   c.Mispredicts,
		Conds:         c.Conds,
		DirCorrect:    c.DirCorrect,
		TargetKnown:   c.TargetKnown,
		TargetCorrect: c.TargetCorrect,
		Evictions:     c.Evictions,
		BTBMisses:     c.BTBMisses,
	}
}

// interleave builds the SMT replay view of a pair: rows alternate a[0],
// b[0], a[1], b[1], ... while both threads have records, then the
// longer thread's tail follows. Thread 1's entities are offset into a
// disjoint range (PID += 1<<16, Program += 1<<12, both wrapping) so the
// two threads never collide in the token table.
func interleave(a, b *trace.Columns) *trace.Columns {
	n := a.Len() + b.Len()
	v := &trace.Columns{
		Name:     a.Name + "+" + b.Name,
		PCs:      make([]uint64, 0, n),
		Targets:  make([]uint64, 0, n),
		Flags:    make([]byte, 0, n),
		PIDs:     make([]uint32, 0, n),
		Programs: make([]uint16, 0, n),
	}
	push := func(c *trace.Columns, i int, pid uint32, prog uint16) {
		v.PCs = append(v.PCs, c.PCs[i])
		v.Targets = append(v.Targets, c.Targets[i])
		v.Flags = append(v.Flags, c.Flags[i])
		v.PIDs = append(v.PIDs, c.PIDs[i]+pid)
		v.Programs = append(v.Programs, c.Programs[i]+prog)
	}
	for r := 0; r < max(a.Len(), b.Len()); r++ {
		if r < a.Len() {
			push(a, r, 0, 0)
		}
		if r < b.Len() {
			push(b, r, 1<<16, 1<<12)
		}
	}
	return v
}

// threadModel routes each row of an interleave view to its thread's
// counters: rows below split alternate thread 0 and thread 1, and the
// remaining rows belong to the tail thread. Rows fold into per only —
// not into the replay's accumulator — so runSMTColumns reads a model's
// branch term from per, never from the replay's sim.Result counters.
type threadModel struct {
	inner sim.Model
	cm    sim.ColumnModel // nil: step materialized records
	split int
	tail  int
	per   [2]bpu.Counters
}

// Name implements sim.Model.
func (m *threadModel) Name() string { return m.inner.Name() }

// Step implements sim.Model by forwarding to the inner model. Replay
// always takes StepColumns, which does the per-thread routing.
func (m *threadModel) Step(rec trace.Record) (bpu.Prediction, bpu.Events) {
	return m.inner.Step(rec)
}

// StepColumns implements sim.ColumnModel: interleaved rows step one at a
// time, the tail in one call.
func (m *threadModel) StepColumns(cols *trace.Columns, lo, hi int, _ *bpu.Counters) {
	for i := lo; i < hi; {
		t, end := i&1, i+1
		if i >= m.split {
			t, end = m.tail, hi
		}
		if m.cm != nil {
			m.cm.StepColumns(cols, i, end, &m.per[t])
		} else {
			for j := i; j < end; j++ {
				_, ev := m.inner.Step(cols.Record(j))
				m.per[t].Note(ev)
			}
		}
		i = end
	}
}

// Core is a single simulated OoO core: one BPU model and one cache
// hierarchy that persist across runs.
type Core struct {
	cfg Config
	mem *cache.Hierarchy
	bpu sim.Model
}

// New builds a core around a BPU model with a fresh Table IV cache
// hierarchy.
func New(cfg Config, bpuModel sim.Model) *Core {
	return &Core{cfg: cfg, mem: cache.TableIVHierarchy(), bpu: bpuModel}
}

// Hierarchy exposes the cache hierarchy (tests inspect hit rates).
func (c *Core) Hierarchy() *cache.Hierarchy { return c.mem }

// Run executes a trace through the core and returns timing + branch
// statistics.
func (c *Core) Run(tr *trace.Trace) Result {
	res, _ := c.RunCtx(context.Background(), tr)
	return res
}

// RunCtx is Run with cancellation: it aborts with ctx.Err() when the
// context is canceled mid-trace.
func (c *Core) RunCtx(ctx context.Context, tr *trace.Trace) (Result, error) {
	rs, err := runColumns(ctx, c.cfg, c.mem, []sim.Model{c.bpu}, trace.FromTrace(tr))
	if err != nil {
		return Result{}, err
	}
	return rs[0], nil
}

// RunSMT co-runs two traces on one core in SMT mode (see RunSMTColumns).
func (c *Core) RunSMT(a, b *trace.Trace) SMTResult {
	res, _ := c.RunSMTCtx(context.Background(), a, b)
	return res
}

// RunSMTCtx is RunSMT with cancellation: it aborts with ctx.Err() when the
// context is canceled mid-co-run.
func (c *Core) RunSMTCtx(ctx context.Context, a, b *trace.Trace) (SMTResult, error) {
	rs, err := runSMTColumns(ctx, c.cfg, c.mem, []sim.Model{c.bpu}, trace.FromTrace(a), trace.FromTrace(b))
	if err != nil {
		return SMTResult{}, err
	}
	return rs[0], nil
}
