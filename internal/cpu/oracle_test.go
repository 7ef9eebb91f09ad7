package cpu

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/cache"
	"stbpu/internal/core"
	"stbpu/internal/defenses"
	"stbpu/internal/sim"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// The oracle below is the analytic core as a single per-record loop:
// memory accesses, the branch's Step, and both penalties interleaved
// record by record. The two-term engine must reproduce it exactly.

// oracleRun is the per-record single-thread loop.
func oracleRun(cfg Config, h *cache.Hierarchy, m sim.Model, tr *trace.Trace) Result {
	res := Result{Workload: tr.Name, Model: m.Name()}
	var cycles, instrs uint64
	robOverlap := uint64(cfg.ROB / cfg.Width)
	for i, rec := range tr.Records {
		hh := recHash(rec, i)
		block := 1 + int(hh%uint64(2*cfg.InstrPerBranch))
		instrs += uint64(block) + 1
		cycles += uint64((block + cfg.Width - 1) / cfg.Width)
		if il := h.AccessInstr(rec.PC); il > 4 {
			cycles += uint64(il) / 2
		}
		nLoads := int(float64(block) * cfg.LoadFrac)
		pendingStall := uint64(0)
		for l := 0; l < nLoads; l++ {
			lat := uint64(h.AccessData(loadAddr(cfg.DataFootprint, hh, l)))
			if lat > robOverlap {
				pendingStall += (lat - robOverlap) / 2
			}
		}
		cycles += pendingStall
		_, ev := m.Step(rec)
		oracleNote(&res.Branch, ev)
		if ev.Mispredict {
			cycles += uint64(cfg.MispredictPenalty)
		} else if ev.BTBMiss {
			cycles += uint64(cfg.BTBMissPenalty)
		}
	}
	res.Branch.Records = len(tr.Records)
	res.Instructions = instrs
	res.Cycles = cycles
	return res
}

// oracleRunSMT is the per-record round-robin SMT loop.
func oracleRunSMT(cfg Config, h *cache.Hierarchy, m sim.Model, a, b *trace.Trace) SMTResult {
	res := SMTResult{Workloads: [2]string{a.Name, b.Name}, Model: m.Name()}
	res.PerThread[0] = Result{Workload: a.Name, Model: m.Name()}
	res.PerThread[1] = Result{Workload: b.Name, Model: m.Name()}
	robOverlap := uint64(cfg.ROB / cfg.Width / 2)
	traces := [2]*trace.Trace{a, b}
	idx := [2]int{}
	var cycles uint64
	for idx[0] < len(a.Records) || idx[1] < len(b.Records) {
		for t := 0; t < 2; t++ {
			if idx[t] >= len(traces[t].Records) {
				continue
			}
			rec := traces[t].Records[idx[t]]
			if t == 1 {
				rec.PID += 1 << 16
				rec.Program += 1 << 12
			}
			i := idx[t]
			idx[t]++
			hh := recHash(rec, i)
			block := 1 + int(hh%uint64(2*cfg.InstrPerBranch))
			th := &res.PerThread[t]
			th.Instructions += uint64(block) + 1
			cycles += uint64((block + cfg.Width - 1) / cfg.Width)
			if il := h.AccessInstr(rec.PC); il > 4 {
				cycles += uint64(il) / 2
			}
			nLoads := int(float64(block) * cfg.LoadFrac)
			for l := 0; l < nLoads; l++ {
				lat := uint64(h.AccessData(loadAddr(cfg.DataFootprint, hh, l)))
				if lat > robOverlap {
					cycles += (lat - robOverlap) / 2
				}
			}
			_, ev := m.Step(rec)
			oracleNote(&th.Branch, ev)
			if ev.Mispredict {
				cycles += uint64(cfg.MispredictPenalty)
			} else if ev.BTBMiss {
				cycles += uint64(cfg.BTBMissPenalty)
			}
		}
	}
	res.Cycles = cycles
	res.PerThread[0].Cycles = cycles
	res.PerThread[1].Cycles = cycles
	res.PerThread[0].Branch.Records = len(a.Records)
	res.PerThread[1].Branch.Records = len(b.Records)
	return res
}

func oracleNote(r *sim.Result, ev bpu.Events) {
	var c bpu.Counters
	c.Note(ev)
	r.Mispredicts += c.Mispredicts
	r.Conds += c.Conds
	r.DirCorrect += c.DirCorrect
	r.TargetKnown += c.TargetKnown
	r.TargetCorrect += c.TargetCorrect
	r.Evictions += c.Evictions
	r.BTBMisses += c.BTBMisses
}

// randomTrace builds n records over a small PC pool (so predictors and
// caches hit), with every branch kind, PID and kernel churn, and
// Program values at and above 0xF000 so thread 1's +1<<12 offset wraps.
func randomTrace(rng *rand.Rand, name string, n int) *trace.Trace {
	pcs := make([]uint64, 64+rng.Intn(512))
	for i := range pcs {
		pcs[i] = rng.Uint64() & trace.VAMask &^ 3
	}
	progs := []uint16{0, 1, 0xEFFF, 0xF000, 0xFFFF}
	tr := &trace.Trace{Name: name, Records: make([]trace.Record, n)}
	for i := range tr.Records {
		pc := pcs[rng.Intn(len(pcs))]
		k := trace.Kind(rng.Intn(6))
		r := trace.Record{
			PC:      pc,
			Target:  (pc + uint64(rng.Intn(4096))*4) & trace.VAMask,
			Kind:    k,
			Taken:   true,
			PID:     uint32(rng.Intn(4)) + uint32(rng.Intn(2))*0xFFFF_0000,
			Program: progs[rng.Intn(len(progs))],
			Kernel:  rng.Intn(8) == 0,
		}
		if k == trace.KindCond {
			r.Taken = rng.Intn(3) != 0
			if !r.Taken {
				r.Target = r.FallThrough()
			}
		}
		tr.Records[i] = r
	}
	return tr
}

// oracleModels lists every model kind the timing figures and the Fig. 3
// lineup use: the five Fig. 3 models, and each Fig. 4 direction
// predictor unprotected and under STBPU. Thresholds are small enough
// that re-randomizations fire on short traces. One defense model, which
// has only Step, covers the engine's per-record fallback.
func oracleModels() map[string]func() sim.Model {
	th := token.Thresholds{Mispredictions: 40, Evictions: 25, TageMispredictions: 30}
	out := map[string]func() sim.Model{}
	for _, kind := range sim.Fig3Kinds() {
		out[kind.String()] = func() sim.Model {
			return sim.New(kind, sim.Options{Thresholds: &th, Seed: 7, SharedTokens: kind == sim.KindSTBPU})
		}
	}
	for _, dir := range []core.DirKind{core.DirPerceptron, core.DirSKLCond, core.DirTAGE64, core.DirTAGE8} {
		out["base_"+dir.String()] = func() sim.Model {
			return &sim.UnitModel{ModelName: dir.String(), Unit: core.NewUnprotectedUnit(dir)}
		}
		out["st_"+dir.String()] = func() sim.Model {
			return &sim.STBPUModel{Inner: core.NewModel(core.ModelConfig{Dir: dir, Thresholds: &th, Seed: 11})}
		}
	}
	out["defense_"+defenses.KindBSUP.String()] = func() sim.Model {
		return defenses.New(defenses.KindBSUP, defenses.Options{Seed: 13})
	}
	return out
}

func sameHierarchy(t *testing.T, what string, got, want *cache.Hierarchy) {
	t.Helper()
	for i, pair := range [][2]*cache.Cache{{got.L1I, want.L1I}, {got.L1D, want.L1D}, {got.L2, want.L2}, {got.LLC, want.LLC}} {
		if pair[0].Hits != pair[1].Hits || pair[0].Misses != pair[1].Misses {
			t.Errorf("%s: cache level %d hits/misses %d/%d, oracle %d/%d",
				what, i, pair[0].Hits, pair[0].Misses, pair[1].Hits, pair[1].Misses)
		}
	}
}

func sameResult(t *testing.T, what string, got, want Result) {
	t.Helper()
	g, w := got.Branch, want.Branch
	if got.Workload != want.Workload || got.Model != want.Model ||
		got.Instructions != want.Instructions || got.Cycles != want.Cycles ||
		g.Records != w.Records || g.Mispredicts != w.Mispredicts ||
		g.Conds != w.Conds || g.DirCorrect != w.DirCorrect ||
		g.TargetKnown != w.TargetKnown || g.TargetCorrect != w.TargetCorrect ||
		g.Evictions != w.Evictions || g.BTBMisses != w.BTBMisses {
		t.Errorf("%s:\n got %+v\nwant %+v", what, got, want)
	}
}

// TestTwoTermEngineMatchesOracle is the property test of the separable
// timing model: on random traces, for every model kind, single-thread
// and SMT (unequal lengths both ways, empty threads, Program wrap), the
// memory-term + branch-term engine equals the per-record loop in
// instructions, cycles, per-thread branch counters and cache hit/miss
// counts — for Core (also across a second run on the warm core) and for
// the multi-model RunColumns/RunSMTColumns the figures use.
func TestTwoTermEngineMatchesOracle(t *testing.T) {
	models := oracleModels()
	rng := rand.New(rand.NewSource(20261017))
	cfgs := []Config{TableIVConfig(), ConfigFor("505.mcf"), ConfigFor("exchange2")}
	trials := 6
	if testing.Short() {
		trials = 2
	}
	ctx := context.Background()
	var rerands uint64
	for trial := 0; trial < trials; trial++ {
		cfg := cfgs[trial%len(cfgs)]
		lens := [2]int{rng.Intn(6000), rng.Intn(6000)}
		if trial == 1 {
			lens[0] = 0
		}
		a := randomTrace(rng, "a", lens[0])
		b := randomTrace(rng, "b", lens[1])
		var names []string
		var multi []sim.Model
		var single []Result
		var smtRes []SMTResult
		for name, mk := range models {
			what := fmt.Sprintf("trial %d %s", trial, name)

			oh := cache.TableIVHierarchy()
			om := mk()
			want1 := oracleRun(cfg, oh, om, b)
			want2 := oracleRun(cfg, oh, om, a) // second run on the warm core
			c := New(cfg, mk())
			sameResult(t, what+" run 1", c.Run(b), want1)
			sameResult(t, what+" run 2", c.Run(a), want2)
			sameHierarchy(t, what+" single", c.Hierarchy(), oh)
			if st, ok := om.(*sim.STBPUModel); ok {
				rerands += st.Inner.Rerandomizations()
			}

			oh = cache.TableIVHierarchy()
			wantSMT := oracleRunSMT(cfg, oh, mk(), a, b)
			c = New(cfg, mk())
			got := c.RunSMT(a, b)
			if got.Cycles != wantSMT.Cycles || got.Workloads != wantSMT.Workloads || got.Model != wantSMT.Model {
				t.Errorf("%s SMT: cycles %d, oracle %d", what, got.Cycles, wantSMT.Cycles)
			}
			for th := 0; th < 2; th++ {
				sameResult(t, fmt.Sprintf("%s SMT thread %d", what, th), got.PerThread[th], wantSMT.PerThread[th])
			}
			sameHierarchy(t, what+" SMT", c.Hierarchy(), oh)

			names = append(names, name)
			multi = append(multi, mk())
			single = append(single, oracleRun(cfg, cache.TableIVHierarchy(), mk(), a))
			smtRes = append(smtRes, oracleRunSMT(cfg, cache.TableIVHierarchy(), mk(), b, a))
		}
		rs, err := RunColumns(ctx, cfg, multi, trace.FromTrace(a))
		if err != nil {
			t.Fatal(err)
		}
		for i := range multi {
			multi[i] = models[names[i]]()
		}
		smtGot, err := RunSMTColumns(ctx, cfg, multi, trace.FromTrace(b), trace.FromTrace(a))
		if err != nil {
			t.Fatal(err)
		}
		for i, name := range names {
			sameResult(t, fmt.Sprintf("trial %d RunColumns %s", trial, name), rs[i], single[i])
			if smtGot[i].Cycles != smtRes[i].Cycles {
				t.Errorf("trial %d RunSMTColumns %s: cycles %d, oracle %d", trial, name, smtGot[i].Cycles, smtRes[i].Cycles)
			}
			for th := 0; th < 2; th++ {
				sameResult(t, fmt.Sprintf("trial %d RunSMTColumns %s thread %d", trial, name, th),
					smtGot[i].PerThread[th], smtRes[i].PerThread[th])
			}
		}
	}
	if rerands == 0 {
		t.Error("no STBPU model re-randomized: the thresholds no longer exercise token changes")
	}
}

// TestMemoryTermCancellation pins the engine's cancellation contract: a
// canceled context fails both terms with ctx.Err().
func TestMemoryTermCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	cols := trace.FromTrace(randomTrace(rand.New(rand.NewSource(1)), "a", 100))
	if _, err := memoryTerm(ctx, TableIVConfig(), cache.TableIVHierarchy(), cols, nil); err != context.Canceled {
		t.Errorf("memoryTerm: err %v, want context.Canceled", err)
	}
	if _, err := RunSMTColumns(ctx, TableIVConfig(), []sim.Model{baselineModel(core.DirSKLCond)}, cols, cols); err != context.Canceled {
		t.Errorf("RunSMTColumns: err %v, want context.Canceled", err)
	}
	if _, err := New(TableIVConfig(), baselineModel(core.DirSKLCond)).RunCtx(ctx, cols.Trace()); err != context.Canceled {
		t.Errorf("RunCtx: err %v, want context.Canceled", err)
	}
}
