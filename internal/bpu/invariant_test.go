package bpu_test

import (
	"fmt"
	"math/rand"
	"testing"

	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/defenses"
	"stbpu/internal/sim"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// invariantModels covers every mapper (legacy, STBPU keyed, the
// conservative entity salt, each defense's addressing) and every
// direction predictor, with and without the ITTAGE indirect predictor.
func invariantModels() map[string]sim.Model {
	th := token.Thresholds{Mispredictions: 50, Evictions: 30, TageMispredictions: 40}
	dirs := []core.DirKind{core.DirSKLCond, core.DirTAGE8, core.DirTAGE64, core.DirPerceptron}
	out := map[string]sim.Model{}
	for _, dir := range dirs {
		for _, kind := range sim.Fig3Kinds() {
			out[fmt.Sprintf("%s/%s", kind, dir)] = sim.New(kind, sim.Options{Dir: dir, Thresholds: &th, Seed: 3})
		}
		out["ittage/"+dir.String()] = &sim.UnitModel{ModelName: "ittage", Unit: core.NewUnprotectedUnitITTAGE(dir)}
		out["st-ittage/"+dir.String()] = &sim.STBPUModel{Inner: core.NewModel(core.ModelConfig{
			Dir: dir, IndirectITTAGE: true, Thresholds: &th, Seed: 5})}
	}
	for _, k := range defenses.Kinds() {
		out[k.String()] = defenses.New(k, defenses.Options{Seed: 9})
	}
	return out
}

// TestBTBMissImpliesMispredict pins the invariant the analytic CPU
// core's branch term relies on: a BTB miss (a taken branch with no
// predicted target) is always also a misprediction, so charging the
// misprediction penalty alone accounts for every BTB miss.
func TestBTBMissImpliesMispredict(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	pcs := make([]uint64, 300)
	for i := range pcs {
		pcs[i] = rng.Uint64() & trace.VAMask &^ 3
	}
	n := 10_000
	if testing.Short() {
		n = 2_000
	}
	recs := make([]trace.Record, n)
	for i := range recs {
		pc := pcs[rng.Intn(len(pcs))]
		k := trace.Kind(rng.Intn(6))
		r := trace.Record{
			PC:     pc,
			Target: (pc + uint64(rng.Intn(64))*64) & trace.VAMask,
			Kind:   k,
			Taken:  k != trace.KindCond || rng.Intn(2) == 0,
			PID:    uint32(rng.Intn(3)),
			Kernel: rng.Intn(10) == 0,
		}
		if !r.Taken {
			r.Target = r.FallThrough()
		}
		recs[i] = r
	}
	for name, m := range invariantModels() {
		var acc bpu.Counters
		for i, rec := range recs {
			_, ev := m.Step(rec)
			if ev.BTBMiss && !ev.Mispredict {
				t.Fatalf("%s record %d: BTB miss without a misprediction (%+v)", name, i, ev)
			}
			acc.Note(ev)
		}
		if acc.BTBMisses == 0 {
			t.Errorf("%s: no BTB misses, the invariant was not exercised", name)
		}
	}
}
