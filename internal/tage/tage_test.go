package tage

import (
	"testing"

	"stbpu/internal/rng"
	"stbpu/internal/trace"
)

// train runs pattern(i) through the predictor and returns accuracy over the
// last half (post-warmup).
func train(p *Predictor, n int, pattern func(i int) (pc uint64, taken bool)) float64 {
	correct, counted := 0, 0
	for i := 0; i < n; i++ {
		pc, taken := pattern(i)
		pred := p.Predict(pc)
		if i >= n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(pc, taken)
	}
	return float64(correct) / float64(counted)
}

func TestFoldedRegister(t *testing.T) {
	// A 10-outcome history folded to 4 bits.
	const origLen, compLen = 10, 4
	const outShift, mask = origLen % compLen, 1<<compLen - 1
	var val uint64
	// Push 10 ones then 10 zeros: after the zeros have fully displaced the
	// ones the register must return to its all-zero state.
	for i := 0; i < 10; i++ {
		val = foldIn(val, 1, 0, outShift, compLen, mask)
	}
	if val == 0 {
		t.Error("folded register ignored history")
	}
	hist := []uint64{1, 1, 1, 1, 1, 1, 1, 1, 1, 1}
	for i := 0; i < 10; i++ {
		val = foldIn(val, 0, hist[0], outShift, compLen, mask)
		hist = append(hist[1:], 0)
	}
	if val != 0 {
		t.Errorf("folded register did not return to zero: %#x", val)
	}
	if val >= 1<<compLen {
		t.Error("folded register exceeded width")
	}
}

func TestBiasedBranch(t *testing.T) {
	p := New(Config8KB())
	acc := train(p, 2000, func(i int) (uint64, bool) { return 0x401000, true })
	if acc < 0.99 {
		t.Errorf("biased accuracy %.3f", acc)
	}
}

func TestAlternatingPattern(t *testing.T) {
	p := New(Config8KB())
	acc := train(p, 2000, func(i int) (uint64, bool) { return 0x402000, i%2 == 0 })
	if acc < 0.95 {
		t.Errorf("alternating accuracy %.3f", acc)
	}
}

func TestLongPeriodLoop(t *testing.T) {
	// Period-40 loop: beyond SKLCond's GHR window; TAGE's long histories
	// (or the loop predictor) must capture it.
	p := New(Config64KB())
	acc := train(p, 8000, func(i int) (uint64, bool) { return 0x403000, i%40 != 39 })
	if acc < 0.95 {
		t.Errorf("period-40 loop accuracy %.3f", acc)
	}
}

func TestLoopPredictorDisabled(t *testing.T) {
	cfg := Config64KB()
	cfg.UseLoop = false
	p := New(cfg)
	// Must still work (accuracy may be lower on exact trip counts).
	acc := train(p, 8000, func(i int) (uint64, bool) { return 0x403000, i%8 != 7 })
	if acc < 0.80 {
		t.Errorf("no-loop accuracy %.3f", acc)
	}
}

func TestCorrelatedBranches(t *testing.T) {
	// Branch B's outcome equals branch A's previous outcome: pure history
	// correlation that a bimodal counter cannot learn.
	p := New(Config8KB())
	r := rng.New(9)
	lastA := false
	correct, counted := 0, 0
	const n = 6000
	for i := 0; i < n; i++ {
		a := r.Bool(0.5)
		p.Predict(0x500000)
		p.Update(0x500000, a)
		lastA = a
		pred := p.Predict(0x500100)
		taken := lastA
		if i > n/2 {
			counted++
			if pred == taken {
				correct++
			}
		}
		p.Update(0x500100, taken)
	}
	acc := float64(correct) / float64(counted)
	if acc < 0.9 {
		t.Errorf("correlated accuracy %.3f, want >= 0.9", acc)
	}
}

func TestBeatsBimodalOnHistoryPatterns(t *testing.T) {
	// Same workload through TAGE and a plain 2-bit counter: TAGE must win
	// decisively on history-driven branches.
	p := New(Config8KB())
	counters := map[uint64]int8{}
	r := rng.New(17)
	var ghist uint64
	tageCorrect, bimCorrect, total := 0, 0, 0
	const n = 8000
	for i := 0; i < n; i++ {
		pc := uint64(0x600000 + (i%4)*0x40)
		taken := (ghist>>1&1)^(ghist>>3&1) == 1
		if r.Bool(0.02) {
			taken = !taken
		}
		if p.Predict(pc) == taken {
			tageCorrect++
		}
		p.Update(pc, taken)
		c := counters[pc]
		if (c >= 0) == taken {
			bimCorrect++
		}
		if taken && c < 1 {
			counters[pc] = c + 1
		} else if !taken && c > -2 {
			counters[pc] = c - 1
		}
		ghist = ghist<<1 | b2u(taken)
		total++
	}
	tageAcc := float64(tageCorrect) / float64(total)
	bimAcc := float64(bimCorrect) / float64(total)
	if tageAcc < bimAcc+0.2 {
		t.Errorf("TAGE %.3f vs bimodal %.3f: expected clear win", tageAcc, bimAcc)
	}
}

func TestFlushClearsState(t *testing.T) {
	p := New(Config8KB())
	train(p, 1000, func(i int) (uint64, bool) { return 0x401000, true })
	p.Flush()
	if p.Predict(0x401000) {
		t.Error("flushed predictor should default to not-taken")
	}
	if p.TageMispredicts != 0 {
		// Flush does not reset the MSR-style counter; the token layer
		// owns it. Just document the behaviour.
		t.Log("TageMispredicts preserved across Flush (counter is MSR-owned)")
	}
}

func TestUpdateWithoutPredictRecovers(t *testing.T) {
	p := New(Config8KB())
	// Violating the stash contract must not corrupt state.
	p.Update(0x1234, true)
	p.Predict(0x1234)
}

func TestConfigsDiffer(t *testing.T) {
	small, large := Config8KB(), Config64KB()
	if len(small.HistLens) >= len(large.HistLens) {
		t.Error("64KB config should have more banks")
	}
	if small.IndexBits != 10 || small.TagBits != 8 {
		t.Errorf("8KB geometry %d/%d, want 10/8 (Table II)", small.IndexBits, small.TagBits)
	}
	if large.IndexBits != 13 || large.TagBits != 12 {
		t.Errorf("64KB geometry %d/%d, want 13/12 (Table II)", large.IndexBits, large.TagBits)
	}
}

func TestPanicsOnEmptyConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(Config{})
}

func Test64KBBeats8KBOnWideWorkload(t *testing.T) {
	// Many static branches with varied correlation: the larger tables
	// should hold more context.
	run := func(cfg Config) float64 {
		p := New(cfg)
		r := rng.New(33)
		var ghist uint64
		correct, total := 0, 0
		const n = 30000
		for i := 0; i < n; i++ {
			pc := uint64(0x400000 + r.Intn(512)*16)
			tap := pc >> 4 & 7
			taken := ghist>>tap&1 == 1
			pred := p.Predict(pc)
			if i > n/2 {
				total++
				if pred == taken {
					correct++
				}
			}
			p.Update(pc, taken)
			ghist = ghist<<1 | b2u(taken)
		}
		return float64(correct) / float64(total)
	}
	small := run(Config8KB())
	large := run(Config64KB())
	if large < small-0.02 {
		t.Errorf("64KB (%.3f) should not lose to 8KB (%.3f)", large, small)
	}
}

func TestOnSyntheticTrace(t *testing.T) {
	p, err := trace.Preset("505.mcf")
	if err != nil {
		t.Fatal(err)
	}
	tr, err := trace.Generate(p.WithRecords(120_000))
	if err != nil {
		t.Fatal(err)
	}
	pred := New(Config64KB())
	correct, total := 0, 0
	for _, rec := range tr.Records {
		if rec.Kind != trace.KindCond {
			continue
		}
		if pred.Predict(rec.PC) == rec.Taken {
			correct++
		}
		pred.Update(rec.PC, rec.Taken)
		total++
	}
	acc := float64(correct) / float64(total)
	// mcf is the hard class: a large fraction of its branches are
	// near-random by construction, and the live-system trace interleaves
	// a background process plus kernel bursts.
	if acc < 0.68 {
		t.Errorf("TAGE on mcf conditionals = %.3f", acc)
	}
}

func b2u(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

func BenchmarkPredictUpdate64KB(b *testing.B) {
	p := New(Config64KB())
	r := rng.New(1)
	pcs := make([]uint64, 1024)
	for i := range pcs {
		pcs[i] = 0x400000 + uint64(r.Intn(4096))*16
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pc := pcs[i%len(pcs)]
		taken := p.Predict(pc)
		p.Update(pc, !taken == (i%7 == 0))
	}
}
