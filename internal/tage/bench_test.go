package tage

import (
	"testing"

	"stbpu/internal/remap"
	"stbpu/internal/rng"
)

// benchStream builds a deterministic PC/outcome stream with loopy,
// history-correlated behavior so the tagged banks, SC, and loop predictor
// all see realistic work.
func benchStream(n int) (pcs []uint64, taken []bool) {
	pcs = make([]uint64, n)
	taken = make([]bool, n)
	s := uint64(0xbadc0de)
	for i := range pcs {
		r := rng.SplitMix64(&s)
		pcs[i] = 0x400000 + (r%512)<<2
		// Mix of biased, history-correlated, and loop-like outcomes.
		switch pcs[i] % 3 {
		case 0:
			taken[i] = r>>8&7 != 0 // strongly taken
		case 1:
			taken[i] = i%7 != 6 // 7-iteration loop shape
		default:
			taken[i] = r>>16&1 == 1
		}
	}
	return pcs, taken
}

const benchMask = 1<<14 - 1

func benchPredictor(b *testing.B, cfg Config) (*Predictor, []uint64, []bool) {
	b.Helper()
	p := New(cfg)
	pcs, taken := benchStream(benchMask + 1)
	for i := 0; i < benchMask+1; i++ {
		p.Predict(pcs[i])
		p.Update(pcs[i], taken[i])
	}
	return p, pcs, taken
}

func BenchmarkPredict(b *testing.B) {
	for _, cfg := range []Config{Config8KB(), Config64KB()} {
		b.Run(cfg.Name, func(b *testing.B) {
			p, pcs, _ := benchPredictor(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Predict(pcs[i&benchMask])
			}
		})
	}
}

// BenchmarkUpdate measures the full predict/update pair — Update consumes
// the lookup Predict stashes, so the pair is the unit the replay loop pays
// per conditional branch.
func BenchmarkUpdate(b *testing.B) {
	for _, cfg := range []Config{Config8KB(), Config64KB()} {
		b.Run(cfg.Name, func(b *testing.B) {
			p, pcs, taken := benchPredictor(b, cfg)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Predict(pcs[i&benchMask])
				p.Update(pcs[i&benchMask], taken[i&benchMask])
			}
		})
	}
}

// mixerHasher keys every index through remap.Mixer the way the STBPU
// wrapper's key state does (Rt for the banks, R3 for the untagged
// tables), so benchmarks pay the keyed hash cost without importing the
// core package.
type mixerHasher struct{ psi uint32 }

func (h mixerHasher) BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	return remap.Mixer{}.Rt(h.psi, pc, fIdx^fTag<<13^uint64(bank)<<27, indexBits, tagBits)
}

func (h mixerHasher) TableIndex(pc uint64, fold uint64, bits uint) uint32 {
	return remap.Mixer{}.R3(h.psi, pc^(fold<<3)) & (1<<bits - 1)
}

// footprintPCs is the static-branch count of BenchmarkPredictUpdateFootprint:
// far more branches than the tagged banks hold, so lookups spread over
// whole tables instead of a few L1-resident lines.
const footprintPCs = 1 << 16

// BenchmarkPredictUpdateFootprint is the predict/update pair under a
// realistic footprint: 1<<16 distinct PCs through a keyed hasher. The
// 512-PC stream of BenchmarkUpdate stays in L1 and cannot see table
// layout or cache-miss costs; this one can.
func BenchmarkPredictUpdateFootprint(b *testing.B) {
	const n = 1 << 18
	pcs := make([]uint64, n)
	taken := make([]bool, n)
	s := uint64(0xf007_9e1e)
	for i := range pcs {
		r := rng.SplitMix64(&s)
		pcs[i] = 0x5555_0000_0000 + (r%footprintPCs)<<2
		switch pcs[i] >> 2 % 3 {
		case 0:
			taken[i] = r>>20&7 != 0
		case 1:
			taken[i] = i%7 != 6
		default:
			taken[i] = r>>40&1 == 1
		}
	}
	for _, cfg := range []Config{Config8KB(), Config64KB()} {
		cfg.Hasher = mixerHasher{psi: 0x2a5f_1c3d}
		p := New(cfg)
		for i := range pcs {
			p.Predict(pcs[i])
			p.Update(pcs[i], taken[i])
		}
		b.Run(cfg.Name, func(b *testing.B) {
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				j := i & (n - 1)
				p.Predict(pcs[j])
				p.Update(pcs[j], taken[j])
			}
		})
	}
}
