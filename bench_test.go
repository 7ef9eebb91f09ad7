package stbpu

// Benchmark harness: one benchmark per paper table/figure (DESIGN.md §4)
// plus the ablations of §5. Benchmarks run at a reduced scale and publish
// their headline numbers via b.ReportMetric; `cmd/stbpu-bench` regenerates
// the complete tables at full scale.

import (
	"testing"

	"stbpu/internal/analysis"
	"stbpu/internal/attacks"
	"stbpu/internal/bpu"
	"stbpu/internal/core"
	"stbpu/internal/experiments"
	"stbpu/internal/remap"
	"stbpu/internal/rng"
	"stbpu/internal/sim"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

func benchScale() experiments.Scale {
	return experiments.Scale{Records: 30_000, MaxWorkloads: 6, MaxPairs: 4}
}

// BenchmarkFig3_OAE regenerates the Fig. 3 comparison (overall effective
// accuracy of baseline, µcode-1/2, conservative, STBPU) at bench scale.
func BenchmarkFig3_OAE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig3(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.AvgNormalized[1], "ucode1_norm_oae")
		b.ReportMetric(res.AvgNormalized[2], "ucode2_norm_oae")
		b.ReportMetric(res.AvgNormalized[3], "conservative_norm_oae")
		b.ReportMetric(res.AvgNormalized[4], "stbpu_norm_oae")
	}
}

// BenchmarkFig4_SingleWorkload regenerates Fig. 4 (direction/target
// prediction reductions and normalized IPC of the four ST models).
func BenchmarkFig4_SingleWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig4(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var ipc, dir float64
		for _, c := range res.Avg {
			ipc += c.NormIPC / 4
			dir += c.DirReduction / 4
		}
		b.ReportMetric(ipc, "avg_norm_ipc")
		b.ReportMetric(dir*100, "avg_dir_reduction_pp")
	}
}

// BenchmarkFig5_SMT regenerates Fig. 5 (SMT pairs, harmonic-mean IPC).
func BenchmarkFig5_SMT(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig5(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		var ipc float64
		for _, c := range res.Avg {
			ipc += c.NormIPC / 4
		}
		b.ReportMetric(ipc, "avg_norm_hm_ipc")
	}
}

// BenchmarkFig6_AggressiveRerand regenerates the Fig. 6 threshold sweep.
func BenchmarkFig6_AggressiveRerand(b *testing.B) {
	s := benchScale()
	s.MaxPairs = 2
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunFig6(s, []float64{5e-2, 5e-4, 2e-6})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.Points[0].Accuracy, "acc_at_r5e-2")
		b.ReportMetric(res.Points[len(res.Points)-1].Accuracy, "acc_at_extreme_r")
	}
}

// BenchmarkTableV_AttackComplexities evaluates the §VI-A.5 closed-form
// attack complexities and the Γ = r·C thresholds.
func BenchmarkTableV_AttackComplexities(b *testing.B) {
	var misp, evict float64
	for i := 0; i < b.N; i++ {
		misp, evict = analysis.Thresholds(token.DefaultR)
	}
	b.ReportMetric(misp, "misp_threshold")
	b.ReportMetric(evict, "evict_threshold")
	b.ReportMetric(analysis.ReuseBTBMispredictions(analysis.SkylakeBTB()), "btb_reuse_misp")
}

// BenchmarkTableI_AttackSurface runs the Table I attack drivers against
// both models and reports the STBPU hold rate.
func BenchmarkTableI_AttackSurface(b *testing.B) {
	for i := 0; i < b.N; i++ {
		baseWins, stBlocks := 0, 0
		base := []attacks.Result{
			attacks.BTBReuseSideChannel(attacks.NewBaselineTarget(), 100),
			attacks.BranchScope(attacks.NewBaselineTarget(), true, 100),
			attacks.SameAddressSpaceCollision(attacks.NewBaselineTarget(), 16),
			attacks.SpectreV2(attacks.NewBaselineTarget(), 4),
			attacks.SpectreRSB(attacks.NewBaselineTarget(), 4),
		}
		for _, r := range base {
			if r.Succeeded {
				baseWins++
			}
		}
		st := []attacks.Result{
			attacks.BTBReuseSideChannel(attacks.NewSTBPUTarget(nil), 20_000),
			attacks.SameAddressSpaceCollision(attacks.NewSTBPUTarget(nil), 5_000),
			attacks.SpectreV2(attacks.NewSTBPUTarget(nil), 2_000),
			attacks.SpectreRSB(attacks.NewSTBPUTarget(nil), 2_000),
		}
		for _, r := range st {
			if !r.Succeeded {
				stBlocks++
			}
		}
		b.ReportMetric(float64(baseWins), "baseline_attacks_succeed")
		b.ReportMetric(float64(stBlocks), "stbpu_attacks_blocked")
	}
}

// BenchmarkTableII_RemapFunctions measures the shipped remapping functions:
// generated-circuit evaluation cost vs the fast mixer.
func BenchmarkTableII_RemapFunctions(b *testing.B) {
	set, err := remap.DefaultCircuitSet()
	if err != nil {
		b.Fatal(err)
	}
	mixer := remap.NewMixer()
	b.Run("circuit_R1", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			ind, _, _ := set.R1(0x1234, uint64(i)*64)
			sink += ind
		}
		_ = sink
	})
	b.Run("mixer_R1", func(b *testing.B) {
		var sink uint32
		for i := 0; i < b.N; i++ {
			ind, _, _ := mixer.R1(0x1234, uint64(i)*64)
			sink += ind
		}
		_ = sink
	})
}

// BenchmarkRemapGenerator measures the §V-A automated circuit search.
func BenchmarkRemapGenerator(b *testing.B) {
	for i := 0; i < b.N; i++ {
		cfg := remap.GenConfig{Name: "R1", InBits: 80, OutBits: 22,
			Candidates: 1, Samples: 64, Seed: uint64(i) + 1}
		if _, _, err := remap.Generate(cfg); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations (DESIGN.md §5) -----------------------------------------------

// BenchmarkAblation_RemapBackends compares simulation accuracy under the
// bit-accurate circuits vs the fast mixer: the accuracy deltas must be
// noise while the speed difference motivates the default.
func BenchmarkAblation_RemapBackends(b *testing.B) {
	tr, err := GenerateWorkload("505.mcf", 20_000)
	if err != nil {
		b.Fatal(err)
	}
	set, err := remap.DefaultCircuitSet()
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		mixerModel := &sim.STBPUModel{Inner: core.NewModel(core.ModelConfig{Dir: SKLCond, Seed: 3})}
		circModel := &sim.STBPUModel{Inner: core.NewModel(core.ModelConfig{Dir: SKLCond, Seed: 3, Funcs: set})}
		a := sim.Run(mixerModel, tr)
		c := sim.Run(circModel, tr)
		b.ReportMetric(a.OAE(), "mixer_oae")
		b.ReportMetric(c.OAE(), "circuit_oae")
	}
}

// BenchmarkAblation_TageThresholdRegister toggles the dedicated TAGE
// misprediction register (§VII-B2): without it, tagged-bank mispredictions
// drain the main budget and re-randomizations multiply.
func BenchmarkAblation_TageThresholdRegister(b *testing.B) {
	tr, err := GenerateWorkload("531.deepsjeng", 30_000)
	if err != nil {
		b.Fatal(err)
	}
	off := false
	for i := 0; i < b.N; i++ {
		with := core.NewModel(core.ModelConfig{Dir: TAGE64, Seed: 5})
		without := core.NewModel(core.ModelConfig{Dir: TAGE64, Seed: 5, SeparateTageRegister: &off})
		for _, rec := range tr.Records {
			with.Step(rec)
			without.Step(rec)
		}
		b.ReportMetric(float64(with.Rerandomizations()), "rerand_with_register")
		b.ReportMetric(float64(without.Rerandomizations()), "rerand_without_register")
	}
}

// feistelMapper is the §V ablation cipher: a 4-round Feistel network over
// the 32-bit stored target, standing in for PRINCE-class lightweight
// ciphers. Stronger than XOR, and — per the paper's argument — pointless:
// the attacker never sees ciphertext, so security does not improve, while
// hardware latency would.
type feistelMapper struct {
	bpu.LegacyMapper
	keys [4]uint16
}

func (f *feistelMapper) round(v uint32, k uint16) uint32 {
	l, r := uint16(v>>16), uint16(v)
	fOut := r ^ k
	fOut = fOut<<5 | fOut>>11
	fOut *= 0x9e37
	return uint32(r)<<16 | uint32(l^fOut)
}

func (f *feistelMapper) EncryptTarget(t uint32) uint32 {
	for _, k := range f.keys {
		t = f.round(t, k)
	}
	return t
}

func (f *feistelMapper) DecryptTarget(t uint32) uint32 {
	for i := len(f.keys) - 1; i >= 0; i-- {
		l, r := uint16(t>>16), uint16(t)
		fOut := l ^ f.keys[i]
		fOut = fOut<<5 | fOut>>11
		fOut *= 0x9e37
		t = uint32(r^fOut)<<16 | uint32(l)
	}
	return t
}

// BenchmarkAblation_TargetCipher compares XOR target encryption against the
// Feistel alternative: identical prediction accuracy, higher compute cost.
func BenchmarkAblation_TargetCipher(b *testing.B) {
	tr, err := GenerateWorkload("525.x264", 20_000)
	if err != nil {
		b.Fatal(err)
	}
	b.Run("xor", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			m := &sim.UnitModel{ModelName: "xor", Unit: core.NewUnprotectedUnit(SKLCond)}
			b.ReportMetric(sim.Run(m, tr).OAE(), "oae")
		}
	})
	b.Run("feistel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			fm := &feistelMapper{keys: [4]uint16{0x1a2b, 0x3c4d, 0x5e6f, 0x7081}}
			u := bpu.NewUnit(bpu.UnitConfig{Mapper: fm})
			m := &sim.UnitModel{ModelName: "feistel", Unit: u}
			b.ReportMetric(sim.Run(m, tr).OAE(), "oae")
		}
	})
	b.Run("xor_op", func(b *testing.B) {
		var k core.DirKind
		_ = k
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink ^= uint32(i) ^ 0xdeadbeef
		}
		_ = sink
	})
	b.Run("feistel_op", func(b *testing.B) {
		fm := &feistelMapper{keys: [4]uint16{0x1a2b, 0x3c4d, 0x5e6f, 0x7081}}
		var sink uint32
		for i := 0; i < b.N; i++ {
			sink ^= fm.EncryptTarget(uint32(i))
		}
		_ = sink
	})
}

// BenchmarkAblation_RerandVsFlush compares STBPU's event-driven token
// re-randomization against flushing at the same trigger points — the
// design choice §IV-A motivates (re-randomizing one entity keeps every
// other entity's history intact).
func BenchmarkAblation_RerandVsFlush(b *testing.B) {
	tr, err := GenerateWorkload("mysql_128con_50s", 30_000)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		st := sim.New(sim.KindSTBPU, sim.Options{SharedTokens: true, Seed: 9})
		fl := sim.New(sim.KindUcode2, sim.Options{Seed: 9})
		b.ReportMetric(sim.Run(st, tr).OAE(), "rerand_oae")
		b.ReportMetric(sim.Run(fl, tr).OAE(), "flush_oae")
	}
}

// BenchmarkSimulatorThroughput measures raw model stepping speed.
func BenchmarkSimulatorThroughput(b *testing.B) {
	tr, err := GenerateWorkload("505.mcf", 100_000)
	if err != nil {
		b.Fatal(err)
	}
	m := NewProtected(Config{Predictor: SKLCond, Seed: 1})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Step(tr.Records[i%len(tr.Records)])
	}
}

// BenchmarkTokenManager measures token lookup/re-randomization cost.
func BenchmarkTokenManager(b *testing.B) {
	mgr := token.NewManager(1, token.Derive(0.05))
	r := rng.New(2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mgr.OnMisprediction(uint64(r.Intn(64)))
	}
}

// BenchmarkTraceGeneration measures synthetic workload synthesis.
func BenchmarkTraceGeneration(b *testing.B) {
	p, err := trace.Preset("502.gcc")
	if err != nil {
		b.Fatal(err)
	}
	p = p.WithRecords(50_000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := trace.Generate(p); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkComparison_Defenses runs the §VIII related-work head-to-head:
// normalized OAE of BRB, BSUP, Zhao-DAC21, Exynos-XOR vs baseline and
// STBPU, plus the attack-outcome matrix.
func BenchmarkComparison_Defenses(b *testing.B) {
	for i := 0; i < b.N; i++ {
		acc, err := experiments.RunDefenseAccuracy(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		for k, name := range acc.Models {
			if name == "baseline" {
				continue
			}
			b.ReportMetric(acc.AvgNormalized[k], name+"_norm_oae")
		}
		matrix := experiments.RunDefenseMatrix()
		open := 0
		for a := range matrix.Attacks {
			for m := range matrix.Models {
				if matrix.Cells[a][m].Succeeded {
					open++
				}
			}
		}
		b.ReportMetric(float64(open), "open_cells")
	}
}

// BenchmarkCovertChannel measures the PHT covert channel on the defense
// lineup: capacity ≈ 1 bit/symbol on the baseline, ≈ 0 under STBPU.
func BenchmarkCovertChannel(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res := experiments.RunCovertComparison(256)
		if base, ok := res.Row("baseline"); ok {
			b.ReportMetric(base.Capacity, "baseline_bits/sym")
			b.ReportMetric(base.Bandwidth, "baseline_bits/krec")
		}
		if st, ok := res.Row("STBPU"); ok {
			b.ReportMetric(st.Capacity, "stbpu_bits/sym")
		}
	}
}

// BenchmarkSecurity_GammaSweep reports the security side of the Fig. 6
// threshold sweep: per-epoch attack success probability and epochs-to-50%
// as r shrinks (the performance side is BenchmarkFig6_AggressiveRerand).
func BenchmarkSecurity_GammaSweep(b *testing.B) {
	rs := []float64{0.05, 0.005, 5e-4, 5e-5, 5e-6, 5e-7}
	for i := 0; i < b.N; i++ {
		rows := analysis.GammaSweep(rs)
		b.ReportMetric(rows[0].EpochSuccess, "epoch_success_r0.05")
		b.ReportMetric(rows[0].EpochsFor50, "epochs_to_50pct_r0.05")
		b.ReportMetric(rows[len(rows)-1].EpochsFor50, "epochs_to_50pct_r5e-7")
	}
}

// BenchmarkExtension_ITTAGE backs the §IV generality claim on the
// indirect side: a dedicated ITTAGE target predictor, unprotected vs
// ST-protected, against the BTB-only configurations.
func BenchmarkExtension_ITTAGE(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunITTAGE(benchScale())
		if err != nil {
			b.Fatal(err)
		}
		names := experiments.ITTAGEVariants()
		for v, n := range names {
			b.ReportMetric(res.AvgTargetRate[v], n+"_target_rate")
		}
	}
}

// BenchmarkWarmupCurve measures the warm-state mechanism behind the
// Fig. 3 magnitude caveat: the flushing models' normalized OAE falls as
// traces lengthen (more history to lose per flush), STBPU's stays flat.
func BenchmarkWarmupCurve(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := experiments.RunWarmup("mysql_128con_50s", []int{10_000, 40_000, 120_000})
		if err != nil {
			b.Fatal(err)
		}
		first, last := res.Points[0], res.Points[len(res.Points)-1]
		b.ReportMetric(first.NormOAE[1], "ucode1_norm_oae_10k")
		b.ReportMetric(last.NormOAE[1], "ucode1_norm_oae_120k")
		b.ReportMetric(last.NormOAE[4], "stbpu_norm_oae_120k")
	}
}
