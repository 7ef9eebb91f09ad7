package core

import (
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"stbpu/internal/remap"
	"stbpu/internal/rng"
	"stbpu/internal/snap"
	"stbpu/internal/tage"
	"stbpu/internal/token"
	"stbpu/internal/trace"
)

// TestSnapshotFormatPinned pins the .snap encoding of a keyed STBPU: a
// TAGE-SC-L 64KB model (with ITTAGE) and a TAGE 8KB model are trained on
// a fixed trace, and the sha256 of the model state and of its keyed
// bpu.Unit must match the recorded constants. The encoding is an on-disk
// format: checkpoints spilled by older runs must stay valid, so a change
// here is a format break, not a refactor.
func TestSnapshotFormatPinned(t *testing.T) {
	tr := genTrace(t, "505.mcf", 30_000)
	// Budgets small enough that the stream re-keys the unit many times.
	th := token.Thresholds{Mispredictions: 400, Evictions: 300, TageMispredictions: 200}
	for _, tc := range []struct {
		cfg        ModelConfig
		model, bpu string
	}{
		{ModelConfig{Dir: DirTAGE64, IndirectITTAGE: true, Thresholds: &th},
			"54a40d0be4ea50d3cf7e1a675f4f1c2db32c2892695c38c1a9bbd9fcc674cd06",
			"e1bf24f472117d0064f377ce0017ef1fb08b5aab5400d36d3c3faf3a224f8bfe"},
		{ModelConfig{Dir: DirTAGE8, Thresholds: &th},
			"4f0d66bdebd80e644a4eea4e487031ec31b402481f151567c10a44793dbdca19",
			"e833f95af0e5a7645475c014670aacce485def5f31b3040d76e7589608d2128f"},
	} {
		m := NewModel(tc.cfg)
		t.Run(m.Name(), func(t *testing.T) {
			for _, rec := range tr.Records {
				m.Step(rec)
			}
			if m.Rerandomizations() == 0 {
				t.Error("stream never re-randomized a token; the pin would not cover re-keyed state")
			}
			w := snap.NewWriter(0)
			m.EncodeState(w)
			if got := sha(w.Bytes()); got != tc.model {
				t.Errorf("Model.EncodeState sha256 = %s, want %s", got, tc.model)
			}
			uw := snap.NewWriter(0)
			m.Unit().EncodeState(uw)
			if got := sha(uw.Bytes()); got != tc.bpu {
				t.Errorf("Unit.EncodeState sha256 = %s, want %s", got, tc.bpu)
			}
			// A fresh model restores the bytes and encodes them back.
			n := NewModel(tc.cfg)
			r := snap.NewReader(w.Bytes())
			n.DecodeState(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			nw := snap.NewWriter(0)
			n.EncodeState(nw)
			if got := sha(nw.Bytes()); got != tc.model {
				t.Errorf("decoded model re-encodes to %s, want %s", got, tc.model)
			}
		})
	}
}

func sha(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// TestKeyStateTableIndexMasksWide checks the tage.Hasher contracts the
// packed TAGE layout rests on — a narrow TableIndex is the low bits of a
// wide one, and BankIndexTag stays within its index and tag widths — for
// the keyed state over both remapping backends.
func TestKeyStateTableIndexMasksWide(t *testing.T) {
	// The hasher only evaluates R3 and Rt, so a set holding just those
	// two generated circuits exercises the circuit backend without
	// generating all six.
	r3, _, err := remap.Generate(remap.GenConfig{
		Name: "R3", InBits: remap.PsiBits + remap.SourceBits, OutBits: remap.PHTIndexBits,
		Candidates: 1, Samples: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	rt, _, err := remap.Generate(remap.GenConfig{
		Name: "Rt", InBits: remap.PsiBits + remap.SourceBits + remap.GHRBits,
		OutBits: remap.TageMaxIndexBits + remap.TageMaxTagBits, Candidates: 1, Samples: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	circuits := &remap.CircuitSet{R3c: r3, Rtc: rt}
	for _, tc := range []struct {
		name  string
		funcs remap.Funcs
	}{
		{"mixer", remap.NewMixer()},
		{"circuits", circuits},
	} {
		t.Run(tc.name, func(t *testing.T) {
			k := &keyState{funcs: tc.funcs, psi: 0x5ec2_e7a1, phi: 0x0bad_f00d}
			s := uint64(0x7ab1e)
			for n := 0; n < 500; n++ {
				pc := rng.SplitMix64(&s) & trace.VAMask
				fold := uint64(0)
				if n%2 == 1 {
					fold = rng.SplitMix64(&s) & 0x3ff
				}
				const wide = remap.PHTIndexBits
				w := k.TableIndex(pc, fold, wide)
				for b := uint(1); b <= wide; b++ {
					if got, want := k.TableIndex(pc, fold, b), w&(1<<b-1); got != want {
						t.Fatalf("TableIndex(%#x, %#x, %d) = %#x, want wide & mask = %#x", pc, fold, b, got, want)
					}
				}
				fTag := rng.SplitMix64(&s) & 0xfff
				for _, c := range []tage.Config{tage.Config8KB(), tage.Config64KB()} {
					for bank := range c.HistLens {
						idx, tag := k.BankIndexTag(pc, fold, fTag, bank, c.IndexBits, c.TagBits)
						if idx >= 1<<c.IndexBits || tag >= 1<<c.TagBits {
							t.Fatalf("%s bank %d: BankIndexTag(%#x, %#x, %#x) = (%#x, %#x), want < (1<<%d, 1<<%d)",
								c.Name, bank, pc, fold, fTag, idx, tag, c.IndexBits, c.TagBits)
						}
					}
				}
			}
		})
	}
}
