package tage

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"testing"
	"unsafe"

	"stbpu/internal/rng"
	"stbpu/internal/snap"
)

// pinStream is a fixed predict/update stream over 4096 static branches:
// biased, loop-shaped and history-correlated outcomes, enough to fill the
// tagged banks, the loop table and the statistical corrector.
func pinStream(n int) (pcs []uint64, taken []bool) {
	pcs = make([]uint64, n)
	taken = make([]bool, n)
	s := uint64(0x5eed_7a9e)
	last := false
	for i := range pcs {
		r := rng.SplitMix64(&s)
		pcs[i] = 0x7f00_0040_0000 + (r%4096)<<2
		switch pcs[i] >> 2 % 4 {
		case 0:
			taken[i] = r>>20&15 != 0
		case 1:
			taken[i] = i%11 != 10
		case 2:
			taken[i] = last != (r>>33&7 == 0)
		default:
			taken[i] = r>>40&1 == 1
		}
		last = taken[i]
	}
	return pcs, taken
}

func stateSHA(p *Predictor) string {
	w := snap.NewWriter(0)
	p.EncodeState(w)
	sum := sha256.Sum256(w.Bytes())
	return hex.EncodeToString(sum[:])
}

// TestSnapshotFormatPinned pins the .snap encoding of trained TAGE-SC-L
// state: the sha256 of EncodeState after a fixed stream must not change,
// so checkpoints spilled by older runs stay valid. A change here is a
// format break, not a refactor.
func TestSnapshotFormatPinned(t *testing.T) {
	pcs, taken := pinStream(60000)
	for _, tc := range []struct {
		cfg  Config
		want string
	}{
		{Config8KB(), "59aa9ea0e23c66815d3facf8d6b09e2799735ec75f85004d132fcf96cff07e10"},
		{Config64KB(), "1b716fcb93063671cf734a712366815d6683e7ff2bf62391b8fe182063f48d32"},
	} {
		t.Run(tc.cfg.Name, func(t *testing.T) {
			p := New(tc.cfg)
			for i := range pcs {
				p.Predict(pcs[i])
				p.Update(pcs[i], taken[i])
			}
			if got := stateSHA(p); got != tc.want {
				t.Errorf("EncodeState sha256 = %s, want %s", got, tc.want)
			}
			// The encoding must also restore onto a fresh predictor and
			// encode back to the same bytes.
			w := snap.NewWriter(0)
			p.EncodeState(w)
			q := New(tc.cfg)
			r := snap.NewReader(w.Bytes())
			q.DecodeState(r)
			if err := r.Done(); err != nil {
				t.Fatal(err)
			}
			if got := stateSHA(q); got != tc.want {
				t.Errorf("decoded state re-encodes to %s, want %s", got, tc.want)
			}
		})
	}
}

// entryOffset is the byte offset of bank b's slot i in an EncodeState
// encoding: the length-prefixed bimodal table, the bank count, then per
// bank a length prefix and 7-byte slots (valid, uint32 tag, ctr, useful).
func entryOffset(cfg Config, b, i int) int {
	size := 1 << cfg.IndexBits
	return 4 + 1<<cfg.BimodalBits + 4 + b*(4+7*size) + 4 + 7*i
}

// TestDecodeStateRejectsUnrepresentableEntry forges one tagged-bank slot
// of a valid encoding. Values the packed entry holds exactly must
// restore; a tag of TagBits or more bits, a counter outside -4..3 or a
// usefulness above 3 must fail the decode rather than be truncated.
func TestDecodeStateRejectsUnrepresentableEntry(t *testing.T) {
	cfg := Config8KB()
	pcs, taken := pinStream(5000)
	p := New(cfg)
	for i := range pcs {
		p.Predict(pcs[i])
		p.Update(pcs[i], taken[i])
	}
	w := snap.NewWriter(0)
	p.EncodeState(w)
	good := w.Bytes()
	off := entryOffset(cfg, 2, 77)

	for _, tc := range []struct {
		name   string
		forge  func(e []byte)
		accept bool
	}{
		{"widest-tag", func(e []byte) { e[0] = 1; binary.LittleEndian.PutUint32(e[1:], 1<<cfg.TagBits-1) }, true},
		{"invalid-slot-with-fields", func(e []byte) { e[0] = 0; e[1], e[5], e[6] = 9, 0xfc, 3 }, true},
		{"ctr-bounds", func(e []byte) { e[0], e[5] = 1, 3 }, true},
		{"tag-too-wide", func(e []byte) { e[0] = 1; binary.LittleEndian.PutUint32(e[1:], 1<<cfg.TagBits) }, false},
		{"tag-bit31", func(e []byte) { binary.LittleEndian.PutUint32(e[1:], 1<<31) }, false},
		{"ctr-above", func(e []byte) { e[5] = 4 }, false},
		{"ctr-below", func(e []byte) { e[5] = 0xfb }, false}, // -5
		{"useful-above", func(e []byte) { e[6] = 4 }, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			forged := append([]byte(nil), good...)
			tc.forge(forged[off : off+7])
			q := New(cfg)
			r := snap.NewReader(forged)
			q.DecodeState(r)
			err := r.Done()
			if !tc.accept {
				if err == nil {
					t.Fatal("DecodeState accepted an entry the packed layout cannot hold")
				}
				return
			}
			if err != nil {
				t.Fatalf("DecodeState rejected a representable entry: %v", err)
			}
			// Accepted values survive the round trip byte for byte.
			w := snap.NewWriter(0)
			q.EncodeState(w)
			if !bytes.Equal(w.Bytes(), forged) {
				t.Error("re-encoded state differs from the decoded bytes")
			}
		})
	}
}

// TestEntryIsFourBytes pins the packed tagged-bank slot: tag with the
// valid bit folded in, counter and usefulness in four bytes.
func TestEntryIsFourBytes(t *testing.T) {
	if got := unsafe.Sizeof(entry{}); got != 4 {
		t.Errorf("unsafe.Sizeof(entry{}) = %d, want 4", got)
	}
}

// TestNewRejectsWideTags: a tag must leave bit 15 of the slot free for
// the valid flag.
func TestNewRejectsWideTags(t *testing.T) {
	cfg := Config64KB()
	cfg.TagBits = 15
	New(cfg) // the widest tag that fits
	cfg.TagBits = 16
	defer func() {
		if recover() == nil {
			t.Fatal("New accepted 16 tag bits")
		}
	}()
	New(cfg)
}

// TestLegacyTableIndexMasksWide checks the Hasher contracts the packed
// layout rests on: a narrow TableIndex is the low bits of a wide one,
// and BankIndexTag stays within its index and tag widths. The keyed
// hasher is checked in internal/core.
func TestLegacyTableIndexMasksWide(t *testing.T) {
	h := LegacyHasher{}
	s := uint64(0x3a5e)
	for n := 0; n < 2000; n++ {
		pc := rng.SplitMix64(&s) & (1<<48 - 1)
		fold := uint64(0)
		if n%2 == 1 {
			fold = rng.SplitMix64(&s) & (1<<scTableBits - 1)
		}
		const wide = 16
		w := h.TableIndex(pc, fold, wide)
		for b := uint(1); b <= wide; b++ {
			if got, want := h.TableIndex(pc, fold, b), w&(1<<b-1); got != want {
				t.Fatalf("TableIndex(%#x, %#x, %d) = %#x, want wide & mask = %#x", pc, fold, b, got, want)
			}
		}
		checkBankIndexTagRange(t, h, pc, fold, rng.SplitMix64(&s))
	}
}

// checkBankIndexTagRange fails t unless h.BankIndexTag returns idx <
// 1<<indexBits and tag < 1<<tagBits for every bank of both Table II
// geometries.
func checkBankIndexTagRange(t *testing.T, h Hasher, pc, fIdx, fTag uint64) {
	t.Helper()
	for _, c := range []Config{Config8KB(), Config64KB()} {
		for b := range c.HistLens {
			idx, tag := h.BankIndexTag(pc, fIdx, fTag, b, c.IndexBits, c.TagBits)
			if idx >= 1<<c.IndexBits || tag >= 1<<c.TagBits {
				t.Fatalf("%s bank %d: BankIndexTag(%#x, %#x, %#x) = (%#x, %#x), want < (1<<%d, 1<<%d)",
					c.Name, b, pc, fIdx, fTag, idx, tag, c.IndexBits, c.TagBits)
			}
		}
	}
}
