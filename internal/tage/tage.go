// Package tage implements the TAGE-SC-L conditional branch predictor
// (Seznec, CBP 2016) in the two configurations the paper evaluates in gem5
// (§VII-B2): an 8KB and a 64KB variant. The implementation covers the
// TAgged GEometric base predictor, the loop predictor (L), and a
// GEHL-style statistical corrector (SC).
//
// Index and tag computations flow through a Hasher so the STBPU wrapper
// (internal/core) can substitute the keyed Rt remapping function without
// touching prediction logic — the property STBPU relies on to stay
// predictor-agnostic (§II-A).
package tage

import (
	"fmt"

	"stbpu/internal/bpu"
)

// Hasher computes table indices and tags. LegacyHasher reproduces the
// standard TAGE folded-history hash; the ST wrapper substitutes keyed
// remapping.
type Hasher interface {
	// BankIndexTag maps (pc, folded histories, bank) to an index and tag
	// of the requested widths: idx < 1<<indexBits and tag < 1<<tagBits.
	// The predictor packs the bank and index into one slot number and the
	// tag under a valid bit, so a wider result would silently alias
	// another bank's slot or the valid bit rather than fail.
	BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32)
	// TableIndex maps pc (optionally mixed with folded history) to an
	// index for the untagged side structures (bimodal, SC, loop).
	//
	// A narrower index must be the low bits of a wider one:
	// TableIndex(pc, f, b) == TableIndex(pc, f, w) & (1<<b - 1) for every
	// b <= w. The predictor relies on this to serve the bimodal, loop and
	// unfolded SC lookups of a branch from one hash at the widest width.
	TableIndex(pc uint64, fold uint64, bits uint) uint32
}

// LegacyHasher is the unprotected deterministic hash of standard TAGE.
type LegacyHasher struct{}

var _ Hasher = LegacyHasher{}

// BankIndexTag implements Hasher.
func (LegacyHasher) BankIndexTag(pc uint64, fIdx, fTag uint64, bank int, indexBits, tagBits uint) (idx, tag uint32) {
	h := pc ^ (pc >> (indexBits - uint(bank)&7)) ^ fIdx
	idx = uint32(h) & (1<<indexBits - 1)
	t := pc ^ fTag ^ (fTag << 1)
	tag = uint32(t) & (1<<tagBits - 1)
	return idx, tag
}

// TableIndex implements Hasher.
func (LegacyHasher) TableIndex(pc uint64, fold uint64, bits uint) uint32 {
	return uint32((pc>>2)^fold) & (1<<bits - 1)
}

// Config sizes a TAGE-SC-L instance.
type Config struct {
	// Name labels the model in reports ("TAGE_SC_L_8KB"...).
	Name string
	// HistLens are the geometric history lengths, one per tagged bank.
	HistLens []int
	// IndexBits/TagBits size the tagged banks (Table II: 10/8 for the
	// 8KB configuration, 13/12 for 64KB).
	IndexBits, TagBits uint
	// BimodalBits sizes the base predictor.
	BimodalBits uint
	// UseSC enables the statistical corrector.
	UseSC bool
	// UseLoop enables the loop predictor.
	UseLoop bool
	// Hasher is the index computation; nil means LegacyHasher.
	Hasher Hasher
}

// Config8KB is the small TAGE-SC-L of the paper's evaluation.
func Config8KB() Config {
	return Config{
		Name:        "TAGE_SC_L_8KB",
		HistLens:    []int{5, 13, 34, 88},
		IndexBits:   10,
		TagBits:     8,
		BimodalBits: 12,
		UseSC:       true,
		UseLoop:     true,
	}
}

// Config64KB is the large TAGE-SC-L of the paper's evaluation.
func Config64KB() Config {
	return Config{
		Name:        "TAGE_SC_L_64KB",
		HistLens:    []int{4, 9, 19, 42, 91, 199, 435},
		IndexBits:   13,
		TagBits:     12,
		BimodalBits: 13,
		UseSC:       true,
		UseLoop:     true,
	}
}

// entry is one tagged-bank slot: the tag with the valid bit folded in
// (validBit), a 3-bit signed counter, and 2-bit usefulness. At four
// bytes, rather than twelve for a separate flag and a 32-bit tag, a
// 64KB configuration's banks take 224 KiB, and the banks are most of
// the predictor's cache footprint.
type entry struct {
	tag    uint16 // validBit | tag; an invalid slot never matches a lookup
	ctr    int8   // -4..3, taken when >= 0
	useful uint8  // 0..3
}

// validBit marks an allocated entry inside entry.tag. Lookups compare
// against tag|validBit, so the hit test is one compare; tags are
// therefore limited to 15 bits (Table II's widest is 12).
const validBit = 1 << 15

func (e *entry) valid() bool { return e.tag&validBit != 0 }

// foldIn is one step of a history register folded to compLen bits
// (standard TAGE hardware): newBit shifts in, oldBit — the outcome that
// just left the register's window of origLen outcomes — shifts out at
// outShift = origLen % compLen, and mask is 1<<compLen - 1.
func foldIn(val, newBit, oldBit uint64, outShift, compLen uint, mask uint64) uint64 {
	val = val<<1 | newBit
	val ^= oldBit << outShift
	val ^= val >> compLen
	return val & mask
}

// bankHist is one tagged bank's history state: its index, tag and
// second-tag folded registers and the ring position of the outcome
// leaving its window. The register widths and masks are the same for
// every bank and live on the Predictor; only the out-shifts depend on
// the bank's history length.
type bankHist struct {
	idx, tag, tag2 uint64
	// pos is the ring index of the outcome HistLens[b] steps back,
	// advanced in lockstep with histPos so pushHistory never normalizes
	// a negative position.
	pos                     int32
	outIdx, outTag, outTag2 uint8 // HistLens[b] % register width
}

// scHist is one SC table's history register, folded to scTableBits,
// and the ring position of the outcome leaving its window. A table
// with history length 0 never updates its register.
type scHist struct {
	val uint64
	pos int32
	out uint8 // scLens[i] % scTableBits
}

// maxHistoryBits bounds the outcome ring buffer.
const maxHistoryBits = 1024

// loopEntry tracks one loop branch: its trip count and confidence.
type loopEntry struct {
	tag        uint32
	tripCount  uint16
	currentIt  uint16
	confidence uint8
	age        uint8
}

// scTableBits sizes each statistical-corrector table.
const scTableBits = 10

// Predictor is a TAGE-SC-L instance. It implements bpu.DirectionPredictor
// with the stash-between-Predict-and-Update contract.
type Predictor struct {
	cfg    Config
	hasher Hasher

	bimodal []int8 // 2-bit counters as -2..1, taken when >= 0
	// banks holds every tagged bank back to back: bank b's slot i is
	// banks[b<<IndexBits|i].
	banks []entry

	// Global outcome history ring plus the folded registers of every
	// bank, updated in one pass per retired branch.
	hist     [maxHistoryBits]uint8
	histPos  int
	histLen  int
	bankHist []bankHist
	// Folded-register widths and masks, shared by all banks.
	idxBits, tagBits, tag2Bits uint
	idxMask, tagMask, tag2Mask uint64

	// wideBits is the widest untagged index (bimodal, SC, loop): Predict
	// hashes the branch once at this width and masks the result down.
	wideBits uint

	useAltOnNA int8 // -8..7: prefer altpred for newly allocated entries

	// Loop predictor.
	loops []loopEntry

	// Statistical corrector: GEHL tables of 6-bit signed counters over
	// short folded histories.
	scTables [][]int8
	scLens   []int
	scHist   []scHist
	scThresh int

	// TageMispredicts counts wrong final predictions in which TAGE's
	// tagged banks provided the prediction — the event the ST models
	// monitor with a dedicated threshold register (§VII-B2).
	TageMispredicts uint64

	// lookup stash (Predict fills, Update consumes).
	last lookup
}

type lookup struct {
	pc        uint64
	provider  int    // bank index, -1 = bimodal
	altBank   int    // -1 = bimodal
	provIdx   uint32 // index into banks
	altIdx    uint32
	bimIdx    uint32
	tags      []uint16 // per bank: validBit | tag
	idxs      []uint32 // per bank: index into banks
	tagePred  bool
	altPred   bool
	finalPred bool
	usedLoop  bool
	loopPred  bool
	loopIdx   uint32
	scSum     int
	scIdxs    []uint32
	weakProv  bool
}

// loopBits sizes the 64-entry loop table.
const loopBits = 6

var _ bpu.DirectionPredictor = (*Predictor)(nil)

// New builds a predictor from the configuration.
func New(cfg Config) *Predictor {
	if len(cfg.HistLens) == 0 {
		panic("tage: config needs at least one tagged bank")
	}
	if cfg.TagBits > 15 {
		panic(fmt.Sprintf("tage: %d tag bits exceed the 15 an entry holds", cfg.TagBits))
	}
	h := cfg.Hasher
	if h == nil {
		h = LegacyHasher{}
	}
	p := &Predictor{cfg: cfg, hasher: h}
	p.bimodal = make([]int8, 1<<cfg.BimodalBits)
	for i := range p.bimodal {
		p.bimodal[i] = -1 // weakly not-taken
	}
	p.banks = make([]entry, len(cfg.HistLens)<<cfg.IndexBits)
	p.idxBits, p.tagBits, p.tag2Bits = cfg.IndexBits, cfg.TagBits, cfg.TagBits-1
	p.idxMask, p.tagMask, p.tag2Mask = 1<<p.idxBits-1, 1<<p.tagBits-1, 1<<p.tag2Bits-1
	p.bankHist = make([]bankHist, len(cfg.HistLens))
	for i, l := range cfg.HistLens {
		if l >= maxHistoryBits {
			panic(fmt.Sprintf("tage: history length %d exceeds %d", l, maxHistoryBits))
		}
		bh := &p.bankHist[i]
		bh.outIdx = uint8(uint(l) % p.idxBits)
		bh.outTag = uint8(uint(l) % p.tagBits)
		bh.outTag2 = uint8(uint(l) % p.tag2Bits)
	}
	p.wideBits = cfg.BimodalBits
	if cfg.UseLoop {
		p.loops = make([]loopEntry, 1<<loopBits)
		p.wideBits = max(p.wideBits, loopBits)
	}
	if cfg.UseSC {
		p.scLens = []int{0, 5, 14, 32}
		p.scTables = make([][]int8, len(p.scLens))
		for i := range p.scTables {
			p.scTables[i] = make([]int8, 1<<scTableBits)
		}
		p.scHist = make([]scHist, len(p.scLens))
		for i, l := range p.scLens {
			p.scHist[i].out = uint8(max(l, 1) % scTableBits)
		}
		p.scThresh = 6
		p.wideBits = max(p.wideBits, scTableBits)
	}
	p.resetOldPositions()
	p.last.tags = make([]uint16, len(cfg.HistLens))
	p.last.idxs = make([]uint32, len(cfg.HistLens))
	p.last.scIdxs = make([]uint32, len(p.scTables))
	return p
}

// Config returns the instance configuration.
func (p *Predictor) Config() Config { return p.cfg }

// SetHasher swaps the index hasher (token re-randomization in ST mode).
func (p *Predictor) SetHasher(h Hasher) { p.hasher = h }

// Predict implements bpu.DirectionPredictor.
func (p *Predictor) Predict(pc uint64) bool {
	l := &p.last
	l.pc = pc
	l.provider, l.altBank = -1, -1
	l.usedLoop = false

	// One hash serves every unfolded untagged index (see Hasher).
	wide := p.hasher.TableIndex(pc, 0, p.wideBits)
	l.bimIdx = wide & (1<<p.cfg.BimodalBits - 1)
	l.loopIdx = wide & (1<<loopBits - 1)
	bimPred := p.bimodal[l.bimIdx] >= 0

	// Tagged lookups, longest history wins. One pass computes every bank's
	// index/tag (Update's allocation needs them all) and picks the provider
	// and alternate as it goes.
	h, banks, idxBits, tagBits := p.hasher, p.banks, p.idxBits, p.tagBits
	for b := len(p.bankHist) - 1; b >= 0; b-- {
		bh := &p.bankHist[b]
		idx, tag := h.BankIndexTag(pc, bh.idx, bh.tag^(bh.tag2<<1), b, idxBits, tagBits)
		slot := uint32(b)<<idxBits | idx
		stored := uint16(tag) | validBit
		l.idxs[b], l.tags[b] = slot, stored
		if banks[slot].tag == stored {
			if l.provider < 0 {
				l.provider = b
				l.provIdx = slot
			} else if l.altBank < 0 {
				l.altBank = b
				l.altIdx = slot
			}
		}
	}

	if l.altBank >= 0 {
		l.altPred = p.banks[l.altIdx].ctr >= 0
	} else {
		l.altPred = bimPred
	}
	if l.provider >= 0 {
		e := &p.banks[l.provIdx]
		l.tagePred = e.ctr >= 0
		// Newly allocated (weak, not yet useful) entries may be worse
		// than the alternate prediction.
		l.weakProv = (e.ctr == 0 || e.ctr == -1) && e.useful == 0
		if l.weakProv && p.useAltOnNA >= 0 {
			l.tagePred = l.altPred
		}
	} else {
		l.tagePred = bimPred
		l.altPred = bimPred
	}
	l.finalPred = l.tagePred

	// Statistical corrector: revert low-confidence TAGE predictions when
	// the perceptron-style sum disagrees strongly.
	if p.cfg.UseSC {
		sum := 0
		for i := range p.scTables {
			idx := wide & (1<<scTableBits - 1)
			if f := p.scHist[i].val; f != 0 {
				idx = p.hasher.TableIndex(pc, f, scTableBits)
			}
			l.scIdxs[i] = idx
			sum += int(p.scTables[i][idx])
		}
		if l.tagePred {
			sum += p.scThresh / 2
		} else {
			sum -= p.scThresh / 2
		}
		l.scSum = sum
		scPred := sum >= 0
		if scPred != l.tagePred && absInt(sum) > p.scThresh {
			l.finalPred = scPred
		}
	}

	// Loop predictor overrides with high confidence.
	if p.cfg.UseLoop {
		if e := p.loopLookup(l.loopIdx, pc); e != nil && e.confidence >= 3 && e.tripCount > 0 {
			l.usedLoop = true
			l.loopPred = e.currentIt+1 != e.tripCount
			l.finalPred = l.loopPred
		}
	}
	return l.finalPred
}

// Update implements bpu.DirectionPredictor.
func (p *Predictor) Update(pc uint64, taken bool) {
	l := &p.last
	if l.pc != pc {
		// Contract violation or flush between predict/update: fall back
		// to a fresh lookup so training still happens.
		p.Predict(pc)
	}
	mispredicted := l.finalPred != taken
	if mispredicted && l.provider >= 0 {
		p.TageMispredicts++
	}

	// Loop predictor training.
	if p.cfg.UseLoop {
		p.loopUpdate(l.loopIdx, pc, taken)
	}

	// Statistical corrector training: on mispredict or weak sum.
	if p.cfg.UseSC && (mispredicted || absInt(l.scSum) <= p.scThresh) {
		for i := range p.scTables {
			c := p.scTables[i][l.scIdxs[i]]
			if taken && c < 31 {
				p.scTables[i][l.scIdxs[i]] = c + 1
			} else if !taken && c > -32 {
				p.scTables[i][l.scIdxs[i]] = c - 1
			}
		}
	}

	// useAltOnNA bookkeeping.
	if l.provider >= 0 && l.weakProv {
		e := &p.banks[l.provIdx]
		tageWasRight := (e.ctr >= 0) == taken
		altWasRight := l.altPred == taken
		if tageWasRight != altWasRight {
			if altWasRight {
				if p.useAltOnNA < 7 {
					p.useAltOnNA++
				}
			} else if p.useAltOnNA > -8 {
				p.useAltOnNA--
			}
		}
	}

	// Provider update.
	if l.provider >= 0 {
		e := &p.banks[l.provIdx]
		updateCtr(&e.ctr, taken)
		// Usefulness trains only when provider and alternate disagreed:
		// the provider is useful exactly when it beat the alternate.
		if l.tagePred != l.altPred {
			if l.tagePred == taken && e.useful < 3 {
				e.useful++
			} else if l.tagePred != taken && e.useful > 0 {
				e.useful--
			}
		}
	} else {
		// Bimodal update.
		c := &p.bimodal[l.bimIdx]
		if taken && *c < 1 {
			*c++
		} else if !taken && *c > -2 {
			*c--
		}
	}

	// Allocation on TAGE mispredict: claim an entry in a longer bank.
	tageWrong := l.tagePred != taken
	if tageWrong && l.provider < len(l.idxs)-1 {
		allocated := false
		for b := l.provider + 1; b < len(l.idxs); b++ {
			e := &p.banks[l.idxs[b]]
			if !e.valid() || e.useful == 0 {
				*e = entry{tag: l.tags[b], ctr: ctrInit(taken)}
				allocated = true
				break
			}
		}
		if !allocated {
			// Decay usefulness so future allocations succeed.
			for b := l.provider + 1; b < len(l.idxs); b++ {
				e := &p.banks[l.idxs[b]]
				if e.useful > 0 {
					e.useful--
				}
			}
		}
	}

	p.pushHistory(taken)
}

// Flush implements bpu.DirectionPredictor.
func (p *Predictor) Flush() {
	for i := range p.bimodal {
		p.bimodal[i] = -1
	}
	clear(p.banks)
	for i := range p.bankHist {
		bh := &p.bankHist[i]
		bh.idx, bh.tag, bh.tag2 = 0, 0, 0
	}
	for i := range p.scHist {
		p.scHist[i].val = 0
	}
	for i := range p.scTables {
		clear(p.scTables[i])
	}
	clear(p.loops)
	p.hist = [maxHistoryBits]uint8{}
	p.histPos, p.histLen = 0, 0
	p.resetOldPositions()
	p.useAltOnNA = 0
	p.last = lookup{
		tags:   p.last.tags,
		idxs:   p.last.idxs,
		scIdxs: p.last.scIdxs,
	}
}

// resetOldPositions re-derives every old-outcome ring index from histPos
// (construction and flush; steady state advances them incrementally).
func (p *Predictor) resetOldPositions() {
	for i, l := range p.cfg.HistLens {
		p.bankHist[i].pos = int32((p.histPos - l + maxHistoryBits) % maxHistoryBits)
	}
	for i, l := range p.scLens {
		p.scHist[i].pos = int32((p.histPos - l + maxHistoryBits) % maxHistoryBits)
	}
}

// pushHistory shifts an outcome into the ring and all folded registers,
// one pass over the banks. The outgoing-outcome positions are maintained
// incrementally (one compare-and-wrap per bank) instead of re-normalized
// with loops and modulo arithmetic on every retired branch.
func (p *Predictor) pushHistory(taken bool) {
	bit := uint64(0)
	if taken {
		bit = 1
	}
	p.hist[p.histPos] = uint8(bit)
	iw, tw, t2w := p.idxBits, p.tagBits, p.tag2Bits
	im, tm, t2m := p.idxMask, p.tagMask, p.tag2Mask
	for i := range p.bankHist {
		bh := &p.bankHist[i]
		// Positions are always in range (construction, flush and decode
		// keep them so); the mask only drops the bounds check.
		ob := uint64(p.hist[bh.pos&(maxHistoryBits-1)])
		bh.idx = foldIn(bh.idx, bit, ob, uint(bh.outIdx), iw, im)
		bh.tag = foldIn(bh.tag, bit, ob, uint(bh.outTag), tw, tm)
		bh.tag2 = foldIn(bh.tag2, bit, ob, uint(bh.outTag2), t2w, t2m)
		if bh.pos++; bh.pos == maxHistoryBits {
			bh.pos = 0
		}
	}
	for i, l := range p.scLens {
		sh := &p.scHist[i]
		if l > 0 {
			ob := uint64(p.hist[sh.pos&(maxHistoryBits-1)])
			sh.val = foldIn(sh.val, bit, ob, uint(sh.out), scTableBits, 1<<scTableBits-1)
		}
		if sh.pos++; sh.pos == maxHistoryBits {
			sh.pos = 0
		}
	}
	p.histPos++
	if p.histPos == maxHistoryBits {
		p.histPos = 0
	}
	if p.histLen < maxHistoryBits {
		p.histLen++
	}
}

// loopLookup returns the loop entry at idx (the branch's hashed loop
// index) when it belongs to pc.
func (p *Predictor) loopLookup(idx uint32, pc uint64) *loopEntry {
	tag := uint32(pc>>8) & 0x3fff
	e := &p.loops[idx]
	if e.age > 0 && e.tag == tag {
		return e
	}
	return nil
}

// loopUpdate trains the loop entry at idx, the index Predict stashed.
func (p *Predictor) loopUpdate(idx uint32, pc uint64, taken bool) {
	tag := uint32(pc>>8) & 0x3fff
	e := &p.loops[idx]
	if e.age == 0 || e.tag != tag {
		// Allocate on a not-taken outcome (potential loop exit).
		if !taken {
			if e.age == 0 {
				*e = loopEntry{tag: tag, age: 1}
			} else if e.age > 0 {
				e.age--
			}
		}
		return
	}
	if taken {
		e.currentIt++
		if e.currentIt == 0xffff {
			*e = loopEntry{}
		}
		return
	}
	// Loop exit observed.
	iters := e.currentIt + 1
	switch {
	case e.tripCount == 0:
		e.tripCount = iters
		e.confidence = 1
	case e.tripCount == iters:
		if e.confidence < 7 {
			e.confidence++
		}
		if e.age < 7 {
			e.age++
		}
	default:
		e.tripCount = iters
		e.confidence = 0
		if e.age > 0 {
			e.age--
		}
	}
	e.currentIt = 0
}

func updateCtr(c *int8, taken bool) {
	if taken {
		if *c < 3 {
			*c++
		}
	} else if *c > -4 {
		*c--
	}
}

func ctrInit(taken bool) int8 {
	if taken {
		return 0
	}
	return -1
}

func absInt(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
