package tage

// Snapshot support for the warm-state checkpoint tier: deep forks and a
// deterministic binary state round-trip (see sim.Snapshotter). The
// lookup stash is dead between records (Update always directly follows
// its Predict), so CloneWith and DecodeState reset it — every capture
// of the same logical state encodes to identical bytes.

import "stbpu/internal/snap"

// CloneWith returns a deep copy of the predictor addressed through h
// (forks re-point keyed hashers at the fork's own key state; pass nil
// to keep the original's hasher).
func (p *Predictor) CloneWith(h Hasher) *Predictor {
	if h == nil {
		h = p.hasher
	}
	cfg := p.cfg
	cfg.Hasher = h
	np := New(cfg)
	np.copyStateFrom(p)
	return np
}

// copyStateFrom overwrites np's mutable state with p's. Both must share
// a configuration (geometry is config-derived).
func (np *Predictor) copyStateFrom(p *Predictor) {
	copy(np.bimodal, p.bimodal)
	copy(np.banks, p.banks)
	np.hist = p.hist
	np.histPos, np.histLen = p.histPos, p.histLen
	copy(np.bankHist, p.bankHist)
	copy(np.scHist, p.scHist)
	np.useAltOnNA = p.useAltOnNA
	copy(np.loops, p.loops)
	for i := range p.scTables {
		copy(np.scTables[i], p.scTables[i])
	}
	np.TageMispredicts = p.TageMispredicts
}

// EncodeState appends the predictor's mutable state to w. The bytes are
// an on-disk format, independent of the in-memory layout: each slot is
// written as (valid bool, uint32 tag, ctr, useful), then come three
// folded registers per bank and the bank and SC ring positions.
// TestSnapshotFormatPinned keeps spills from older runs readable.
func (p *Predictor) EncodeState(w *snap.Writer) {
	w.I8s(p.bimodal)
	nb, size := len(p.bankHist), 1<<p.idxBits
	w.Len(nb)
	for b := 0; b < nb; b++ {
		w.Len(size)
		for _, e := range p.banks[b*size : (b+1)*size] {
			w.Bool(e.valid())
			w.U32(uint32(e.tag &^ validBit))
			w.I8(e.ctr)
			w.U8(e.useful)
		}
	}
	w.U8s(p.hist[:])
	w.Int(p.histPos)
	w.Int(p.histLen)
	for i := range p.bankHist {
		bh := &p.bankHist[i]
		w.U64(bh.idx)
		w.U64(bh.tag)
		w.U64(bh.tag2)
	}
	w.Len(nb)
	for i := range p.bankHist {
		w.I32(p.bankHist[i].pos)
	}
	w.Len(len(p.scHist))
	for i := range p.scHist {
		w.I32(p.scHist[i].pos)
	}
	w.I8(p.useAltOnNA)
	w.Len(len(p.loops))
	for i := range p.loops {
		e := &p.loops[i]
		w.U32(e.tag)
		w.U16(e.tripCount)
		w.U16(e.currentIt)
		w.U8(e.confidence)
		w.U8(e.age)
	}
	w.Len(len(p.scTables))
	for i := range p.scTables {
		w.I8s(p.scTables[i])
	}
	for i := range p.scHist {
		w.U64(p.scHist[i].val)
	}
	w.U64(p.TageMispredicts)
}

// DecodeState restores state encoded by EncodeState onto a predictor of
// the same configuration, resetting the lookup stash. Geometry
// mismatches, and entries the packed layout cannot represent (a tag of
// TagBits or more bits, a counter outside -4..3, usefulness above 3),
// latch an error on r.
func (p *Predictor) DecodeState(r *snap.Reader) {
	r.I8sInto(p.bimodal)
	nb, size := len(p.bankHist), 1<<p.idxBits
	r.LenExact(nb)
	for b := 0; b < nb && r.Err() == nil; b++ {
		r.LenExact(size)
		bank := p.banks[b*size : (b+1)*size]
		for i := range bank {
			valid := r.Bool()
			tag := r.U32()
			ctr := r.I8()
			useful := r.U8()
			if r.Err() != nil {
				break
			}
			if uint64(tag) > p.tagMask || ctr < -4 || ctr > 3 || useful > 3 {
				r.Fail("tage: bank %d entry %d (tag %#x, ctr %d, useful %d) out of range", b, i, tag, ctr, useful)
				break
			}
			e := entry{tag: uint16(tag), ctr: ctr, useful: useful}
			if valid {
				e.tag |= validBit
			}
			bank[i] = e
		}
	}
	r.U8sInto(p.hist[:])
	p.histPos = r.Int()
	p.histLen = r.Int()
	if r.Err() == nil && (p.histPos < 0 || p.histPos >= maxHistoryBits || p.histLen < 0 || p.histLen > maxHistoryBits) {
		p.histPos, p.histLen = 0, 0
	}
	for i := range p.bankHist {
		bh := &p.bankHist[i]
		bh.idx = r.U64()
		bh.tag = r.U64()
		bh.tag2 = r.U64()
	}
	r.LenExact(nb)
	inRange := true
	for i := range p.bankHist {
		pos := r.I32()
		p.bankHist[i].pos = pos
		inRange = inRange && pos >= 0 && pos < maxHistoryBits
	}
	r.LenExact(len(p.scHist))
	for i := range p.scHist {
		pos := r.I32()
		p.scHist[i].pos = pos
		inRange = inRange && pos >= 0 && pos < maxHistoryBits
	}
	// Corrupt positions would index outside the ring; re-derive them
	// from histPos rather than panic (the disk tier falls back to
	// replay on a decode error, but a wild index must never crash).
	if !inRange {
		p.resetOldPositions()
	}
	p.useAltOnNA = r.I8()
	r.LenExact(len(p.loops))
	for i := range p.loops {
		e := &p.loops[i]
		e.tag = r.U32()
		e.tripCount = r.U16()
		e.currentIt = r.U16()
		e.confidence = r.U8()
		e.age = r.U8()
	}
	r.LenExact(len(p.scTables))
	for i := range p.scTables {
		r.I8sInto(p.scTables[i])
	}
	for i := range p.scHist {
		p.scHist[i].val = r.U64()
	}
	p.TageMispredicts = r.U64()
	p.last = lookup{tags: p.last.tags, idxs: p.last.idxs, scIdxs: p.last.scIdxs}
}
