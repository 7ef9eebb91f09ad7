package harness

// Wire codec: every fleet connection — a subprocess's stdio, a TCP
// socket, an in-memory pipe — frames messages as a 4-byte big-endian
// payload length followed by the payload. The hello/welcome handshake
// is JSON, so the two ends can disagree about everything except the
// protocol version; every frame after it (work, results, heartbeat) is
// the compact binary encoding built on internal/snap. A binary payload
// starts with a magic byte and a version byte, so a confused peer is
// rejected loudly.
//
// CellResult values stay wire-encoded JSON inside the binary frame —
// the payload bytes a worker computed are forwarded verbatim, so result
// bytes are identical to an in-process run's by construction.
//
// Decoding never trusts a peer's length prefix: readRawFrame grows its
// buffer as bytes arrive, and every sequence count is checked against
// the bytes left in the frame before anything is allocated from it, so
// a forged frame costs at most a small multiple of its own size.

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"sync/atomic"

	"stbpu/internal/snap"
)

// maxFrameBytes bounds a protocol frame.
const maxFrameBytes = 256 << 20

// frameReadChunk is the first read buffer of a frame; larger frames grow
// the buffer as their bytes arrive rather than trusting the header.
const frameReadChunk = 64 << 10

const (
	binMagic   = 0xB5 // first payload byte of every post-handshake frame
	binVersion = 1
)

// Binary message kinds.
const (
	wireKindWork      = 1 // coordinator → worker: cells + prefetch hints
	wireKindResults   = 2 // worker → coordinator: results or batch error
	wireKindHeartbeat = 3 // worker → coordinator: liveness
)

// wireMsg is one frame after the handshake.
type wireMsg struct {
	kind      byte
	seq       uint64
	cells     []CellSpec
	prefetch  []string
	results   []CellResult
	err       string
	permanent bool
}

// Minimum encoded sizes of the sequence elements a frame carries; the
// decoder rejects a count whose elements cannot fit in the bytes left.
var (
	minSpecBytes   = len(encodeOne(func(w *snap.Writer) { encodeSpecBin(w, &CellSpec{}) }))
	minResultBytes = len(encodeOne(func(w *snap.Writer) { encodeResultBin(w, &CellResult{}) }))
	minStringBytes = len(encodeOne(func(w *snap.Writer) { w.Bytes8(nil) }))
)

func encodeOne(fn func(*snap.Writer)) []byte {
	w := snap.NewWriter(128)
	fn(w)
	return w.Bytes()
}

// wireStats counts frame payload bytes, both directions: JSON for the
// handshake, binary for everything after it.
type wireStats struct {
	jsonBytes   atomic.Uint64
	binaryBytes atomic.Uint64
}

// fill copies the counters into a stats block.
func (s *wireStats) fill(b *BackendStats) {
	b.WireJSONBytes = s.jsonBytes.Load()
	b.WireBinaryBytes = s.binaryBytes.Load()
}

// writeJSONFrame frames the JSON encoding of a handshake message and
// reports the payload size.
func writeJSONFrame(w io.Writer, v any) (int, error) {
	payload, err := json.Marshal(v)
	if err != nil {
		return 0, err
	}
	return len(payload), writeRawFrame(w, payload)
}

// readJSONFrame reads one handshake frame into v and reports the
// payload size.
func readJSONFrame(r io.Reader, v any) (int, error) {
	payload, err := readRawFrame(r)
	if err != nil {
		return 0, err
	}
	return len(payload), json.Unmarshal(payload, v)
}

// writeRawFrame emits a 4-byte big-endian length followed by payload.
func writeRawFrame(w io.Writer, payload []byte) error {
	if len(payload) > maxFrameBytes {
		return fmt.Errorf("frame of %d bytes exceeds the %d-byte protocol bound", len(payload), maxFrameBytes)
	}
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := w.Write(payload)
	return err
}

// readRawFrame reads one length-prefixed payload. A clean EOF before
// the header returns io.EOF; EOF mid-frame returns io.ErrUnexpectedEOF.
// The buffer grows with the bytes actually received, so a header that
// claims more than the peer sends costs no more than what it sent.
func readRawFrame(r io.Reader) ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(r, hdr[:]); err != nil {
		return nil, err
	}
	n := int(binary.BigEndian.Uint32(hdr[:]))
	if n > maxFrameBytes {
		return nil, fmt.Errorf("frame of %d bytes exceeds the %d-byte protocol bound", n, maxFrameBytes)
	}
	payload := make([]byte, 0, min(n, frameReadChunk))
	for len(payload) < n {
		if len(payload) == cap(payload) {
			payload = slices.Grow(payload, min(n-len(payload), len(payload)))
		}
		k, err := io.ReadFull(r, payload[len(payload):min(cap(payload), n)])
		payload = payload[:len(payload)+k]
		if err != nil {
			if errors.Is(err, io.EOF) {
				return nil, io.ErrUnexpectedEOF
			}
			return nil, err
		}
	}
	return payload, nil
}

// encodeWireMsg renders m as a binary payload.
func encodeWireMsg(m *wireMsg) []byte {
	w := snap.NewWriter(64)
	w.U8(binMagic)
	w.U8(binVersion)
	w.U8(m.kind)
	w.U64(m.seq)
	switch m.kind {
	case wireKindWork:
		w.Len(len(m.prefetch))
		for _, p := range m.prefetch {
			w.Bytes8([]byte(p))
		}
		w.Len(len(m.cells))
		for i := range m.cells {
			encodeSpecBin(w, &m.cells[i])
		}
	case wireKindResults:
		w.Bool(m.permanent)
		w.Bytes8([]byte(m.err))
		w.Len(len(m.results))
		for i := range m.results {
			encodeResultBin(w, &m.results[i])
		}
	case wireKindHeartbeat:
	}
	return w.Bytes()
}

// decodeWireMsg parses a binary payload back into a wireMsg.
func decodeWireMsg(payload []byte) (*wireMsg, error) {
	if len(payload) < 3 || payload[0] != binMagic {
		return nil, fmt.Errorf("binary frame lacks magic byte (got %d payload bytes)", len(payload))
	}
	if payload[1] != binVersion {
		return nil, fmt.Errorf("binary frame version %d, want %d", payload[1], binVersion)
	}
	r := snap.NewReader(payload[2:])
	m := &wireMsg{kind: r.U8(), seq: r.U64()}
	switch m.kind {
	case wireKindWork:
		in := stringInterner{}
		if n := r.LenOf(minStringBytes); n > 0 {
			m.prefetch = make([]string, n)
			for i := range m.prefetch {
				m.prefetch[i] = in.str(r.Bytes8())
			}
		}
		if n := r.LenOf(minSpecBytes); n > 0 {
			m.cells = make([]CellSpec, n)
			for i := range m.cells {
				decodeSpecBin(r, &m.cells[i], in)
			}
		}
	case wireKindResults:
		m.permanent = r.Bool()
		m.err = string(r.Bytes8())
		if n := r.LenOf(minResultBytes); n > 0 {
			m.results = make([]CellResult, n)
			for i := range m.results {
				decodeResultBin(r, &m.results[i])
			}
		}
	case wireKindHeartbeat:
	default:
		return nil, fmt.Errorf("binary frame kind %d unknown", m.kind)
	}
	if err := r.Done(); err != nil {
		return nil, fmt.Errorf("binary frame: %w", err)
	}
	return m, nil
}

// encodeSpecBin writes one CellSpec. Params fields are written in
// declaration order; adding a Params field requires bumping binVersion.
func encodeSpecBin(w *snap.Writer, s *CellSpec) {
	w.Bytes8([]byte(s.Scenario))
	w.Bytes8([]byte(s.Scope))
	w.Int(s.Shard)
	w.U64(s.Seed)
	w.U64(s.RootSeed)
	w.Bytes8([]byte(s.Locality))
	p := &s.Params
	w.Int(p.Records)
	w.Int(p.MaxWorkloads)
	w.Int(p.MaxPairs)
	w.Int(p.Trials)
	w.Int(p.Budget)
	w.Int(p.Bits)
	w.F64(p.R)
	w.Len(len(p.Sweep))
	for _, v := range p.Sweep {
		w.F64(v)
	}
	w.Bytes8([]byte(p.Workload))
	w.Bytes8([]byte(p.WorkloadSpec))
}

// stringInterner dedups the small string vocabulary of a work frame —
// scenario, scope, workload, and locality names repeat across every
// cell in a batch, so a decoded chunk allocates each distinct string
// once instead of once per cell.
type stringInterner map[string]string

func (in stringInterner) str(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	if s, ok := in[string(b)]; ok {
		return s
	}
	s := string(b)
	in[s] = s
	return s
}

func decodeSpecBin(r *snap.Reader, s *CellSpec, in stringInterner) {
	s.Scenario = in.str(r.Bytes8())
	s.Scope = in.str(r.Bytes8())
	s.Shard = r.Int()
	s.Seed = r.U64()
	s.RootSeed = r.U64()
	s.Locality = in.str(r.Bytes8())
	p := &s.Params
	p.Records = r.Int()
	p.MaxWorkloads = r.Int()
	p.MaxPairs = r.Int()
	p.Trials = r.Int()
	p.Budget = r.Int()
	p.Bits = r.Int()
	p.R = r.F64()
	if n := r.LenOf(8); n > 0 {
		p.Sweep = make([]float64, n)
		for i := range p.Sweep {
			p.Sweep[i] = r.F64()
		}
	}
	p.Workload = in.str(r.Bytes8())
	p.WorkloadSpec = in.str(r.Bytes8())
}

// encodeResultBin writes one wire-form CellResult (a worker calls
// encodeWire before framing, so the live value/err fields are empty).
func encodeResultBin(w *snap.Writer, r *CellResult) {
	w.Int(r.Shard)
	w.Bytes8(r.Value)
	w.Bytes8([]byte(r.Err))
	w.Bool(r.Canceled)
	w.U64(uint64(r.ElapsedUS))
}

func decodeResultBin(r *snap.Reader, res *CellResult) {
	res.Shard = r.Int()
	if b := r.Bytes8(); len(b) > 0 {
		// Copy out of the frame buffer: results outlive the frame.
		res.Value = append([]byte(nil), b...)
	}
	res.Err = string(r.Bytes8())
	res.Canceled = r.Bool()
	res.ElapsedUS = int64(r.U64())
}
