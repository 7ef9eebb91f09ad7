package harness

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"runtime/metrics"
	"testing"
)

// wireTestSpecs builds a representative trace-major batch: n cells
// across a handful of workloads with populated params, sweeps, and
// locality keys, the shape the suite actually ships to workers.
func wireTestSpecs(n int) []CellSpec {
	workloads := []string{"505.mcf", "531.deepsjeng", "541.leela", "557.xz"}
	specs := make([]CellSpec, n)
	for i := range specs {
		wl := workloads[i%len(workloads)]
		specs[i] = CellSpec{
			Scenario: "tab3_attacks",
			Scope:    "pairs",
			Shard:    i,
			Seed:     ShardSeed(0x5eed, "pairs", i),
			RootSeed: 0x5eed,
			Locality: Locality(wl, 20000),
			Params: Params{
				Records:      20000,
				MaxWorkloads: 8,
				MaxPairs:     12,
				Trials:       40,
				Budget:       4096,
				Bits:         64,
				R:            1.25,
				Sweep:        []float64{0.5, 1, 1.5, 2, 2.5},
				Workload:     wl,
				WorkloadSpec: "spec:browser_tabbed@deadbeef",
			},
		}
	}
	return specs
}

func TestWireMsgRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		msg  wireMsg
	}{
		{"work", wireMsg{
			kind:     wireKindWork,
			seq:      42,
			cells:    wireTestSpecs(5),
			prefetch: []string{"505.mcf@20000", "541.leela@20000"},
		}},
		{"work-empty", wireMsg{kind: wireKindWork, seq: 7}},
		{"results", wireMsg{
			kind: wireKindResults,
			seq:  42,
			results: []CellResult{
				{Shard: 0, Value: json.RawMessage(`{"leak":0.25}`), ElapsedUS: 1234},
				{Shard: 1, Err: "replay diverged", Canceled: true},
				{Shard: 2},
			},
		}},
		{"results-batch-error", wireMsg{
			kind:      wireKindResults,
			seq:       9,
			err:       "trace store unavailable",
			permanent: true,
		}},
		{"heartbeat", wireMsg{kind: wireKindHeartbeat, seq: 3}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			payload := encodeWireMsg(&tc.msg)
			if len(payload) == 0 || payload[0] != binMagic {
				t.Fatalf("payload does not start with the binary magic byte: % x", payload[:min(len(payload), 4)])
			}
			got, err := decodeWireMsg(payload)
			if err != nil {
				t.Fatalf("decodeWireMsg: %v", err)
			}
			if !reflect.DeepEqual(*got, tc.msg) {
				t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", *got, tc.msg)
			}
		})
	}
}

func TestWireMsgDecodeErrors(t *testing.T) {
	good := encodeWireMsg(&wireMsg{kind: wireKindWork, seq: 1, cells: wireTestSpecs(1)})
	cases := []struct {
		name    string
		payload []byte
	}{
		{"empty", nil},
		{"short", []byte{binMagic, binVersion}},
		{"json-not-binary", []byte(`{"seq":1,"cells":[]}`)},
		{"bad-magic", append([]byte{0x00}, good[1:]...)},
		{"bad-version", append([]byte{binMagic, binVersion + 1}, good[2:]...)},
		{"unknown-kind", []byte{binMagic, binVersion, 0x7f, 0, 0, 0, 0, 0, 0, 0, 0}},
		{"trailing-bytes", append(append([]byte(nil), good...), 0xff)},
		{"truncated-body", good[:len(good)-3]},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := decodeWireMsg(tc.payload); err == nil {
				t.Fatalf("decodeWireMsg accepted a corrupt payload")
			}
		})
	}
}

// forgedWorkFrame is a 19-byte work frame whose cell count claims 2^22
// cells it does not carry — the shape that once made the decoder
// allocate hundreds of megabytes before noticing the truncation.
func forgedWorkFrame() []byte {
	frame := []byte{binMagic, binVersion, wireKindWork}
	frame = binary.LittleEndian.AppendUint64(frame, 1)     // seq
	frame = binary.LittleEndian.AppendUint32(frame, 0)     // prefetch count
	frame = binary.LittleEndian.AppendUint32(frame, 1<<22) // cell count
	return frame
}

// allocatedBy reports the heap bytes allocated while fn ran. It reads
// runtime/metrics, which does not stop the world, so a fuzz worker can
// call it on every input. The counter is coarse — a span refill counts
// the whole span — so the budgets it checks leave constant slack.
func allocatedBy(fn func()) uint64 {
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	fn()
	metrics.Read(sample)
	return sample[0].Value.Uint64() - before
}

// TestWireForgedCountAllocationBounded: a frame that claims more cells
// than it holds must fail at the count, allocating on the order of the
// frame, not of the claim.
func TestWireForgedCountAllocationBounded(t *testing.T) {
	frame := forgedWorkFrame()
	if len(frame) != 19 {
		t.Fatalf("forged frame is %d bytes, want 19", len(frame))
	}
	var err error
	alloc := allocatedBy(func() { _, err = decodeWireMsg(frame) })
	if err == nil {
		t.Fatal("decodeWireMsg accepted a frame claiming 2^22 absent cells")
	}
	if alloc > 1<<20 {
		t.Errorf("rejecting a 19-byte frame allocated %d bytes", alloc)
	}
}

// TestReadRawFrameForgedLengthAllocationBounded: a header claiming the
// largest legal frame, followed by a few bytes and EOF, must fail as
// truncated without allocating the claimed size.
func TestReadRawFrameForgedLengthAllocationBounded(t *testing.T) {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], maxFrameBytes)
	stream := append(hdr[:], forgedWorkFrame()...)
	var err error
	alloc := allocatedBy(func() { _, err = readRawFrame(bytes.NewReader(stream)) })
	if !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("err = %v, want io.ErrUnexpectedEOF", err)
	}
	if alloc > 1<<20 {
		t.Errorf("reading a %d-byte stream allocated %d bytes", len(stream), alloc)
	}
}

// TestReadRawFrameLarge: a frame larger than the first read buffer
// arrives whole as the buffer grows.
func TestReadRawFrameLarge(t *testing.T) {
	payload := make([]byte, 5*frameReadChunk+123)
	for i := range payload {
		payload[i] = byte(i * 7)
	}
	var buf bytes.Buffer
	if err := writeRawFrame(&buf, payload); err != nil {
		t.Fatal(err)
	}
	got, err := readRawFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("large frame corrupted in transit")
	}
}

// FuzzWireMsg feeds arbitrary payloads to the frame decoder: it must
// never panic, must spend at most a constant multiple of the input on
// allocation, and any payload it accepts must re-encode to itself.
func FuzzWireMsg(f *testing.F) {
	for _, m := range []*wireMsg{
		benchWorkMsg(),
		{kind: wireKindResults, seq: 42, results: []CellResult{
			{Shard: 0, Value: json.RawMessage(`{"leak":0.25}`), ElapsedUS: 1234},
			{Shard: 1, Err: "replay diverged", Canceled: true},
		}},
		{kind: wireKindResults, seq: 9, err: "trace store unavailable", permanent: true},
		{kind: wireKindHeartbeat},
	} {
		f.Add(encodeWireMsg(m))
	}
	f.Add(forgedWorkFrame())
	f.Fuzz(func(t *testing.T, payload []byte) {
		var m *wireMsg
		var err error
		alloc := allocatedBy(func() { m, err = decodeWireMsg(payload) })
		// The counter moves by whole cached spans, hence the slack.
		if budget := uint64(1<<20 + 32*len(payload)); alloc > budget {
			t.Fatalf("decoding %d bytes allocated %d (budget %d)", len(payload), alloc, budget)
		}
		if err != nil {
			return
		}
		if again := encodeWireMsg(m); !bytes.Equal(again, payload) {
			t.Fatalf("accepted payload does not re-encode to itself:\n in % x\nout % x", payload, again)
		}
	})
}

// The benchmarks measure one dispatch round trip for a representative
// 64-cell trace-major batch: coordinator-side encode plus worker-side
// decode, the work the wire adds to every chunk. The binary codec must
// beat the JSON reference by a wide margin (the bench gate records
// both).

func benchWorkMsg() *wireMsg {
	return &wireMsg{
		kind:     wireKindWork,
		seq:      17,
		cells:    wireTestSpecs(64),
		prefetch: []string{"531.deepsjeng@20000", "557.xz@20000"},
	}
}

// jsonWork has the shape of the JSON work frame the fleet sent before
// every post-handshake frame became binary; BenchmarkWireSpecsJSON
// keeps it as the reference the binary codec is measured against.
type jsonWork struct {
	Seq      uint64     `json:"seq"`
	Cells    []CellSpec `json:"cells"`
	Prefetch []string   `json:"prefetch,omitempty"`
}

func BenchmarkWireSpecsJSON(b *testing.B) {
	msg := benchWorkMsg()
	work := jsonWork{Seq: msg.seq, Cells: msg.cells, Prefetch: msg.prefetch}
	payload, err := json.Marshal(&work)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := json.Marshal(&work)
		if err != nil {
			b.Fatal(err)
		}
		var got jsonWork
		if err := json.Unmarshal(p, &got); err != nil {
			b.Fatal(err)
		}
		if len(got.Cells) != len(work.Cells) {
			b.Fatal("lost cells in transit")
		}
	}
}

func BenchmarkWireSpecsBinary(b *testing.B) {
	msg := benchWorkMsg()
	payload := encodeWireMsg(msg)
	b.SetBytes(int64(len(payload)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := encodeWireMsg(msg)
		got, err := decodeWireMsg(p)
		if err != nil {
			b.Fatal(err)
		}
		if len(got.cells) != len(msg.cells) {
			b.Fatal("lost cells in transit")
		}
	}
}
