package main

import (
	"context"
	"encoding/json"
	"runtime"
	"strings"
	"testing"
	"time"
)

// doc is a trimmed stbpu-suite document of two scenarios, in the
// suite's name order.
const doc = `{
  "suite": "stbpu-suite",
  "seed": 1,
  "workers": 2,
  "elapsed_ms": 812,
  "runs": [
    {"scenario": "covert", "seed": 1, "workers": 2, "params": {"trials": 4, "bits": 512},
     "cells": 24, "elapsed_ms": 51,
     "result": {"Rows": [{"Defense": "STBPU", "Capacity": 0.0123, "ErrorRate": 0.4875}]}},
    {"scenario": "fig3", "seed": 1, "workers": 2,
     "params": {"records": 60000, "max_workloads": 2, "max_pairs": 4},
     "cells": 10, "elapsed_ms": 700,
     "result": {"Rows": [{"Workload": "500.perlbench", "OAE": [0.91, 0.88, 0.88, 0.9, 0.9100000000000001]}],
                "AvgNormalized": [1, 0.967, 0.967, 0.989, 0.9999]}}
  ],
  "backends": [{"backend": "local", "cells": 10, "retries": 0, "wall_ms": 801}],
  "trace_store": {"hits": 3, "misses": 2, "generations": 2, "bytes": 1000, "max_bytes": 268435456},
  "snap_store": {"hits": 0, "misses": 0, "puts": 0, "bytes": 0, "max_bytes": 134217728}
}`

func mustSweep(t *testing.T, raw string) sweep {
	t.Helper()
	sw := sweep{raw: []byte(raw)}
	if err := json.Unmarshal(sw.raw, &sw.doc); err != nil {
		t.Fatal(err)
	}
	return sw
}

func TestResultHashIgnoresTimingAndCounters(t *testing.T) {
	want, err := resultHash([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	other := strings.NewReplacer(
		`"elapsed_ms": 812`, `"elapsed_ms": 9999`,
		`"elapsed_ms": 700`, `"elapsed_ms": 3`,
		`"workers": 2,
  "elapsed_ms"`, `"workers": 1,
  "elapsed_ms"`,
		`"wall_ms": 801`, `"wall_ms": 5`,
		`"hits": 3`, `"hits": 0`,
	).Replace(doc)
	if other == doc {
		t.Fatal("replacements did not apply")
	}
	if got, err := resultHash([]byte(other)); err != nil || got != want {
		t.Fatalf("hash changed with timing and counters only: %v", err)
	}
}

func TestDoctoredResultIsCaught(t *testing.T) {
	want, err := resultHash([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	scen := []string{"covert", "fig3"}
	if err := checkDoc(mustSweep(t, doc), scen, want); err != nil {
		t.Fatalf("unchanged document rejected: %v", err)
	}
	for _, c := range []struct{ name, from, to string }{
		{"capacity scaled", `"Capacity": 0.0123`, `"Capacity": 0.01845`},
		{"last digit of an OAE", `0.9100000000000001`, `0.9100000000000002`},
		{"cell count", `"cells": 10,`, `"cells": 9,`},
		{"seed", `"seed": 1,
  "workers"`, `"seed": 2,
  "workers"`},
	} {
		bad := strings.Replace(doc, c.from, c.to, 1)
		if bad == doc {
			t.Fatalf("%s: replacement did not apply", c.name)
		}
		if err := checkDoc(mustSweep(t, bad), scen, want); err == nil {
			t.Errorf("%s: doctored document passed the output check", c.name)
		}
	}
	if err := checkDoc(mustSweep(t, doc), []string{"fig3"}, want); err == nil {
		t.Error("a document with an extra scenario passed")
	}
}

func TestExpectedHashCoversEveryWorkload(t *testing.T) {
	for _, w := range workloads {
		h, err := expectedHash(w.name)
		if err != nil || len(h) != 64 {
			t.Errorf("%s: hash %q, %v", w.name, h, err)
		}
	}
}

// A reference that agrees with itself but not with the committed hash
// must fail the output check.
func TestPinnedHashCatchesAChangedReference(t *testing.T) {
	saved := expectedJSON
	defer func() { expectedJSON = saved }()
	good, err := resultHash([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	expectedJSON = []byte(`{"seed": 1, "hashes": {"timing-model": "` + good + `"}}`)
	w := workload{name: "timing-model", scenarios: []string{"covert", "fig3"}}

	b := &bench{w: w, seed: defaultSeed, ref: mustSweep(t, doc)}
	if err := b.pinned(context.Background()); err != nil || b.failed != 0 || b.attempted != 34 {
		t.Fatalf("committed reference: err %v, %d of %d cells failed", err, b.failed, b.attempted)
	}

	changed := strings.Replace(doc, `"Capacity": 0.0123`, `"Capacity": 0.0124`, 1)
	b = &bench{w: w, seed: defaultSeed, ref: mustSweep(t, changed)}
	b.refHash, _ = resultHash([]byte(changed))
	b.check("sweep", mustSweep(t, changed), b.refHash) // agrees with its reference
	if err := b.pinned(context.Background()); err != nil {
		t.Fatal(err)
	}
	if b.failed != 34 || len(b.failures) != 1 || !strings.Contains(b.failures[0], "pinned hash") {
		t.Fatalf("changed reference: %d of %d cells failed: %v", b.failed, b.attempted, b.failures)
	}
	if r := b.result(); r.failed == 0 {
		t.Fatal("result does not carry the failure")
	}
}

func TestSimRecords(t *testing.T) {
	var d suiteDoc
	if err := json.Unmarshal([]byte(`{"runs": [
	  {"scenario": "fig4", "cells": 24, "params": {"records": 100}},
	  {"scenario": "fig5", "cells": 16, "params": {"records": 100}},
	  {"scenario": "fig6", "cells": 20, "params": {"records": 100, "sweep": [1, 2, 3, 4, 5]}},
	  {"scenario": "warmup", "cells": 15, "params": {"sweep": [10, 40, 160]}},
	  {"scenario": "tablei", "cells": 22, "params": {}}]}`), &d); err != nil {
		t.Fatal(err)
	}
	got, err := d.simRecords()
	if err != nil {
		t.Fatal(err)
	}
	want := int64(24*2*100 + 16*4*100 + (20+4)*2*100 + 5*160)
	if got != want {
		t.Fatalf("simRecords = %d, want %d", got, want)
	}
}

func TestSelfTimesAndClosure(t *testing.T) {
	ms := time.Millisecond
	spans := []span{
		{name: "run", parent: -1, start: 0, end: 100 * ms},
		{name: "experiments.fig3", parent: 0, start: 10 * ms, end: 90 * ms},
		{name: "tracestore.GetColumns", parent: 1, start: 10 * ms, end: 40 * ms},
		{name: "tracestore.gen", parent: 2, start: 12 * ms, end: 38 * ms},
		{name: "sim.RunColumnsMulti", parent: 1, start: 40 * ms, end: 80 * ms},
		{name: "probe", parent: -1, start: 100 * ms, end: 120 * ms},
		{name: "sim.RunCtx", parent: 5, start: 100 * ms, end: 115 * ms},
	}
	self := selfTimes(spans)
	for i, want := range []time.Duration{20 * ms, 10 * ms, 4 * ms, 26 * ms, 40 * ms, 5 * ms, 15 * ms} {
		if self[i] != want {
			t.Errorf("self(%s) = %v, want %v", spans[i].name, self[i], want)
		}
	}
	rec := &recorder{spans: spans}
	l := analyze(&pass{rec: rec, root: 0})
	if l.layerSelf["tracestore"] != 30*ms || l.layerSelf["sim"] != 40*ms || l.other != 30*ms {
		t.Errorf("layer self %v other %v", l.layerSelf, l.other)
	}
	if g := l.closureGap(); g != 0 {
		t.Errorf("closure gap %v, want 0", g)
	}
	if d, _ := l.self(inProbe, "sim.RunCtx"); d != 15*ms {
		t.Errorf("probe step self = %v", d)
	}

	// Overlapping children count once in their parent, so the closure
	// shows the overlap as a gap.
	overlap := append([]span(nil), spans[:2]...)
	overlap = append(overlap,
		span{name: "sim.RunColumnsMulti", parent: 1, start: 10 * ms, end: 60 * ms},
		span{name: "sim.RunColumnsMulti", parent: 1, start: 30 * ms, end: 80 * ms})
	if s := selfTimes(overlap); s[1] != 10*ms {
		t.Errorf("self with overlapping children = %v, want 10ms", s[1])
	}
	if g := analyze(&pass{rec: &recorder{spans: overlap}, root: 0}).closureGap(); g >= 0 {
		t.Errorf("overlapping spans closed: gap %v", g)
	}
}

func TestRecorderNests(t *testing.T) {
	r := newRecorder(true)
	_ = r.do("run", 0, func() error {
		return r.do("experiments.fig3", 0, func() error {
			return r.do("tracestore.gen", 5, func() error { return nil })
		})
	})
	if len(r.spans) != 3 || r.spans[1].parent != 0 || r.spans[2].parent != 1 || r.spans[2].records != 5 {
		t.Fatalf("spans %+v", r.spans)
	}
	off := newRecorder(false)
	_ = off.do("run", 0, func() error { return nil })
	if len(off.spans) != 0 {
		t.Fatal("a disabled recorder recorded spans")
	}
}

func TestCalmKeepsTheLessStolenHalf(t *testing.T) {
	sec := time.Second
	cpus := time.Duration(runtime.NumCPU())
	sws := []sweep{
		{wall: sec, steal: 0},
		{wall: sec, steal: cpus * sec / 2}, // half of every CPU stolen
		{wall: 2 * sec, steal: cpus * sec / 5},
		{wall: sec, steal: cpus * sec / 20},
	}
	got := calm(sws)
	if len(got) != 2 || got[0].steal != 0 || got[1].steal != cpus*sec/20 {
		t.Fatalf("calm kept %+v", got)
	}
	quiet := []sweep{{wall: sec}, {wall: 2 * sec}, {wall: 3 * sec}}
	if len(calm(quiet)) != 3 {
		t.Fatal("without steal every sweep must be kept")
	}
}
