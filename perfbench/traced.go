package main

import (
	"context"
	"fmt"
	"path/filepath"
	"strings"
	"time"

	"stbpu/internal/cache"
	"stbpu/internal/harness"
)

// layers is the --trace 1 run: set-up, one untraced sweep with a run
// journal for the harness figures, then in-process passes alternately
// untraced and traced until --seconds have passed, and the probes after
// the last traced pass. Times are the last traced pass's; the passes'
// wall times give the tracing overhead.
func (b *bench) layers(ctx context.Context) (result, error) {
	if _, err := b.setup(ctx); err != nil {
		return result{}, err
	}
	if err := b.pinned(ctx); err != nil {
		return result{}, err
	}
	journal := filepath.Join(b.dir, "run.jsonl")
	sw, err := b.suite(ctx, b.seed, slots, "-journal", journal)
	if err != nil {
		return result{}, err
	}
	b.check("journal sweep", sw, b.refHash)
	r := b.result()
	entries, err := harness.ReadJournal(journal)
	if err != nil {
		return result{}, err
	}

	var plain, traced []float64
	var last *pass
	start := time.Now()
	for len(traced) == 0 || time.Since(start) < b.seconds {
		if dl, _ := ctx.Deadline(); len(traced) > 0 && time.Until(dl) < 4*time.Duration(median(traced)*float64(time.Second)) {
			break
		}
		// Alternate which side of a pair runs first, so neither gains
		// from the other's warm-up.
		order := []bool{false, true}
		if len(traced)%2 == 1 {
			order = []bool{true, false}
		}
		for _, on := range order {
			p := newPass(b, newRecorder(on))
			if err := p.run(ctx); err != nil {
				return result{}, err
			}
			if on {
				traced = append(traced, p.wall.Seconds())
				last = p
			} else {
				plain = append(plain, p.wall.Seconds())
			}
		}
	}
	restore, mapped, err := last.probes(ctx)
	if err != nil {
		return result{}, err
	}

	l := analyze(last)
	if gap := l.closureGap(); gap < -0.01 || gap > 0.01 {
		r.incorrect = true
		r.note("closure FAILED: layer self times + other_s differ from the traced wall time by %.2f%%", 100*gap)
	}

	cpuSrc, cpuSelf, cpuRecs := l.pick("cpu.RunCtx", "cpu.RunSMTCtx")
	_, stepSelf, stepRecs := l.pick("sim.RunCtx")
	simSrc, simSelf, simRecs := l.pick("sim.RunColumnsMulti")
	r.add("cpu.records", float64(cpuRecs), "count")
	r.add("cpu.busy_s", cpuSelf.Seconds(), "s")
	r.add("cpu.ns_per_record", perRecord(cpuSelf, cpuRecs), "ns")
	r.add("cpu.bpu_share", stepSelf.Seconds()/cpuSelf.Seconds(), "frac")
	hc := caches(last.cores)
	r.add("cache.accesses", float64(hc.accesses), "count")
	for _, lv := range []string{"l1i", "l1d", "l2", "llc"} {
		r.add("cache."+lv+"_miss_ratio", hc.missRatio[lv], "frac")
	}
	r.add("sim.model_records", float64(simRecs), "count")
	r.add("sim.busy_s", simSelf.Seconds(), "s")
	r.add("sim.ns_per_record", perRecord(simSelf, simRecs), "ns")
	r.add("sim.step_ns_per_record", perRecord(stepSelf, stepRecs), "ns")

	ts := last.traces.Stats()
	genDur, _ := l.total(inRun, "tracestore.gen")
	waitSelf, _ := l.self(inRun, "tracestore.Get", "tracestore.GetColumns")
	mmapDur, _ := l.total(inProbe, "tracestore.mmap")
	r.add("tracestore.calls", float64(ts.Hits+ts.Misses), "count")
	r.add("tracestore.hit_ratio", ratio(ts.Hits, ts.Hits+ts.Misses), "frac")
	r.add("tracestore.generations", float64(ts.Generations), "count")
	r.add("tracestore.gen_s", genDur.Seconds(), "s")
	r.add("tracestore.wait_s", waitSelf.Seconds(), "s")
	r.add("tracestore.mmap_load_s", mmapDur.Seconds(), "s")
	r.add("tracestore.bytes", float64(ts.Bytes+ts.BytesMapped), "bytes")

	ss, rs := last.snaps.Stats(), restore.Stats()
	decode, _ := l.total(inProbe, "snapstore.DecodeState")
	r.add("snapstore.puts", float64(ss.Puts), "count")
	r.add("snapstore.hit_ratio", ratio(rs.Hits+rs.DiskHits, rs.Hits+rs.Misses), "frac")
	r.add("snapstore.restore_s", decode.Seconds(), "s")
	r.add("snapstore.bytes", float64(ss.Bytes), "bytes")

	hs := harnessStats(sw.doc, entries)
	r.add("harness.cells", float64(len(entries)), "count")
	r.add("harness.cell_p90_ms", hs.p90, "ms")
	r.add("harness.busy_s", hs.busy, "s")
	r.add("harness.idle_frac", hs.idle, "frac")

	r.add("experiments.other_s", l.other.Seconds(), "s")
	r.add("trace.wall_s", median(traced), "s")

	r.note("workload %s, seed %d: %d untraced and %d traced in-process passes; the last traced pass gives the layer figures", b.w.name, b.seed, len(plain), len(traced))
	r.note("traced pass wall %.4f s (median %.4f s) vs untraced in-process %.4f s: tracing overhead %+.2f%%; untraced subprocess sweep wall %.4f s with %d slots",
		last.wall.Seconds(), median(traced), median(plain), 100*(median(traced)/median(plain)-1), sw.wall.Seconds(), slots)
	r.note("closure: %s + experiments.other_s %.4f s = %.4f s vs traced wall %.4f s", l.selfList(), l.other.Seconds(), l.sum().Seconds(), l.wall.Seconds())
	for _, sp := range l.spans {
		if sp.parent == last.root && strings.HasPrefix(sp.name, "experiments.") {
			r.note("%s_s %.4f", sp.name, sp.dur().Seconds())
		}
	}
	r.note("cpu figures from the %s, sim column-replay figures from the %s; sim.step_ns_per_record and cpu.bpu_share replay the cpu runs' traces on the step path", cpuSrc, simSrc)
	ms := mapped.Stats()
	r.note("tracestore: %d keys read back from a warm directory: %d mmap hits, %d disk errors (a rejected spill is regenerated); snapshot restores %d hits of %d lookups", len(last.keys), ms.MmapHits, ms.DiskErrors, rs.Hits+rs.DiskHits, rs.Hits+rs.Misses)
	r.note("harness: %d journal cells, p50 %.3f ms, p90 %.3f ms (%d samples above p90), suite elapsed %d ms, %d retries, %d wire bytes (the local backend neither retries nor uses a wire)",
		len(entries), hs.p50, hs.p90, hs.above90, sw.doc.ElapsedMS, hs.retries, hs.wire)
	b.simStats(&r)
	return r, nil
}

const (
	inRun   = "run"
	inProbe = "probe"
)

// spanStats is a traced pass's spans with self times and the closure.
type spanStats struct {
	spans     []span
	own       []time.Duration
	root      int
	probe     int
	wall      time.Duration
	layerSelf map[string]time.Duration
	other     time.Duration
}

func analyze(p *pass) *spanStats {
	l := &spanStats{spans: p.rec.spans, own: selfTimes(p.rec.spans), root: p.root, probe: -1, layerSelf: map[string]time.Duration{}}
	for i, s := range l.spans {
		if s.name == "probe" && s.parent < 0 {
			l.probe = i
		}
	}
	l.wall = l.spans[l.root].dur()
	for i, s := range l.spans {
		if !under(l.spans, i, l.root) {
			continue
		}
		if isLayer(s.layer()) {
			l.layerSelf[s.layer()] += l.own[i]
		} else {
			l.other += l.own[i]
		}
	}
	return l
}

func isLayer(name string) bool {
	for _, n := range layerNames {
		if n == name {
			return true
		}
	}
	return false
}

func (l *spanStats) sum() time.Duration {
	t := l.other
	for _, d := range l.layerSelf {
		t += d
	}
	return t
}

// closureGap is (traced wall − layer self times − other) ÷ traced wall.
func (l *spanStats) closureGap() float64 {
	return float64(l.wall-l.sum()) / float64(l.wall)
}

func (l *spanStats) selfList() string {
	var parts []string
	for _, n := range layerNames {
		if d, ok := l.layerSelf[n]; ok {
			parts = append(parts, fmt.Sprintf("%s %.4f s", n, d.Seconds()))
		}
	}
	return strings.Join(parts, " + ")
}

func (l *spanStats) match(i int, where string, names []string) bool {
	root := l.root
	if where == inProbe {
		root = l.probe
	}
	if root < 0 || !under(l.spans, i, root) {
		return false
	}
	for _, n := range names {
		if l.spans[i].name == n {
			return true
		}
	}
	return false
}

// self sums the self times and records of the named spans.
func (l *spanStats) self(where string, names ...string) (time.Duration, int64) {
	var d time.Duration
	var recs int64
	for i := range l.spans {
		if l.match(i, where, names) {
			d += l.own[i]
			recs += l.spans[i].records
		}
	}
	return d, recs
}

// total sums the durations of the named spans.
func (l *spanStats) total(where string, names ...string) (time.Duration, int64) {
	var d time.Duration
	var recs int64
	for i := range l.spans {
		if l.match(i, where, names) {
			d += l.spans[i].dur()
			recs += l.spans[i].records
		}
	}
	return d, recs
}

// pick takes the named spans' self times from the run when the
// workload makes those calls, else from the probes.
func (l *spanStats) pick(names ...string) (string, time.Duration, int64) {
	if d, n := l.self(inRun, names...); d > 0 {
		return "workload's own calls", d, n
	}
	d, n := l.self(inProbe, names...)
	return "probe", d, n
}

func perRecord(d time.Duration, recs int64) float64 {
	if recs == 0 {
		return 0
	}
	return float64(d.Nanoseconds()) / float64(recs)
}

func ratio(a, b uint64) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

type cacheStats struct {
	accesses  uint64
	missRatio map[string]float64
}

// caches sums the hit and miss counters of the given hierarchies. The
// core issues its accesses to L1I and L1D; L2 and LLC see their misses.
func caches(hs []*cache.Hierarchy) cacheStats {
	var hits, misses [4]uint64
	for _, h := range hs {
		for i, c := range []*cache.Cache{h.L1I, h.L1D, h.L2, h.LLC} {
			hits[i] += c.Hits
			misses[i] += c.Misses
		}
	}
	out := cacheStats{accesses: hits[0] + misses[0] + hits[1] + misses[1], missRatio: map[string]float64{}}
	for i, lv := range []string{"l1i", "l1d", "l2", "llc"} {
		out.missRatio[lv] = ratio(misses[i], hits[i]+misses[i])
	}
	return out
}

type harnessFigures struct {
	p50, p90, busy, idle float64
	above90              int
	retries, wire        uint64
}

// harnessStats reads cell times from the journal and busy time, retries
// and wire bytes from the document's backend block.
func harnessStats(doc suiteDoc, entries []harness.JournalEntry) harnessFigures {
	var f harnessFigures
	ms := make([]float64, len(entries))
	var cellSum float64
	for i, e := range entries {
		ms[i] = float64(e.ElapsedUS) / 1000
		cellSum += ms[i]
	}
	f.p50, f.p90 = quantile(ms, 0.5), quantile(ms, 0.9)
	for _, m := range ms {
		if m > f.p90 {
			f.above90++
		}
	}
	for _, bs := range doc.Backends {
		f.busy += float64(bs.WallMS) / 1000
		f.retries += bs.Retries
		f.wire += bs.WireJSONBytes + bs.WireBinaryBytes
	}
	if doc.ElapsedMS > 0 {
		f.idle = 1 - cellSum/(float64(doc.ElapsedMS)*slots)
	}
	return f
}
