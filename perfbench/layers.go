package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"

	"stbpu/internal/cache"
	"stbpu/internal/core"
	"stbpu/internal/cpu"
	"stbpu/internal/experiments"
	"stbpu/internal/harness"
	"stbpu/internal/sim"
	"stbpu/internal/snapstore"
	"stbpu/internal/stats"
	"stbpu/internal/token"
	"stbpu/internal/trace"
	"stbpu/internal/trace/spec"
	"stbpu/internal/tracestore"
)

// The traced run calls the layers' public entry points itself, so it
// can record a span around each call without tracing inside the
// program. One scenario per layer is replayed call by call, serially,
// in the order one worker would run it: fig6 for cpu and cache, fig3
// for sim's column replay, workloads for snapstore. Every other
// scenario runs whole through its registered Scenario.Run on a
// one-worker in-process pool, and only its trace generation is
// attributed; the rest of its time is experiments.other_s. Every
// scenario's result must equal the reference document's, byte for byte.

// probeTrace is the fixed input of the probes that time a layer the
// workload itself does not call.
const (
	probeTrace   = "mysql_128con_50s"
	probeRecords = 20_000
)

// layerNames are the layers the pass calls; the closure accounts their
// self time. Spans of any other name ("run", "experiments.*") are the
// remainder, experiments.other_s. The cache layer runs inside cpu.Core
// and is read through Core.Hierarchy(); the harness figures come from
// the journal sweep.
var layerNames = []string{"cpu", "sim", "tracestore", "snapstore"}

// pass is one in-process run of the workload's scenarios.
type pass struct {
	b      *bench
	rec    *recorder
	traces *tracestore.Store
	snaps  *snapstore.Store
	pool   *harness.Pool
	root   int
	wall   time.Duration

	keys     []tracestore.Key // trace keys the replayed calls fetched, first-use order
	seen     map[tracestore.Key]bool
	cores    []*cache.Hierarchy // hierarchy of every cpu.Core the pass ran
	steps    []stepWork         // step-path replays of the pass's cpu runs
	snapKeys []snapEntry        // checkpoints the pass stored
}

// stepWork replays a cpu run's traces through a fresh copy of its BPU
// model on the sim.RunCtx step path, for cpu.bpu_share.
type stepWork struct {
	traces []*trace.Trace
	model  func() sim.Model
}

type snapEntry struct {
	key   snapstore.Key
	model func() sim.Model
}

func newPass(b *bench, rec *recorder) *pass {
	p := &pass{b: b, rec: rec, seen: map[tracestore.Key]bool{}}
	p.traces = tracestore.New(0, func(name string, records int) (*trace.Trace, trace.Profile, error) {
		id := rec.begin("tracestore.gen", int64(records))
		defer rec.end(id)
		return tracestore.PresetGen(name, records)
	})
	p.snaps = snapstore.New(0)
	p.pool = harness.NewPool(1, b.seed)
	p.pool.SetTraceStore(p.traces)
	p.pool.SetSnapStore(p.snaps)
	return p
}

// run executes every scenario of the workload under one root span and
// checks each result against the reference document.
func (p *pass) run(ctx context.Context) error {
	names := append([]string(nil), p.b.w.scenarios...)
	sort.Strings(names) // harness.RunAll's order
	start := time.Now()
	p.root = p.rec.begin("run", 0)
	for _, name := range names {
		sc, ok := harness.Get(name)
		if !ok {
			return fmt.Errorf("scenario %s is not registered", name)
		}
		prm := p.b.w.scale.Merged(sc.Defaults)
		var res any
		err := p.rec.do("experiments."+name, 0, func() (err error) {
			switch name {
			case "fig3":
				res, err = p.fig3(ctx, prm)
			case "fig6":
				res, err = p.fig6(ctx, prm)
			case "workloads":
				res, err = p.workloads(ctx, prm)
			default:
				res, err = sc.Run(ctx, prm, p.pool)
			}
			return err
		})
		if err != nil {
			return fmt.Errorf("traced %s: %w", name, err)
		}
		if err := p.b.sameResult(name, res); err != nil {
			return err
		}
	}
	p.rec.end(p.root)
	p.wall = time.Since(start)
	return nil
}

// sameResult compares a traced scenario result with the reference
// document's, number for number.
func (b *bench) sameResult(name string, res any) error {
	got, err := json.Marshal(res)
	if err != nil {
		return err
	}
	for _, r := range b.ref.doc.Runs {
		if r.Scenario == name {
			a, err := canonical(got)
			if err != nil {
				return err
			}
			w, err := canonical(r.Result)
			if err != nil {
				return err
			}
			if !bytes.Equal(a, w) {
				return fmt.Errorf("traced %s result differs from the reference document", name)
			}
			return nil
		}
	}
	return fmt.Errorf("reference document has no %s run", name)
}

func canonical(raw []byte) ([]byte, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var v any
	if err := dec.Decode(&v); err != nil {
		return nil, err
	}
	return json.Marshal(v)
}

func (p *pass) note(name string, records int) {
	k := tracestore.Key{Name: name, Records: records}
	if !p.seen[k] {
		p.seen[k] = true
		p.keys = append(p.keys, k)
	}
}

func (p *pass) columns(name string, records int) (cols *trace.Columns, prof trace.Profile, err error) {
	p.note(name, records)
	err = p.rec.do("tracestore.GetColumns", 0, func() error {
		cols, prof, err = p.traces.GetColumns(name, records)
		return err
	})
	return
}

func (p *pass) get(name string, records int) (tr *trace.Trace, err error) {
	p.note(name, records)
	err = p.rec.do("tracestore.Get", 0, func() error {
		tr, _, err = p.traces.Get(name, records)
		return err
	})
	return
}

func (p *pass) multi(ctx context.Context, models []sim.Model, cols *trace.Columns) (rs []sim.Result, err error) {
	err = p.rec.do("sim.RunColumnsMulti", int64(len(models)*cols.Len()), func() error {
		rs, err = sim.RunColumnsMulti(ctx, models, cols)
		return err
	})
	return
}

// put checkpoints a model's state under key; mk rebuilds the model
// for the restore probe.
func (p *pass) put(key snapstore.Key, sn sim.Snapshotter, mk func() sim.Model) {
	id := p.rec.begin("snapstore.Put", 0)
	p.snaps.Put(key, sn.EncodeState())
	p.rec.end(id)
	p.snapKeys = append(p.snapKeys, snapEntry{key: key, model: mk})
}

// run1 is one single-thread cpu.Core run of a fresh model from mk.
func (p *pass) run1(ctx context.Context, cfg cpu.Config, mk func() sim.Model, tr *trace.Trace) (res cpu.Result, m sim.Model, err error) {
	m = mk()
	c := cpu.New(cfg, m)
	err = p.rec.do("cpu.RunCtx", int64(len(tr.Records)), func() error {
		res, err = c.RunCtx(ctx, tr)
		return err
	})
	p.cores = append(p.cores, c.Hierarchy())
	p.steps = append(p.steps, stepWork{traces: []*trace.Trace{tr}, model: mk})
	return
}

// run2 is one SMT cpu.Core co-run of a fresh model from mk.
func (p *pass) run2(ctx context.Context, cfg cpu.Config, mk func() sim.Model, a, b *trace.Trace) (res cpu.SMTResult, m sim.Model, err error) {
	m = mk()
	c := cpu.New(cfg, m)
	err = p.rec.do("cpu.RunSMTCtx", int64(len(a.Records)+len(b.Records)), func() error {
		res, err = c.RunSMTCtx(ctx, a, b)
		return err
	})
	p.cores = append(p.cores, c.Hierarchy())
	p.steps = append(p.steps, stepWork{traces: []*trace.Trace{a, b}, model: mk})
	return
}

func unprotected(dir core.DirKind, name string) func() sim.Model {
	return func() sim.Model { return &sim.UnitModel{ModelName: name, Unit: core.NewUnprotectedUnit(dir)} }
}

func protected(cfg core.ModelConfig) func() sim.Model {
	return func() sim.Model { return &sim.STBPUModel{Inner: core.NewModel(cfg)} }
}

// fig3 replays experiments.RunFig3Ctx's cells.
func (p *pass) fig3(ctx context.Context, prm harness.Params) (experiments.Fig3Result, error) {
	names := capList(trace.Fig3Workloads(), prm.MaxWorkloads)
	kinds := sim.Fig3Kinds()
	k := len(kinds)
	res := experiments.Fig3Result{Rows: make([]experiments.Fig3Row, len(names))}
	for w, name := range names {
		cols, prof, err := p.columns(name, prm.Records)
		if err != nil {
			return res, err
		}
		models := make([]sim.Model, k)
		for ki, kind := range kinds {
			models[ki] = sim.New(kind, sim.Options{SharedTokens: prof.SharedTokens, Seed: harness.ShardSeed(p.b.seed, "fig3", w*k+ki)})
		}
		rs, err := p.multi(ctx, models, cols)
		if err != nil {
			return res, err
		}
		row := experiments.Fig3Row{Workload: name}
		for ki := range kinds {
			row.OAE[ki] = rs[ki].OAE()
		}
		for ki := range kinds {
			row.Normalized[ki] = row.OAE[ki] / row.OAE[0]
		}
		res.Rows[w] = row
	}
	for ki := 0; ki < k; ki++ {
		vals := make([]float64, len(res.Rows))
		for i, r := range res.Rows {
			vals[i] = r.Normalized[ki]
		}
		res.AvgNormalized[ki] = stats.Mean(vals)
	}
	return res, nil
}

// fig6 replays experiments.RunFig6Ctx's cells; each pair's baseline is
// simulated once, at its first cell.
func (p *pass) fig6(ctx context.Context, prm harness.Params) (experiments.Fig6Result, error) {
	rs := prm.Sweep
	if len(rs) == 0 {
		rs = experiments.DefaultFig6Sweep()
	}
	pairs := capList(trace.SMTPairsExtended(), prm.MaxPairs)
	np := len(pairs)
	baseIPC := make([]float64, np)
	type cell struct {
		acc, ipc float64
		rerands  uint64
	}
	cells := make([]cell, len(rs)*np)
	for shard := range cells {
		ri, pi := shard/np, shard%np
		a, err := p.get(pairs[pi][0], prm.Records)
		if err != nil {
			return experiments.Fig6Result{}, err
		}
		b, err := p.get(pairs[pi][1], prm.Records)
		if err != nil {
			return experiments.Fig6Result{}, err
		}
		cfg := cpu.ConfigFor(a.Name)
		if baseIPC[pi] == 0 {
			base, _, err := p.run2(ctx, cfg, unprotected(core.DirTAGE64, "TAGE64"), a, b)
			if err != nil {
				return experiments.Fig6Result{}, err
			}
			baseIPC[pi] = base.HarmonicMeanIPC()
		}
		th := token.Derive(rs[ri])
		st, m, err := p.run2(ctx, cfg, protected(core.ModelConfig{Dir: core.DirTAGE64, Thresholds: &th, Seed: harness.ShardSeed(p.b.seed, "fig6", shard)}), a, b)
		if err != nil {
			return experiments.Fig6Result{}, err
		}
		misp := st.PerThread[0].Branch.Mispredicts + st.PerThread[1].Branch.Mispredicts
		total := uint64(st.PerThread[0].Branch.Records + st.PerThread[1].Branch.Records)
		cells[shard] = cell{
			acc:     1 - float64(misp)/float64(total),
			ipc:     st.HarmonicMeanIPC() / baseIPC[pi],
			rerands: m.(*sim.STBPUModel).Inner.Rerandomizations(),
		}
	}
	var res experiments.Fig6Result
	for ri, r := range rs {
		var accs, ipcs []float64
		var rerands uint64
		for _, c := range cells[ri*np : (ri+1)*np] {
			accs = append(accs, c.acc)
			ipcs = append(ipcs, c.ipc)
			rerands += c.rerands
		}
		res.Points = append(res.Points, experiments.Fig6Point{R: r, Accuracy: stats.Mean(accs), NormIPC: stats.Mean(ipcs), Rerands: rerands})
	}
	return res, nil
}

// workloads replays experiments.RunWorkloadsCtx on the built-in specs:
// every model walks each spec's phase segments once, and each phase
// boundary is checkpointed into the snapshot store.
func (p *pass) workloads(ctx context.Context, prm harness.Params) (experiments.WorkloadsResult, error) {
	kinds := sim.Fig3Kinds()
	k := len(kinds)
	var res experiments.WorkloadsResult
	for _, kind := range kinds {
		res.Models = append(res.Models, kind.String())
	}
	base := 0
	for _, s := range capList(spec.Builtin(), prm.MaxWorkloads) {
		records := prm.Records
		if records == 0 {
			records = s.TotalRecords()
		}
		wl := s.WorkloadName()
		cols, prof, err := p.columns(wl, records)
		if err != nil {
			return res, err
		}
		bounds := s.Boundaries(records)
		models := make([]sim.Model, k)
		mks := make([]func() sim.Model, k)
		fps := make([]string, k)
		for ki := range kinds {
			kind, opt := kinds[ki], sim.Options{SharedTokens: prof.SharedTokens, Seed: harness.ShardSeed(p.b.seed, "workloads", base+ki)}
			mks[ki] = func() sim.Model { return sim.New(kind, opt) }
			models[ki] = mks[ki]()
			fps[ki] = sim.Fingerprint(kind, opt)
		}
		for pi := 0; pi+1 < len(bounds); pi++ {
			lo, hi := bounds[pi], bounds[pi+1]
			warm := make([]uint64, k)
			for ki, m := range models {
				var r sim.Result
				if f, ok := m.(sim.Finalizer); ok {
					f.Finalize(&r)
				}
				warm[ki] = r.Rerandomizations
			}
			rs, err := p.multi(ctx, models, cols.Slice(lo, hi))
			if err != nil {
				return res, err
			}
			row := experiments.WorkloadPhaseRow{Spec: wl, Phase: s.Phases[pi].Name, Records: hi - lo,
				OAE: make([]float64, k), Normalized: make([]float64, k), Rerands: make([]uint64, k)}
			for ki := range kinds {
				row.OAE[ki] = rs[ki].OAE()
				row.Rerands[ki] = rs[ki].Rerandomizations - warm[ki]
			}
			if b := row.OAE[0]; b > 0 {
				for ki := range kinds {
					row.Normalized[ki] = row.OAE[ki] / b
				}
			}
			res.Rows = append(res.Rows, row)
			if !p.pool.SnapshotsOn() || hi >= records {
				continue
			}
			for ki, m := range models {
				sn, ok := m.(sim.Snapshotter)
				if !ok {
					continue
				}
				p.put(snapstore.Key{Model: fps[ki], Workload: wl, Records: records, Offset: hi}, sn, mks[ki])
			}
		}
		base += len(s.Phases) * k
	}
	return res, nil
}

// probes times, under a root span of their own outside the closed run,
// the layer calls the workload's scenarios do not make: the step-path
// replays behind cpu.bpu_share, a fixed cpu, column-replay and snapshot
// cell where the workload has none, checkpoint restores, and mapping
// the workload's traces from a warm trace directory. It returns the
// stores the tier probes used.
func (p *pass) probes(ctx context.Context) (restore *snapstore.Store, mapped *tracestore.Store, err error) {
	root := p.rec.begin("probe", 0)
	defer p.rec.end(root)
	fixed := tracestore.New(0, nil)
	if len(p.steps) == 0 {
		// No cpu.Core run in the workload: time one on the probe trace.
		tr, _, err := fixed.Get(probeTrace, probeRecords)
		if err != nil {
			return nil, nil, err
		}
		if _, _, err := p.run1(ctx, cpu.ConfigFor(tr.Name), unprotected(core.DirTAGE64, "TAGE64"), tr); err != nil {
			return nil, nil, err
		}
	}
	for _, s := range p.steps {
		m := s.model()
		for _, tr := range s.traces {
			if err := p.rec.do("sim.RunCtx", int64(len(tr.Records)), func() error {
				_, err := sim.RunCtx(ctx, m, tr)
				return err
			}); err != nil {
				return nil, nil, err
			}
		}
	}
	if len(p.snapKeys) == 0 {
		// No column replay or checkpoint in the workload: replay the
		// probe trace's first half through the Fig. 3 lineup and
		// checkpoint every model there.
		cols, prof, err := fixed.GetColumns(probeTrace, probeRecords)
		if err != nil {
			return nil, nil, err
		}
		kinds := sim.Fig3Kinds()
		models := make([]sim.Model, len(kinds))
		mks := make([]func() sim.Model, len(kinds))
		fps := make([]string, len(kinds))
		for ki := range kinds {
			kind, opt := kinds[ki], sim.Options{SharedTokens: prof.SharedTokens, Seed: p.b.seed + uint64(ki)}
			mks[ki] = func() sim.Model { return sim.New(kind, opt) }
			models[ki] = mks[ki]()
			fps[ki] = sim.Fingerprint(kind, opt)
		}
		half := probeRecords / 2
		if _, err := p.multi(ctx, models, cols.Slice(0, half)); err != nil {
			return nil, nil, err
		}
		for ki, m := range models {
			sn, ok := m.(sim.Snapshotter)
			if !ok {
				continue
			}
			p.put(snapstore.Key{Model: fps[ki], Workload: probeTrace, Records: probeRecords, Offset: half}, sn, mks[ki])
		}
	}

	// Restore every checkpoint into a fresh model.
	restore = p.snaps
	for _, s := range p.snapKeys {
		id := p.rec.begin("snapstore.Get", 0)
		data, ok := restore.Get(s.key)
		p.rec.end(id)
		if !ok {
			continue
		}
		m := s.model().(sim.Snapshotter)
		if err := p.rec.do("snapstore.DecodeState", 0, func() error { return m.DecodeState(data) }); err != nil {
			return nil, nil, fmt.Errorf("restore %v: %w", s.key, err)
		}
	}

	// Map every trace the replayed calls fetched from a warm directory,
	// spilled here first.
	dir := filepath.Join(p.b.dir, "spill")
	if err := os.RemoveAll(dir); err != nil {
		return nil, nil, err
	}
	spill := tracestore.New(0, nil)
	spill.SetMapped(true)
	if err := spill.SetDir(dir); err != nil {
		return nil, nil, err
	}
	for _, k := range p.keys {
		if _, _, err := spill.GetColumns(k.Name, k.Records); err != nil {
			return nil, nil, err
		}
	}
	mapped = tracestore.New(0, nil)
	mapped.SetMapped(true)
	if err := mapped.SetDir(dir); err != nil {
		return nil, nil, err
	}
	for _, k := range p.keys {
		if err := p.rec.do("tracestore.mmap", int64(k.Records), func() error {
			_, _, err := mapped.GetColumns(k.Name, k.Records)
			return err
		}); err != nil {
			return nil, nil, err
		}
	}
	return restore, mapped, nil
}
