// Command perfbench is the end-to-end benchmark of stbpu-suite. It runs
// one workload — a fixed set of suite scenarios at a fixed sweep size —
// in a closed loop of one client: one stbpu-suite subprocess after
// another, each to completion, for --seconds. Every run's document is
// checked against a one-worker reference computed in set-up, and a
// default-seed reference against the result hash committed in
// expected.json. The
// last line of standard output is one JSON object with the metrics
// BENCHMARK.json names: the end-to-end metrics with --trace 0, the
// per-layer metrics of an in-process traced run with --trace 1.
//
// Usage (from the repository root, after run.sh has built the binaries):
//
//	perfbench --workload timing-model --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads, the metrics and
// the layer → metric → workload map.
package main

import (
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"stbpu/internal/harness"
	"stbpu/internal/sim"
)

// workload is one benchmark input: which scenarios run, at what size.
// Every workload runs on the local backend with no disk tier.
type workload struct {
	name      string
	scenarios []string
	scale     harness.Params
}

// Sweep sizes keep one sweep within about two seconds on a 2-core host,
// so a run of --seconds holds enough sweeps for a steady median, and
// keep the layer shares of a CPU profile at the suite's default size
// (see README.md).
var workloads = []workload{
	{name: "timing-model", scenarios: []string{"fig4", "fig5", "fig6"},
		scale: harness.Params{Records: 20_000, MaxWorkloads: 6, MaxPairs: 4}},
	{name: "bpu-replay", scenarios: []string{"fig3", "defense-accuracy", "ittage", "warmup", "workloads"},
		scale: harness.Params{Records: 120_000, MaxWorkloads: 10, MaxPairs: 4}},
}

const (
	// defaultSeed sets the bounds in BENCHMARK.json and is the seed of
	// the hashes in expected.json; heldOutSeed was never used while
	// tuning, so later claims can be checked on it.
	defaultSeed = 1
	heldOutSeed = 20261017
	// slots is the number of cells a sweep runs at once (-workers). The
	// reference runs with one, so its scheduling differs from a sweep's.
	slots = 2
	// setupReps is how many times set-up runs; setup_s is the median.
	setupReps = 5
	// budget bounds one benchmark invocation, below the 180 s limit.
	budget = 165 * time.Second
)

func main() {
	wl := flag.String("workload", "", "workload: timing-model or bpu-replay")
	seed := flag.Uint64("seed", defaultSeed, "root seed of every suite run")
	seconds := flag.Int("seconds", 10, "how long the timed loop runs")
	traced := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from an in-process traced run")
	bin := flag.String("suite", filepath.Join(".bench_build", "bin", "stbpu-suite"), "stbpu-suite binary")
	work := flag.String("work", filepath.Join(".bench_build", "work"), "scratch directory for documents and tiers")
	flag.Parse()
	if err := run(*wl, *seed, *seconds, *traced, *bin, *work); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(name string, seed uint64, seconds, traced int, bin, work string) error {
	var w *workload
	for i := range workloads {
		if workloads[i].name == name {
			w = &workloads[i]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown --workload %q", name)
	}
	if seconds < 1 || (traced != 0 && traced != 1) {
		return fmt.Errorf("need --seconds >= 1 and --trace 0 or 1")
	}
	if _, err := os.Stat(bin); err != nil {
		return fmt.Errorf("suite binary: %w", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	dir, err := os.MkdirTemp(work, w.name+"-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	b := &bench{w: *w, seed: seed, bin: bin, dir: dir, seconds: time.Duration(seconds) * time.Second}
	var out result
	if traced == 0 {
		out, err = b.endToEnd(ctx)
	} else {
		out, err = b.layers(ctx)
	}
	if err != nil {
		return err
	}
	out.print(os.Stdout)
	return nil
}

// bench holds one invocation's settings, reference and output check
// counts.
type bench struct {
	w       workload
	seed    uint64
	bin     string
	dir     string
	seconds time.Duration

	ref     sweep  // one-worker reference document
	refHash string // its result hash
	records int64  // simulated records per sweep
	n       int    // documents written so far (names output files)

	// Every checked suite run adds its cells to attempted, and to
	// failed when its document fails the check.
	attempted, failed uint64
	failures          []string
}

// args is the suite command line for the workload at seed with the
// given number of workers.
func (b *bench) args(seed uint64, workers int) []string {
	s := b.w.scale
	return []string{"-run", strings.Join(b.w.scenarios, ","),
		"-seed", strconv.FormatUint(seed, 10),
		"-records", strconv.Itoa(s.Records),
		"-workloads", strconv.Itoa(s.MaxWorkloads),
		"-pairs", strconv.Itoa(s.MaxPairs),
		"-workers", strconv.Itoa(workers)}
}

func (b *bench) suite(ctx context.Context, seed uint64, workers int, extra ...string) (sweep, error) {
	b.n++
	return runSuite(ctx, b.bin, append(b.args(seed, workers), extra...), filepath.Join(b.dir, fmt.Sprintf("doc%d.json", b.n)))
}

// check counts one suite run's cells as attempted and, if its document
// fails checkDoc against wantHash, as failed.
func (b *bench) check(what string, sw sweep, wantHash string) bool {
	cells := b.ref.doc.cells()
	b.attempted += cells
	if err := checkDoc(sw, b.w.scenarios, wantHash); err != nil {
		b.failed += cells
		b.failures = append(b.failures, fmt.Sprintf("%s: %v", what, err))
		return false
	}
	return true
}

// setup runs the one-worker reference at the run's seed; the first
// reference is the one every later run must match. It returns the time
// it took.
func (b *bench) setup(ctx context.Context) (time.Duration, error) {
	start := time.Now()
	ref, err := b.suite(ctx, b.seed, 1)
	if err != nil {
		return 0, fmt.Errorf("reference run: %w", err)
	}
	if b.refHash == "" {
		if b.refHash, err = resultHash(ref.raw); err != nil {
			return 0, err
		}
		b.ref = ref
		if b.records, err = ref.doc.simRecords(); err != nil {
			return 0, err
		}
	}
	d := time.Since(start)
	b.check("reference", ref, b.refHash)
	return d, nil
}

// pinned checks the workload's result hash at the default seed against
// the one committed in expected.json, so a change that alters results
// repeatably fails even though every run of it agrees with its own
// reference. At another seed it runs the default-seed reference once;
// that run is not part of set-up.
func (b *bench) pinned(ctx context.Context) error {
	want, err := expectedHash(b.w.name)
	if err != nil {
		return err
	}
	if b.seed == defaultSeed {
		b.check("pinned hash", b.ref, want)
		return nil
	}
	sw, err := b.suite(ctx, defaultSeed, 1)
	if err != nil {
		return fmt.Errorf("default-seed reference run: %w", err)
	}
	b.check("pinned hash", sw, want)
	return nil
}

// endToEnd is the --trace 0 run: set-up setupReps times, then sweeps
// until --seconds have passed.
func (b *bench) endToEnd(ctx context.Context) (result, error) {
	var setups []float64
	for i := 0; i < setupReps; i++ {
		d, err := b.setup(ctx)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
	}
	if err := b.pinned(ctx); err != nil {
		return result{}, err
	}
	var all []sweep
	var slowest time.Duration
	cells := b.ref.doc.cells()
	loopStart := time.Now()
	for n := 0; n < 3 || time.Since(loopStart) < b.seconds; n++ {
		if dl, _ := ctx.Deadline(); n >= 3 && time.Until(dl) < 2*slowest {
			break // keep clear of the invocation's time limit
		}
		sw, err := b.suite(ctx, b.seed, slots)
		if err != nil {
			b.attempted += cells
			b.failed += cells
			b.failures = append(b.failures, fmt.Sprintf("sweep: %v", err))
			if ctx.Err() != nil {
				break
			}
			continue
		}
		if b.check("sweep", sw, b.refHash) {
			all = append(all, sw)
			slowest = max(slowest, sw.wall)
		}
	}
	if len(all) == 0 {
		return result{}, fmt.Errorf("every sweep failed")
	}
	used := calm(all)
	var walls, cpus, rss []float64
	for _, s := range used {
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, float64(s.maxRSSKB)/1024)
	}
	r := b.result()
	r.add("wall_s", median(walls), "s")
	r.add("cpu_s", median(cpus), "s")
	r.add("sim_records_per_s", float64(b.records)/median(walls), "1/s")
	r.add("peak_rss_mb", median(rss), "MB")
	r.add("setup_s", median(setups), "s")
	r.add("success_frac", 1-float64(b.failed)/float64(b.attempted), "frac")
	allWalls, steals := make([]float64, len(all)), make([]float64, len(all))
	for i, s := range all {
		allWalls[i], steals[i] = s.wall.Seconds(), 100*s.stealShare()
	}
	r.note("workload %s: %d sweeps of %d cells and %d simulated records each, seed %d (held-out seed %d)",
		b.w.name, len(all), cells, b.records, b.seed, heldOutSeed)
	r.note("%d of %d sweeps had a steal share at or below the median and give the figures; wall_s median over all sweeps %.4f",
		len(used), len(all), median(allWalls))
	r.note("wall_s min/median/max %.4f/%.4f/%.4f over the used sweeps; setup_s over %d set-ups %.4f",
		minOf(walls), median(walls), maxOf(walls), len(setups), setups)
	r.note("all sweeps in order: wall %.3f; steal %% %.1f", allWalls, steals)
	b.simStats(&r)
	return r, nil
}

// expectedJSON holds each workload's result hash at defaultSeed, taken
// from a one-worker reference run. A change that alters simulation
// results on purpose updates it.
//
//go:embed expected.json
var expectedJSON []byte

func expectedHash(workload string) (string, error) {
	var e struct {
		Seed   uint64            `json:"seed"`
		Hashes map[string]string `json:"hashes"`
	}
	if err := json.Unmarshal(expectedJSON, &e); err != nil {
		return "", fmt.Errorf("expected.json: %w", err)
	}
	if e.Seed != defaultSeed || e.Hashes[workload] == "" {
		return "", fmt.Errorf("expected.json has no hash for %s at seed %d", workload, defaultSeed)
	}
	return e.Hashes[workload], nil
}

// result starts the output with the output check's counts and notes.
func (b *bench) result() result {
	r := result{attempted: b.attempted, failed: b.failed}
	r.note("output check: %d of %d cells failed; references run with -workers 1, sweeps with -workers %d; default-seed hash pinned by expected.json", b.failed, b.attempted, slots)
	for _, f := range b.failures {
		r.note("FAILED %s", f)
	}
	return r
}

// simStats reports simulated statistics of the reference document.
func (b *bench) simStats(r *result) {
	r.note("simulated statistics (IPC, OAE and with --trace 1 the cache miss ratios) come from an unvalidated model: none is checked against hardware, and no error figure is given")
	for _, run := range b.ref.doc.Runs {
		switch run.Scenario {
		case "fig4", "fig5":
			var res struct{ Avg []struct{ NormIPC float64 } }
			if json.Unmarshal(run.Result, &res) == nil {
				ipcs := make([]string, len(res.Avg))
				for i, a := range res.Avg {
					ipcs[i] = fmt.Sprintf("%.4f", a.NormIPC)
				}
				r.note("sim %s mean normalized IPC per predictor (perceptron, SKLCond, TAGE64, TAGE8): %s", run.Scenario, strings.Join(ipcs, " "))
			}
		case "fig3":
			var res struct {
				Rows          []struct{ OAE []float64 }
				AvgNormalized []float64
			}
			if json.Unmarshal(run.Result, &res) == nil && len(res.Rows) > 0 {
				var means []string
				for k, kind := range sim.Fig3Kinds() {
					var s float64
					for _, row := range res.Rows {
						s += row.OAE[k]
					}
					means = append(means, fmt.Sprintf("%s %.4f (normalized %.4f)", kind, s/float64(len(res.Rows)), res.AvgNormalized[k]))
				}
				r.note("sim fig3 mean OAE per model: %s", strings.Join(means, ", "))
			}
		}
	}
}

// result is the benchmark's output: the metrics of the contract line
// and the report lines printed before it.
type result struct {
	attempted, failed uint64
	incorrect         bool
	names             []string
	metrics           map[string]metric
	notes             []string
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func (r *result) add(name string, v float64, unit string) {
	if r.metrics == nil {
		r.metrics = map[string]metric{}
	}
	if math.IsNaN(v) || math.IsInf(v, 0) {
		v = 0
	}
	r.names = append(r.names, name)
	r.metrics[name] = metric{Value: v, Unit: unit}
}

func (r *result) note(format string, args ...any) {
	r.notes = append(r.notes, fmt.Sprintf(format, args...))
}

func (r result) print(f io.Writer) {
	for _, n := range r.notes {
		fmt.Fprintln(f, "#", n)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		fmt.Fprintf(f, "%-28s %.6g %s\n", n, m.Value, m.Unit)
	}
	// Marshal cannot fail: add stored every value finite.
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted uint64            `json:"attempted"`
		Failed    uint64            `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{!r.incorrect && r.failed == 0, r.attempted, r.failed, r.metrics})
	fmt.Fprintln(f, string(line))
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// quantile is the nearest-rank q-quantile of xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(0, min(i, len(s)-1))]
}

func minOf(xs []float64) float64 { return quantile(xs, 0) }
func maxOf(xs []float64) float64 { return quantile(xs, 1) }
