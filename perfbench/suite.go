package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"stbpu/internal/harness"
	"stbpu/internal/trace/spec"
)

// sweep is one finished stbpu-suite subprocess run.
type sweep struct {
	wall time.Duration
	// cpu is user+sys time of the suite process plus every child it
	// reaped, as wait4 reports it.
	cpu time.Duration
	// maxRSSKB is the largest max RSS of the suite process or any child
	// it reaped.
	maxRSSKB int64
	// steal is the CPU time the hypervisor withheld from this machine's
	// CPUs while the sweep ran, summed over CPUs.
	steal time.Duration
	raw   []byte
	doc   suiteDoc
}

// stealShare is the fraction of the machine's CPU time during the sweep
// that the hypervisor stole.
func (s sweep) stealShare() float64 {
	return s.steal.Seconds() / (s.wall.Seconds() * float64(runtime.NumCPU()))
}

// calm returns the sweeps whose steal share is at or below the median
// sweep's. On a shared host the hypervisor's steal comes and goes
// during a run, and a sweep slowed by it measures the neighbours, not
// the program; ranking by the share keeps the choice independent of the
// program's own speed. Without steal every sweep is kept.
func calm(sws []sweep) []sweep {
	shares := make([]float64, len(sws))
	for i, s := range sws {
		shares[i] = s.stealShare()
	}
	limit := median(shares)
	var out []sweep
	for _, s := range sws {
		if s.stealShare() <= limit {
			out = append(out, s)
		}
	}
	return out
}

// stealTime reads the steal time of all CPUs from /proc/stat; it is 0
// where the kernel reports none.
func stealTime() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line) // cpu user nice system idle iowait irq softirq steal ...
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, _ := strconv.ParseInt(f[8], 10, 64)
	return time.Duration(n) * (time.Second / userHZ)
}

// userHZ is the unit of /proc/stat times on Linux.
const userHZ = 100

// suiteDoc is the part of the stbpu-suite document the benchmark reads
// (schema: docs/SUITE_JSON.md).
type suiteDoc struct {
	ElapsedMS int64 `json:"elapsed_ms"`
	Runs      []struct {
		Scenario  string          `json:"scenario"`
		Cells     uint64          `json:"cells"`
		ElapsedMS int64           `json:"elapsed_ms"`
		Params    harness.Params  `json:"params"`
		Result    json.RawMessage `json:"result"`
	} `json:"runs"`
	Backends []harness.BackendStats `json:"backends"`
}

// runSuite runs the suite binary with args, writing its document to
// out, and waits for it and every worker it started. The process gets
// its own process group so a deadline kills any process it started.
func runSuite(ctx context.Context, bin string, args []string, out string) (sweep, error) {
	cmd := exec.CommandContext(ctx, bin, append(args, "-o", out)...)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	cmd.Cancel = func() error { return syscall.Kill(-cmd.Process.Pid, syscall.SIGKILL) }
	cmd.WaitDelay = 5 * time.Second
	steal0 := stealTime()
	start := time.Now()
	err := cmd.Run()
	wall := time.Since(start)
	if err != nil {
		return sweep{}, fmt.Errorf("stbpu-suite %v: %w: %s", args, err, lastLines(stderr.String(), 5))
	}
	sw := sweep{wall: wall, steal: stealTime() - steal0}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		sw.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		sw.maxRSSKB = ru.Maxrss
	}
	if sw.raw, err = os.ReadFile(out); err != nil {
		return sweep{}, err
	}
	if err := json.Unmarshal(sw.raw, &sw.doc); err != nil {
		return sweep{}, fmt.Errorf("decode suite document: %w", err)
	}
	return sw, nil
}

func lastLines(s string, n int) string {
	lines := bytes.Split(bytes.TrimSpace([]byte(s)), []byte("\n"))
	if len(lines) > n {
		lines = lines[len(lines)-n:]
	}
	return string(bytes.Join(lines, []byte(" | ")))
}

// resultHash hashes a suite document with every field that may differ
// between correct runs removed: timing, worker counts, and the backend
// and store counters. What remains is the seed, the parameters, the cell
// counts and every result value, so two runs hash alike exactly when
// they computed the same results. Numbers keep their printed digits.
func resultHash(raw []byte) (string, error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.UseNumber()
	var doc map[string]any
	if err := dec.Decode(&doc); err != nil {
		return "", fmt.Errorf("decode suite document: %w", err)
	}
	for _, k := range []string{"elapsed_ms", "workers", "backends", "trace_store", "snap_store"} {
		delete(doc, k)
	}
	runs, _ := doc["runs"].([]any)
	for _, r := range runs {
		if m, ok := r.(map[string]any); ok {
			delete(m, "elapsed_ms")
			delete(m, "workers")
		}
	}
	canon, err := json.Marshal(doc) // map keys marshal sorted
	if err != nil {
		return "", err
	}
	sum := sha256.Sum256(canon)
	return hex.EncodeToString(sum[:]), nil
}

// checkDoc verifies one suite document: the expected scenarios, each
// with cells, and the expected result hash.
func checkDoc(sw sweep, scenarios []string, wantHash string) error {
	got := make([]string, 0, len(sw.doc.Runs))
	for _, r := range sw.doc.Runs {
		if r.Cells == 0 {
			return fmt.Errorf("scenario %s ran no cells", r.Scenario)
		}
		got = append(got, r.Scenario)
	}
	want := append([]string(nil), scenarios...)
	sort.Strings(want)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		return fmt.Errorf("scenarios %v, want %v", got, want)
	}
	h, err := resultHash(sw.raw)
	if err != nil {
		return err
	}
	if h != wantHash {
		return fmt.Errorf("result hash %s differs from the expected %s", h, wantHash)
	}
	return nil
}

// cells is the number of cells the document reports.
func (d suiteDoc) cells() uint64 {
	var n uint64
	for _, r := range d.Runs {
		n += r.Cells
	}
	return n
}

// simRecords counts the simulated (model × trace record) steps a
// document's scenarios perform on the local backend; SMT runs count
// both threads. Scenarios that replay no trace (tablei, covert,
// defense-matrix, thresholds, gamma) count zero.
func (d suiteDoc) simRecords() (int64, error) {
	var total int64
	for _, r := range d.Runs {
		recs, cells := int64(r.Params.Records), int64(r.Cells)
		switch r.Scenario {
		case "fig3", "defense-accuracy", "ittage":
			total += cells * recs
		case "fig4":
			total += cells * 2 * recs // unprotected + ST core per cell
		case "fig5":
			total += cells * 2 * 2 * recs
		case "fig6":
			sweepLen := int64(len(r.Params.Sweep))
			if sweepLen == 0 || cells%sweepLen != 0 {
				return 0, fmt.Errorf("fig6: %d cells over a %d-point sweep", cells, sweepLen)
			}
			pairs := cells / sweepLen
			total += (cells + pairs) * 2 * recs // ST per cell + one baseline per pair
		case "warmup":
			// Preset workloads replay one pass of the longest length per
			// model; cells are (length × model).
			maxLen, n := 0.0, int64(len(r.Params.Sweep))
			for _, l := range r.Params.Sweep {
				maxLen = max(maxLen, l)
			}
			if n == 0 || cells%n != 0 {
				return 0, fmt.Errorf("warmup: %d cells over %d lengths", cells, n)
			}
			total += cells / n * int64(maxLen)
		case "workloads":
			var phases, recsAll int64
			for _, s := range capList(spec.Builtin(), r.Params.MaxWorkloads) {
				n := int64(r.Params.Records)
				if n == 0 {
					n = int64(s.TotalRecords())
				}
				phases += int64(len(s.Phases))
				recsAll += n
			}
			if phases == 0 || cells%phases != 0 {
				return 0, fmt.Errorf("workloads: %d cells over %d phases", cells, phases)
			}
			total += cells / phases * recsAll // every model replays each spec once
		}
	}
	return total, nil
}

func capList[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[:n]
	}
	return xs
}
