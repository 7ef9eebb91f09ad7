package harness

// The run journal: a streaming JSONL record of completed cells that
// makes suite runs resumable. Every finished cell is appended as one
// line keyed by the full cell address (scenario, params, scope, shard,
// rootSeed) — the same five values that make a cell a pure function —
// so a crashed run's journal, loaded back with ResumeJournal, lets Map
// skip the cells that already completed and splice their stored values
// into its output. Because cells are deterministic, a resumed run's
// final document is byte-identical to an uninterrupted one (modulo
// timing and backend-placement stats).

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"sync"
	"time"
)

// Sink receives every completed cell — wire-encoded result included —
// as it finishes. Pool.SetSink installs one. Calls arrive concurrently
// from worker goroutines (deliberately outside the pool lock, so cell
// completions never serialize behind another cell's journal I/O);
// implementations must synchronize internally, as Journal does with
// its own mutex. Cells completed by a resumed journal are replayed
// through the sink too, with Cell.Backend == "journal".
type Sink interface {
	CellDone(c Cell, spec CellSpec, res CellResult)
}

// CellLookup is implemented by sinks that already hold results for some
// cells (a resumed Journal). Map consults it before scheduling: cells
// that are present are skipped, their stored values spliced into the
// output, and their completion replayed to the observer and sink so
// run-level accounting (Report.Cells) matches an uninterrupted run.
type CellLookup interface {
	LookupCell(spec CellSpec) (CellResult, bool)
}

// JournalEntry is one journal line: a completed cell's address and its
// wire-encoded value. Failed cells are never journaled — a resumed run
// retries them.
type JournalEntry struct {
	Scenario string `json:"scenario"`
	Params   Params `json:"params"`
	Scope    string `json:"scope"`
	Shard    int    `json:"shard"`
	RootSeed uint64 `json:"root_seed"`
	// Seed is the derived per-cell seed (informational; workers re-derive
	// it from the address).
	Seed uint64 `json:"seed,omitempty"`
	// Backend names the backend that originally executed the cell.
	Backend string `json:"backend,omitempty"`
	// ElapsedUS is the cell's original wall-clock time in microseconds.
	ElapsedUS int64 `json:"elapsed_us,omitempty"`
	// Value is the cell's wire-encoded result.
	Value json.RawMessage `json:"value"`
}

// CanonicalParams collapses a Params to the canonical string used
// everywhere a cell address becomes a comparable key: journal lookups,
// worker batch grouping (executeCells), and stbpu-report's journal
// flattening. One definition keeps the three in lockstep — if the
// canonicalization ever changes, every keyed site changes with it.
func CanonicalParams(p Params) (string, error) {
	pj, err := json.Marshal(p)
	if err != nil {
		return "", err
	}
	return string(pj), nil
}

// journalKey is a cell address in comparable form: params are collapsed
// via CanonicalParams.
type journalKey struct {
	scenario, params, scope string
	shard                   int
	root                    uint64
}

func specJournalKey(s CellSpec) (journalKey, error) {
	pj, err := CanonicalParams(s.Params)
	if err != nil {
		return journalKey{}, err
	}
	return journalKey{scenario: s.Scenario, params: pj, scope: s.Scope, shard: s.Shard, root: s.RootSeed}, nil
}

// journalValue is the indexed payload of one completed cell. Only
// entries loaded by a resume carry a value (Map splices them); cells
// appended during the run index presence alone — on a million-cell
// sweep, retaining every appended value would grow the coordinator by
// the whole run's worth of JSON that nothing ever reads back.
type journalValue struct {
	value     json.RawMessage // nil for cells appended this run
	elapsedUS int64
}

// Journal is a Sink that streams completed cells to a JSONL file and,
// when resumed from an existing file, a CellLookup that answers which
// cells are already done. One line is written per cell with a single
// Write call, so a crash can corrupt at most the final line — which the
// loader tolerates and drops.
type Journal struct {
	mu       sync.Mutex
	f        *os.File
	index    map[journalKey]journalValue
	loaded   int
	appended int
	writeErr error
}

// CreateJournal creates (or truncates) a fresh journal at path.
func CreateJournal(path string) (*Journal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	return &Journal{f: f, index: map[journalKey]journalValue{}}, nil
}

// ResumeJournal opens the journal at path, loads its completed cells,
// and appends subsequent completions. A missing file resumes into an
// empty journal (the degenerate case: nothing to skip). A truncated
// final line — the signature of a run killed mid-write — is dropped
// AND physically truncated away before appending, so the resumed file
// stays parseable line by line; corruption anywhere else is an error.
func ResumeJournal(path string) (*Journal, error) {
	entries, goodLen, err := scanJournal(path)
	switch {
	case err == nil:
		// Cut the dropped tail off before appending — writing after it
		// would weld the next entry onto garbage mid-file, poisoning
		// every later read of the journal.
		if err := os.Truncate(path, goodLen); err != nil {
			return nil, err
		}
	case errors.Is(err, os.ErrNotExist):
		// Fresh journal.
	default:
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, err
	}
	j := &Journal{f: f, index: make(map[journalKey]journalValue, len(entries))}
	for _, e := range entries {
		pj, err := CanonicalParams(e.Params)
		if err != nil {
			f.Close()
			return nil, err
		}
		k := journalKey{scenario: e.Scenario, params: pj, scope: e.Scope, shard: e.Shard, root: e.RootSeed}
		if _, dup := j.index[k]; !dup {
			j.index[k] = journalValue{value: e.Value, elapsedUS: e.ElapsedUS}
			j.loaded++
		}
	}
	return j, nil
}

// ReadJournal parses the journal at path into entries, dropping a
// truncated final line. It opens the file read-only, so reporting tools
// can load a journal that another run is still appending to.
func ReadJournal(path string) ([]JournalEntry, error) {
	entries, _, err := scanJournal(path)
	return entries, err
}

// scanJournal parses the journal and reports how many leading bytes
// hold well-formed, newline-terminated entries. Every entry is written
// with a single Write that includes the trailing newline, so a line
// missing its newline (or failing to parse at the very end of the
// file) is a mid-write tail and is dropped — excluded from goodLen so
// ResumeJournal can truncate it away. A malformed line with content
// after it is real corruption and errors out.
func scanJournal(path string) (entries []JournalEntry, goodLen int64, err error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer f.Close()
	br := bufio.NewReaderSize(f, 1<<20)
	var pendingErr error
	line := 0
	for {
		b, readErr := br.ReadBytes('\n')
		if len(b) > 0 {
			line++
			if pendingErr != nil {
				return nil, 0, pendingErr
			}
			terminated := b[len(b)-1] == '\n'
			content := b
			if terminated {
				content = b[:len(b)-1]
			}
			switch {
			case len(content) == 0:
				goodLen += int64(len(b)) // stray blank line: harmless
			case !terminated:
				// Mid-write tail (our writer always includes the newline):
				// dropped, and excluded from goodLen.
			default:
				var e JournalEntry
				if uerr := json.Unmarshal(content, &e); uerr != nil {
					pendingErr = fmt.Errorf("journal %s line %d: %w", path, line, uerr)
					continue
				}
				entries = append(entries, e)
				goodLen += int64(len(b))
			}
		}
		if readErr != nil {
			if errors.Is(readErr, io.EOF) {
				return entries, goodLen, nil // a bad FINAL line is a dropped tail
			}
			return nil, 0, fmt.Errorf("journal %s: %w", path, readErr)
		}
	}
}

// CellDone implements Sink: successful, addressable cells append one
// JSONL line; errored cells, anonymous cells (Map outside RunAll), and
// cells already present (a resumed run replaying restored completions)
// are skipped. Write failures are sticky and surface from Err/Close.
func (j *Journal) CellDone(c Cell, spec CellSpec, res CellResult) {
	if spec.Scenario == "" {
		return
	}
	if res.Err != "" || len(res.Value) == 0 {
		// A cell that failed is legitimately skipped — resume retries it.
		// But a cell that *succeeded* and still has no wire value hit a
		// wire-encoding failure (e.g. a NaN in its result): the caller
		// believes it is persisted, so that must fail the run at Close,
		// not silently leave a hole the resume re-executes.
		if c.Err == nil {
			j.recordErr(fmt.Errorf("cell %s/%s/%d not journalable: %s", spec.Scenario, spec.Scope, spec.Shard, res.Err))
		}
		return
	}
	key, err := specJournalKey(spec)
	if err != nil {
		j.recordErr(err)
		return
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	// Once a write has failed, stop appending entirely: a partial line
	// followed by later successful writes would weld garbage into the
	// middle of the file, turning a resumable prefix into a journal no
	// resume will accept. The sticky error already fails the run at
	// Close; keeping the file a clean prefix preserves what it holds.
	if j.writeErr != nil {
		return
	}
	if _, dup := j.index[key]; dup {
		return
	}
	line, err := json.Marshal(JournalEntry{
		Scenario:  spec.Scenario,
		Params:    spec.Params,
		Scope:     spec.Scope,
		Shard:     spec.Shard,
		RootSeed:  spec.RootSeed,
		Seed:      spec.Seed,
		Backend:   c.Backend,
		ElapsedUS: res.ElapsedUS,
		Value:     res.Value,
	})
	if err != nil {
		j.setErrLocked(err)
		return
	}
	if _, err := j.f.Write(append(line, '\n')); err != nil {
		j.setErrLocked(err)
		return
	}
	j.index[key] = journalValue{elapsedUS: res.ElapsedUS}
	j.appended++
}

// LookupCell implements CellLookup. Only resume-loaded cells answer:
// cells appended during this run are indexed for dedup but their
// values live on disk alone. A hit releases the stored value — Map
// splices each cell exactly once, and holding a 95%-complete sweep's
// JSON in memory for the rest of the run would dwarf the work left to
// do. (A hypothetical second lookup of the same cell re-executes it
// deterministically; dedup still suppresses a duplicate append.)
func (j *Journal) LookupCell(spec CellSpec) (CellResult, bool) {
	key, err := specJournalKey(spec)
	if err != nil {
		return CellResult{}, false
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	v, ok := j.index[key]
	if !ok || v.value == nil {
		return CellResult{}, false
	}
	j.index[key] = journalValue{elapsedUS: v.elapsedUS}
	return CellResult{Shard: spec.Shard, Value: v.value, ElapsedUS: v.elapsedUS}, true
}

// Loaded reports how many completed cells the journal carried when it
// was resumed (0 for a fresh journal).
func (j *Journal) Loaded() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.loaded
}

// Appended reports how many cells this process added to the journal.
func (j *Journal) Appended() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.appended
}

// Err returns the first write or encode failure, if any. A journal that
// stopped persisting must fail the run loudly — otherwise a later crash
// would silently lose the cells the caller believed were safe.
func (j *Journal) Err() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.writeErr
}

func (j *Journal) recordErr(err error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	j.setErrLocked(err)
}

func (j *Journal) setErrLocked(err error) {
	if j.writeErr == nil {
		j.writeErr = err
	}
}

// Close flushes and closes the journal file, returning the first error
// seen over the journal's lifetime (sticky write failures included).
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.f == nil {
		return j.writeErr
	}
	err := j.f.Close()
	j.f = nil
	if j.writeErr != nil {
		return j.writeErr
	}
	return err
}

// journalElapsed converts a stored elapsed time back to a duration for
// replayed observer cells.
func journalElapsed(us int64) time.Duration { return time.Duration(us) * time.Microsecond }
