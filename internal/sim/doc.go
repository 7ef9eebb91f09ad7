// Package sim is the trace-driven BPU simulator of §VII-B1 — the
// simulation layer of docs/ARCHITECTURE.md, between the predictor
// packages (internal/bpu, internal/tage, internal/perceptron,
// internal/ittage, internal/core) and the experiment harness
// (internal/harness, internal/experiments). It replays branch traces
// through protection models and reports OAE (overall effective
// accuracy), direction/target prediction rates, and the event counts
// the security analysis consumes.
//
// Five models reproduce Fig. 3:
//
//	Baseline      — unprotected Skylake-style BPU
//	µcode-1       — IBPB+IBRS+STIBP: flush on context switches and kernel
//	                entry, structures halved by STIBP partitioning
//	µcode-2       — IBPB+IBRS: flush on context switches and kernel entry
//	Conservative  — full 48-bit addresses end-to-end (halved BTB capacity),
//	                per-entity PHT separation, no flushing
//	STBPU         — secret-token remapping + encryption + re-randomization
//
// # Replay engine
//
// The hot path is columnar: RunColumnsMulti replays a trace.Columns
// (struct-of-arrays) view through one or more models in 8192-record
// chunks via the ColumnModel fast path (StepColumns iterates the
// packed arrays with branchless flag extraction, accumulating events
// in-model via bpu.Counters); RunColumnsCtx is its one-model case.
// RunCtx serves AoS record slices through the BatchModel path. Models
// that only implement Model replay on both paths through per-record
// Step, so every model replays on every path with bit-identical
// results (pinned by tests). Run-scoped counters surface
// through the optional Finalizer interface. Replay is deterministic
// for a fixed (trace, model, seed), which is what lets the harness
// distribute cells across processes — see docs/ARCHITECTURE.md
// "The determinism contract" and "Trace dataflow".
package sim
