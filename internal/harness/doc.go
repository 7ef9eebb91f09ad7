// Package harness is the scenario registry and distributed execution
// engine behind every experiment driver in this repository — the top
// layer of the architecture described in docs/ARCHITECTURE.md
// (predictors → sim/tracestore → harness → cmd and examples).
//
// An experiment is registered once as a named, parameterized Scenario;
// its Run decomposes the experiment into a dense (model × workload ×
// trial) cell space via Map, which schedules the cells through the
// pool's Backend and reassembles results in shard order.
//
// # Determinism contract
//
// Every stochastic input of a cell derives from ShardSeed(rootSeed,
// scope, shard) — a pure function of the pool's root seed, the
// scenario-local scope name, and the cell's dense index. Scheduling can
// reorder *execution* but never *results*: Map writes each cell's value
// into its own slot and aggregation walks slots in index order. A run
// is therefore bit-identical at any worker count and on any backend.
//
// # Backends
//
// Two Backend implementations ship with the package:
//
//   - LocalBackend: the in-process goroutine pool (the default).
//   - RemoteBackend: the worker fleet, the one scheduler behind every
//     distributed run. Its members speak one protocol — a JSON
//     hello/welcome handshake, then length-prefixed binary frames — over
//     whatever connection admitted them: TCP workers that dial in
//     (`stbpu-suite -worker -connect host:port`), subprocesses the
//     fleet spawns on stdio pipes (`-backend exec`), and an in-process
//     member on an in-memory pipe (`-backend mixed`). Members join and
//     leave at will; the coordinator routes chunks to the worker whose
//     caches are warm, heartbeats members, requeues chunks from dead
//     ones, and speculatively re-executes stragglers' cells (first
//     result wins, duplicates discarded by address). Chunk failures
//     marked Permanent (deterministic scenario bugs) fail the run
//     instead of retrying.
//
// Cells are addressable across processes as (scenario, params, scope,
// shard, rootSeed), so a worker holding the same binary re-derives any
// cell bit-identically; see docs/ARCHITECTURE.md "How a cell flows
// through a backend".
//
// # Run journal
//
// The same cell address keys the run journal (journal.go): a Sink
// installed with Pool.SetSink receives every completed cell with its
// wire-encoded result, and a Journal sink streams them to a JSONL file
// (schema: docs/SUITE_JSON.md). Resuming from a journal makes Map skip
// already-completed cells and splice their stored values into its
// output — a crashed run restarted with `stbpu-suite -resume` produces
// a byte-identical final document without redoing finished work.
package harness
