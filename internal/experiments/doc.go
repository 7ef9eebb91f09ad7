// Package experiments regenerates every table and figure of the paper's
// evaluation (§VII) from this repository's models. It is the scenario
// layer of docs/ARCHITECTURE.md: each experiment is registered as a
// harness.Scenario (see scenarios.go) whose cell space — (model ×
// workload × trial) — is sharded across the harness with per-cell seeds
// derived from the pool's root seed, so results are bit-identical at
// any worker count and on any backend (in-process, subprocess, or
// mixed; scenarios are backend-agnostic because all scheduling goes
// through harness.Map).
//
// Each Run* function returns a structured result with a Render method
// (built on results.Grid, the shared table renderer) producing the same
// rows/series the paper reports, and a Table method flattening it into
// a results.Table so cmd/stbpu-report can diff any two runs metric by
// metric (tables.go holds the Tabler implementations and the typed
// DecodeResult used to reload suite documents).
//
// Two conventions keep cells distributable (docs/ARCHITECTURE.md "The
// determinism contract"):
//
//   - every stochastic input derives from the cell seed, never from
//     time or a shared RNG, and aggregation walks shard order;
//   - intermediate per-cell structs (fig6Cell, covertCell, ittageCell)
//     keep exported fields so a cell's value survives the JSON result
//     encoding a harness worker fleet ships byte-exactly.
package experiments
