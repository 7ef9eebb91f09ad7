// Package tracestore is the cross-run trace cache of the simulation
// layer (docs/ARCHITECTURE.md): a concurrency-safe, byte-bounded LRU of
// generated workload traces with singleflight-deduplicated generation
// and an optional persistent disk tier. Before this package every
// scenario run carried its own per-run cache, so a full stbpu-suite run
// regenerated the same (workload, records) trace once per scenario; one
// shared Store amortizes generation across the whole run while the byte
// bound keeps full-scale sweeps from holding every trace forever.
//
// # Columnar residency
//
// The stored representation is trace.Columns — the struct-of-arrays
// view the replay fast path (sim.RunColumnsCtx, and the CPU timing
// model behind fig4–6) consumes directly via GetColumns. Consumers that
// need AoS records call Get, which materializes the record view from the
// stored columns at most once per residency and shares it. Byte
// accounting goes through the SizeOf hook (default ExactSize): entries
// are charged the capacity-exact footprint of what they actually pin —
// the columns, plus the record view once materialized — so the
// configured budget is respected to the byte.
//
// # Determinism
//
// Trace generation is a pure function of (name, records), so a cached
// trace is bit-identical to a freshly generated one, and the columnar
// and record views of an entry are lossless projections of the same
// data. Eviction can therefore only change *when* a trace is rebuilt,
// never *what* replays — the harness determinism contract
// (bit-identical results at any worker count) holds under any byte
// budget, including zero, with or without the disk tier.
//
// # The disk tier
//
// SetDir points the store at a directory where generated traces spill
// as STBT files keyed by (name, records) and are decoded — straight
// into columns, skipping the intermediate []Record — by later runs and
// by exec workers sharing the machine. Writes are atomic (temp file +
// rename), a spill must carry the canonical name generation gives its
// key (presets resolve aliases: "fotonik3d" spills as "549.fotonik3d"),
// bad files fall back to regeneration, and because generation
// is deterministic a decoded spill is bit-identical to regenerating,
// so the tier changes wall-clock only. The stbpu-suite and stbpu-bench
// front-ends expose it as -trace-dir.
//
// # Cache locality under distributed backends
//
// When the harness runs cells on a worker fleet (harness.RemoteBackend:
// subprocess, TCP or in-process members), each worker fills its own
// Store, persisted across chunks, and the coordinator's store sits
// idle. Locality routing sends a workload's cells to the worker whose
// store is already warm, but a hot trace may still be generated once
// per worker rather than once per run — duplicated wall-clock work, but
// never a result difference, and no trace bytes ever cross the wire.
// A shared -trace-dir collapses that duplication to one generation per
// machine: the first process to generate spills, every other process
// decodes.
package tracestore
