//! End-to-end and per-layer benchmark of the served TSB-tree.
//!
//! One invocation measures one workload (`spec`) against `tsb-server`
//! child processes on loopback: a primary preloaded in-process through
//! `EngineHandle`, plus one WAL-shipping replica. An untraced run (`e2e`)
//! yields the end-to-end metrics; a traced run (`traced`) replays the same
//! seeded op stream over the wire, through `EngineHandle` and through the
//! protocol codec, and attributes time to each layer from spans recorded
//! around the benchmark's own calls into it (`trace`). Every answer is
//! checked against an oracle (`gate`).
//!
//! ```text
//! perfbench --workload ingest|asof_reads|replica_mix --seed N \
//!           --seconds S --trace 0|1 --server-bin PATH --work DIR [--tiny]
//! ```
//!
//! `perfbench/run.py` builds this crate and `tsb-server` and supplies
//! `--server-bin` and `--work`.
//!
//! The last line of stdout is the result, `{"correct", "attempted",
//! "failed", "metrics"}`, holding the bounded end-to-end metrics of
//! `BENCHMARK.json` (`--trace 0`) or its per-layer metrics (`--trace 1`).
//! The lines before it print every figure with its unit, the sample
//! counts and the host facts, which also go to `result-*.json` in the
//! work directory (spans to `spans-*.tsv`). A wrong answer exits 1.
//!
//! Smoke test: `cargo test --release --manifest-path perfbench/Cargo.toml`.

pub mod cluster;
pub mod drive;
pub mod e2e;
pub mod gate;
pub mod gen;
pub mod report;
pub mod spec;
pub mod stats;
pub mod trace;
pub mod traced;

/// Every error the benchmark reports.
pub type Error = Box<dyn std::error::Error + Send + Sync>;
