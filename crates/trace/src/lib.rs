//! An empty package, kept only so the workspace's dependency graph stays
//! the one `perfbench/Cargo.lock` records.
//!
//! This crate held the per-request tracer (sampled span trees, exemplars,
//! phase rows and Chrome trace export). No binary, report or benchmark
//! attached it, and the recorder's [`Layer`] series already time every
//! stage of a recall, so it was deleted and the recorder is the
//! workspace's one instrumentation model. Four crates (core, crossbar,
//! engine and server) still declare `spinamm-trace.workspace = true`, and
//! this package still depends on `spinamm-telemetry`: perfbench builds with
//! `--locked` against a lockfile that lists those edges, and `perfbench/`
//! changes only in a benchmark change. That benchmark change regenerates
//! `perfbench/Cargo.lock` and deletes this package and its edges (ROADMAP
//! item 3).
//!
//! [`Layer`]: spinamm_telemetry::Layer
