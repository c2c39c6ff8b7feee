//! Dependency-free instrumentation for the spinamm pipeline.
//!
//! Every hot path in the workspace accepts a [`Recorder`] by generic
//! parameter (static dispatch), so the default [`NoopRecorder`] compiles to
//! nothing: `is_enabled()` is a constant `false`, every sink method is an
//! empty body, and span guards skip the clock read entirely. Passing a
//! [`MemoryRecorder`] instead aggregates counters, gauges, histograms,
//! span timings and structured events into a queryable
//! [`TelemetrySnapshot`] with JSON and table rendering.
//!
//! Every distribution — each histogram and span series, and the tracer's
//! request latency — is one [`LatencyHistogram`]: log-bucketed, mergeable
//! and bounded in size, with exact count, sum, min and max, and
//! percentiles over the last 65,536 to 131,071 samples that read their
//! bucket's lower bound (within 1/32, clamped to the exact min and max).
//!
//! Each instrumented stage is one [`Layer`] — the table where every span
//! name lives — and one call, `recorder.span(Layer::SETTLE)`, which times
//! the layer's series and, while the recorder traces a request
//! ([`Recorder::trace_sink`]), keeps the layer's trace span open.
//!
//! Telemetry is strictly observation-only: recorders receive copies of
//! values the pipeline already computed and can never feed anything back,
//! so enabling one cannot change a numeric result.
//!
//! # Example
//!
//! ```
//! use spinamm_telemetry::{Layer, MemoryRecorder, Recorder};
//!
//! let recorder = MemoryRecorder::default();
//! {
//!     let _span = recorder.span(Layer::RECALL);
//!     recorder.counter("adc.sar_cycles", 5);
//!     recorder.observe("recall.dom", 27.0);
//! }
//! let snapshot = recorder.snapshot();
//! assert_eq!(snapshot.counter("adc.sar_cycles"), 5);
//! assert_eq!(snapshot.span_stats("recall.total").unwrap().count, 1);
//! ```

mod histogram;
pub mod json;
mod layer;
mod memory;
mod recorder;
mod snapshot;

pub use histogram::LatencyHistogram;
pub use layer::Layer;
pub use memory::MemoryRecorder;
pub use recorder::{NoopRecorder, Recorder, Span, TraceSink};
pub use snapshot::{HistStats, TelemetryEvent, TelemetrySnapshot};
