//! The unified recall-request options struct.
//!
//! Every module entry point is a single `*_request` method taking a
//! [`RecallRequest`], which bundles the telemetry sink with execution
//! options (worker-count override for batched phases and pool builds,
//! trace binding). The plain names (`build`, `recall`, `recall_batch`,
//! `inject_faults`) stay as conveniences forwarding
//! [`RecallRequest::DEFAULT`]; the historical `*_with` recorder shims were
//! removed once every caller migrated.
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//! use spinamm_core::request::RecallRequest;
//! use spinamm_telemetry::MemoryRecorder;
//!
//! # fn main() -> Result<(), spinamm_core::CoreError> {
//! let patterns = vec![vec![31, 0, 31, 0], vec![0, 31, 0, 31]];
//! let recorder = MemoryRecorder::default();
//! let req = RecallRequest::recorded(&recorder).with_workers(2);
//! let mut amm = AssociativeMemoryModule::build_request(&patterns, &AmmConfig::default(), &req)?;
//! let results = amm.recall_batch_request(&patterns, &req)?;
//! assert_eq!(results[1].winner, Some(1));
//! assert!(recorder.snapshot().counter("recall.count") == 2);
//! # Ok(())
//! # }
//! ```

use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
use spinamm_trace::{Probe, ReqHandle, TraceBinding, Tracer};

/// Options for one recall-pipeline operation: the telemetry sink plus
/// execution knobs. Construct with [`RecallRequest::DEFAULT`] (silent) or
/// [`RecallRequest::recorded`], then chain builder methods.
///
/// Options are observational or scheduling-only: for any recorder, any
/// tracer and any worker count the numerical results are bit-identical.
pub struct RecallRequest<'r, R: Recorder = NoopRecorder> {
    recorder: &'r R,
    workers: Option<usize>,
    trace: TraceBinding<'r>,
}

impl RecallRequest<'static, NoopRecorder> {
    /// The silent request: no telemetry, no tracing, automatic workers.
    pub const DEFAULT: Self = Self {
        recorder: &NoopRecorder,
        workers: None,
        trace: TraceBinding::Off,
    };
}

impl Default for RecallRequest<'static, NoopRecorder> {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl<'r, R: Recorder> RecallRequest<'r, R> {
    /// A request reporting into `recorder`.
    pub const fn recorded(recorder: &'r R) -> Self {
        Self {
            recorder,
            workers: None,
            trace: TraceBinding::Off,
        }
    }

    /// Overrides the worker-thread count used by the parallel (RNG-free)
    /// phase of batched operations, and the number of threads a tiled
    /// pool's tiles build on ([`crate::capacity::TiledAmm::build_request`]).
    /// Zero is treated as one. When unset, the machine's available
    /// parallelism decides. Results are worker-count independent; single
    /// recalls always run on the calling thread.
    #[must_use]
    pub const fn with_workers(mut self, workers: usize) -> Self {
        self.workers = Some(workers);
        self
    }

    /// The telemetry sink.
    #[must_use]
    pub const fn recorder(&self) -> &'r R {
        self.recorder
    }

    /// The worker-count override, if any.
    #[must_use]
    pub const fn workers(&self) -> Option<usize> {
        self.workers
    }

    /// Worker threads for the parallel phase of a batch or a pool build:
    /// the override (at least one), else the machine's available
    /// parallelism. Callers cap it at their number of work items.
    pub(crate) fn batch_workers(&self) -> usize {
        self.workers.map_or_else(
            || std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            |w| w.max(1),
        )
    }

    /// Attaches a [`Tracer`] that samples each top-level recall (or batch)
    /// through this request as its own traced request. Tracing is purely
    /// observational: the sampling decision hashes a tracer-internal
    /// request index and never touches the pipeline RNG, so results are
    /// bit-identical with tracing on or off.
    #[must_use]
    pub fn with_tracer(mut self, tracer: &'r Tracer) -> Self {
        self.trace = TraceBinding::Sampled(tracer);
        self
    }

    /// Runs this request *inside* an already-open traced request (an
    /// engine job): spans attach to `handle`, and the caller — not this
    /// request — finishes it.
    #[must_use]
    pub fn with_trace_handle(mut self, tracer: &'r Tracer, handle: ReqHandle) -> Self {
        self.trace = TraceBinding::Joined(tracer, handle);
        self
    }

    /// Strips any tracer binding, keeping recorder and workers. A
    /// partitioned recall runs its segment modules through this, so each
    /// segment contributes one shard span instead of its own module spans.
    #[must_use]
    pub fn untraced(mut self) -> Self {
        self.trace = TraceBinding::Off;
        self
    }

    /// The tracing binding.
    #[must_use]
    pub fn trace_binding(&self) -> TraceBinding<'r> {
        self.trace
    }

    /// Scopes one top-level operation of `layer`. See [`Probe::begin`].
    pub(crate) fn begin(&self, layer: Layer) -> Probe<'r, R> {
        Probe::begin(self.recorder, self.trace, layer)
    }

    /// The recorder an evaluate or select half reports into, joined to the
    /// enclosing engine request's trace. See [`Probe::joined`].
    #[must_use]
    pub fn probe(&self) -> Probe<'r, R> {
        Probe::joined(self.recorder, self.trace)
    }
}

impl<R: Recorder> Clone for RecallRequest<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: Recorder> Copy for RecallRequest<'_, R> {}

impl<R: Recorder> std::fmt::Debug for RecallRequest<'_, R> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RecallRequest")
            .field("workers", &self.workers)
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_telemetry::MemoryRecorder;

    #[test]
    fn default_request_is_silent_and_automatic() {
        let req = RecallRequest::DEFAULT;
        assert!(!req.recorder().is_enabled());
        assert_eq!(req.workers(), None);
        let req = RecallRequest::default();
        assert_eq!(req.workers(), None);
    }

    #[test]
    fn builder_chain_sets_fields() {
        let rec = MemoryRecorder::default();
        let req = RecallRequest::recorded(&rec).with_workers(3);
        assert!(req.recorder().is_enabled());
        assert_eq!(req.workers(), Some(3));
        let copy = req;
        assert_eq!(copy.workers(), Some(3));
        assert!(format!("{req:?}").contains("workers"));
    }

    #[test]
    fn trace_binding_modes_round_trip() {
        use spinamm_trace::{TraceConfig, Tracer};
        assert!(RecallRequest::DEFAULT.trace_binding().is_off());
        let tracer = Tracer::new(&TraceConfig::default());
        let req = RecallRequest::DEFAULT.with_tracer(&tracer);
        assert!(!req.trace_binding().is_off());
        assert!(req.untraced().trace_binding().is_off());
        let handle = tracer.begin("engine.recall");
        let joined = RecallRequest::DEFAULT.with_trace_handle(&tracer, handle);
        assert!(joined.probe().trace_sink().is_some());
        tracer.finish(handle);
    }
}
