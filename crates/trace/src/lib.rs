//! Per-request tracing and profiling for the spinamm recall pipeline.
//!
//! [`spinamm_telemetry`] aggregates *across* requests (counters, gauges,
//! coarse histograms); this crate explains *individual* requests. A
//! [`Tracer`] samples recalls deterministically (seeded hash of the
//! request index — never the pipeline RNG, so enabling tracing cannot
//! change a numeric result) and captures a **span tree** per sampled
//! request: queue wait, drive, restamp, factor/CG solve (with iteration
//! counts and residuals as span attributes), ADC convert, WTA select.
//!
//! Completed traces feed three sinks:
//!
//! * a log-bucketed [`LatencyHistogram`] with p50/p90/p99/p999 accessors
//!   — fed by **every** finished request, sampled or not;
//! * a slow-request **exemplar** buffer (top-N by total latency, full
//!   span tree retained);
//! * a Chrome trace-event JSON export ([`Tracer::chrome_trace_json`],
//!   loadable in Perfetto) plus a span-aggregate "flamegraph table"
//!   ([`Tracer::phase_rows`], self/total time per phase).
//!
//! The pipeline crates never talk to a `Tracer` directly. Each top-level
//! operation wraps its recorder in a [`Probe`] bound by the request's
//! [`TraceBinding`]; a layer's one `recorder.span(Layer::…)` call then also
//! opens and closes that layer's span in the request's tree. With the
//! default [`TraceBinding::Off`] the tracing half is an inert `Option`
//! check — no clock reads, no locks.
//!
//! ```
//! use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
//! use spinamm_trace::{Probe, TraceBinding, TraceConfig, Tracer};
//!
//! let tracer = Tracer::new(&TraceConfig::default());
//! let binding = TraceBinding::Sampled(&tracer);
//! {
//!     let probe = Probe::begin(&NoopRecorder, binding, Layer::RECALL);
//!     drop(probe.span(Layer::DRIVE));
//!     let settle = probe.span(Layer::SETTLE);
//!     settle.attr("cg_iterations", 12.0);
//! } // the probe's drop finishes the request
//! assert_eq!(tracer.request_count(), 1);
//! assert_eq!(tracer.sampled_count(), 1);
//! let traces = tracer.exemplars();
//! assert_eq!(traces[0].structure(), vec![(0, "drive"), (0, "settle")]);
//! ```

mod histogram;

pub use histogram::LatencyHistogram;

use spinamm_telemetry::json::JsonValue;
use spinamm_telemetry::{Layer, Recorder, TraceSink};
use std::collections::{BTreeMap, HashMap};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// SplitMix64 finalizer — the deterministic per-request sampling hash.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Tracer construction options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Fraction of requests whose span tree is captured, in `[0, 1]`.
    /// `1.0` samples every request, `0.0` none (the latency histogram
    /// still sees every request). The decision is a seeded hash of the
    /// request index — deterministic across reruns, independent of the
    /// pipeline RNG.
    pub sample_rate: f64,
    /// Seed of the sampling hash.
    pub seed: u64,
    /// Slow-request exemplars retained (top-N by total latency).
    pub exemplar_capacity: usize,
    /// Full traces retained for Chrome export; later sampled traces still
    /// aggregate into phases/exemplars but drop their event detail.
    pub trace_capacity: usize,
}

impl Default for TraceConfig {
    fn default() -> Self {
        Self {
            sample_rate: 1.0,
            seed: 0x7ace,
            exemplar_capacity: 8,
            trace_capacity: 4096,
        }
    }
}

/// One completed span inside a request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceSpan {
    /// Phase name, e.g. `"settle"` or `"solve"`.
    pub name: &'static str,
    /// Nesting depth: `0` for direct children of the request.
    pub depth: u16,
    /// Start offset from the request begin, in nanoseconds.
    pub start_ns: u64,
    /// Wall duration in nanoseconds.
    pub dur_ns: u64,
    /// Numeric attributes (solver iterations, residuals, worker index…).
    pub attrs: Vec<(&'static str, f64)>,
}

/// The full span tree of one sampled request.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestTrace {
    /// Monotonic request index (also the sampling-hash input).
    pub id: u64,
    /// Request kind, e.g. `"recall"` or `"engine.recall"`.
    pub kind: &'static str,
    /// Begin offset from tracer creation, in nanoseconds.
    pub start_ns: u64,
    /// End-to-end wall latency in nanoseconds.
    pub total_ns: u64,
    /// Request-level attributes.
    pub attrs: Vec<(&'static str, f64)>,
    /// Spans in open order (preorder for nested spans).
    pub spans: Vec<TraceSpan>,
}

impl RequestTrace {
    /// The timing-free shape of the tree: `(depth, name)` per span in open
    /// order. Two runs of the same deterministic workload produce equal
    /// structures.
    #[must_use]
    pub fn structure(&self) -> Vec<(u16, &'static str)> {
        self.spans.iter().map(|s| (s.depth, s.name)).collect()
    }

    fn to_json(&self) -> JsonValue {
        JsonValue::object([
            ("id", JsonValue::Uint(self.id)),
            ("kind", JsonValue::Str(self.kind.to_owned())),
            ("start_us", JsonValue::Num(self.start_ns as f64 / 1e3)),
            ("total_us", JsonValue::Num(self.total_ns as f64 / 1e3)),
            ("attrs", attrs_json(&self.attrs)),
            (
                "spans",
                JsonValue::Array(
                    self.spans
                        .iter()
                        .map(|s| {
                            JsonValue::object([
                                ("name", JsonValue::Str(s.name.to_owned())),
                                ("depth", JsonValue::Uint(u64::from(s.depth))),
                                ("start_us", JsonValue::Num(s.start_ns as f64 / 1e3)),
                                ("dur_us", JsonValue::Num(s.dur_ns as f64 / 1e3)),
                                ("attrs", attrs_json(&s.attrs)),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }
}

fn attrs_json(attrs: &[(&'static str, f64)]) -> JsonValue {
    JsonValue::Object(
        attrs
            .iter()
            .map(|&(k, v)| (k.to_owned(), JsonValue::Num(v)))
            .collect(),
    )
}

/// One row of the span-aggregate "flamegraph table".
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseRow {
    /// Phase (span or request-kind) name.
    pub name: &'static str,
    /// Completed spans aggregated into this row.
    pub count: u64,
    /// Total wall time including children, in nanoseconds.
    pub total_ns: u64,
    /// Wall time with direct children subtracted, in nanoseconds.
    pub self_ns: u64,
}

/// An opaque per-request handle. `Copy` and thread-safe: the engine moves
/// it from the submitting thread to the worker that evaluates the request
/// and the one that selects it, while the [`Tracer`] keeps the mutable
/// trace state.
#[derive(Debug, Clone, Copy)]
pub struct ReqHandle {
    id: u64,
    sampled: bool,
    t0: Instant,
}

impl ReqHandle {
    /// Whether this request's span tree is being captured.
    #[must_use]
    pub fn sampled(&self) -> bool {
        self.sampled
    }
}

#[derive(Debug)]
struct Pending {
    kind: &'static str,
    start_ns: u64,
    spans: Vec<TraceSpan>,
    stack: Vec<usize>,
    attrs: Vec<(&'static str, f64)>,
}

#[derive(Debug, Default)]
struct PhaseAgg {
    count: u64,
    total_ns: u64,
    self_ns: u64,
}

#[derive(Debug)]
struct TracerState {
    next_id: u64,
    pending: HashMap<u64, Pending>,
    requests: u64,
    sampled: u64,
    latency: LatencyHistogram,
    phases: BTreeMap<&'static str, PhaseAgg>,
    exemplars: Vec<RequestTrace>,
    traces: Vec<RequestTrace>,
    dropped_traces: u64,
}

/// The per-request tracing sink. See the crate docs for the model.
///
/// All methods take `&self`; state lives behind one mutex that is touched
/// only at request begin/finish and, for *sampled* requests, per span.
/// Unsampled requests pay two lock acquisitions and two clock reads
/// total; an untraced request ([`TraceBinding::Off`]) pays neither.
#[derive(Debug)]
pub struct Tracer {
    sample_rate: f64,
    seed: u64,
    exemplar_capacity: usize,
    trace_capacity: usize,
    epoch: Instant,
    state: Mutex<TracerState>,
}

impl Tracer {
    /// A live tracer with the given sampling and retention options.
    #[must_use]
    pub fn new(config: &TraceConfig) -> Self {
        Self {
            sample_rate: config.sample_rate,
            seed: config.seed,
            exemplar_capacity: config.exemplar_capacity,
            trace_capacity: config.trace_capacity,
            epoch: Instant::now(),
            state: Mutex::new(TracerState {
                next_id: 0,
                pending: HashMap::new(),
                requests: 0,
                sampled: 0,
                latency: LatencyHistogram::new(),
                phases: BTreeMap::new(),
                exemplars: Vec::new(),
                traces: Vec::new(),
                dropped_traces: 0,
            }),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, TracerState> {
        self.state.lock().expect("tracer mutex poisoned")
    }

    /// Deterministic sampling decision for request `id`.
    fn sample(&self, id: u64) -> bool {
        if self.sample_rate >= 1.0 {
            return true;
        }
        if self.sample_rate <= 0.0 {
            return false;
        }
        let h = splitmix64(self.seed ^ id.wrapping_mul(0x9E37_79B9_7F4A_7C15));
        ((h >> 11) as f64) < self.sample_rate * (1u64 << 53) as f64
    }

    /// Starts a request of the given kind, returning its handle. Must be
    /// paired with [`Tracer::finish`] (usually by a [`Probe`]).
    #[must_use]
    pub fn begin(&self, kind: &'static str) -> ReqHandle {
        let now = Instant::now();
        let mut state = self.lock();
        let id = state.next_id;
        state.next_id += 1;
        let sampled = self.sample(id);
        if sampled {
            state.pending.insert(
                id,
                Pending {
                    kind,
                    start_ns: duration_ns(now.saturating_duration_since(self.epoch)),
                    spans: Vec::new(),
                    stack: Vec::new(),
                    attrs: Vec::new(),
                },
            );
        }
        ReqHandle {
            id,
            sampled,
            t0: now,
        }
    }

    /// Completes a request: its end-to-end latency enters the histogram
    /// and, if sampled, its span tree flows into the phase aggregates, the
    /// exemplar buffer and the retained-trace buffer.
    pub fn finish(&self, h: ReqHandle) {
        let total = duration_ns(h.t0.elapsed());
        let mut state = self.lock();
        state.requests += 1;
        state.latency.record(total);
        if !h.sampled {
            return;
        }
        let Some(mut pending) = state.pending.remove(&h.id) else {
            return;
        };
        // Close anything an error path left open.
        while let Some(idx) = pending.stack.pop() {
            let span = &mut pending.spans[idx];
            span.dur_ns = total.saturating_sub(span.start_ns);
        }
        let trace = RequestTrace {
            id: h.id,
            kind: pending.kind,
            start_ns: pending.start_ns,
            total_ns: total,
            attrs: pending.attrs,
            spans: pending.spans,
        };
        state.sampled += 1;
        aggregate_phases(&mut state.phases, &trace);
        // Exemplars: keep the top-N slowest, ordered slowest first.
        state.exemplars.push(trace.clone());
        state
            .exemplars
            .sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.id.cmp(&b.id)));
        state.exemplars.truncate(self.exemplar_capacity);
        if state.traces.len() < self.trace_capacity {
            state.traces.push(trace);
        } else {
            state.dropped_traces += 1;
        }
    }

    /// Records an externally timed, already-completed span (e.g. queue
    /// wait measured from an enqueue timestamp, or a per-query settle on a
    /// batch worker thread). Safe to call from any thread; the span nests
    /// under whatever is open on the stack at record time.
    pub fn span_at(
        &self,
        h: ReqHandle,
        name: &'static str,
        start: Instant,
        dur: Duration,
        attrs: &[(&'static str, f64)],
    ) {
        if !h.sampled() {
            return;
        }
        let start_ns = duration_ns(start.saturating_duration_since(h.t0));
        let mut state = self.lock();
        if let Some(pending) = state.pending.get_mut(&h.id) {
            let depth = pending.stack.len() as u16;
            pending.spans.push(TraceSpan {
                name,
                depth,
                start_ns,
                dur_ns: duration_ns(dur),
                attrs: attrs.to_vec(),
            });
        }
    }

    /// Requests finished (sampled or not).
    #[must_use]
    pub fn request_count(&self) -> u64 {
        self.lock().requests
    }

    /// Sampled traces completed.
    #[must_use]
    pub fn sampled_count(&self) -> u64 {
        self.lock().sampled
    }

    /// Snapshot of the end-to-end latency histogram over every finished
    /// request.
    #[must_use]
    pub fn latency(&self) -> LatencyHistogram {
        self.lock().latency.clone()
    }

    /// The span-aggregate flamegraph table, slowest total first. Each
    /// request also contributes a row under its kind name whose self time
    /// is the untraced remainder.
    #[must_use]
    pub fn phase_rows(&self) -> Vec<PhaseRow> {
        let state = self.lock();
        let mut rows: Vec<PhaseRow> = state
            .phases
            .iter()
            .map(|(&name, agg)| PhaseRow {
                name,
                count: agg.count,
                total_ns: agg.total_ns,
                self_ns: agg.self_ns,
            })
            .collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(b.name)));
        rows
    }

    /// The slowest retained requests with full span trees, slowest first.
    #[must_use]
    pub fn exemplars(&self) -> Vec<RequestTrace> {
        self.lock().exemplars.clone()
    }

    /// Every retained sampled trace, in completion order.
    #[must_use]
    pub fn traces(&self) -> Vec<RequestTrace> {
        self.lock().traces.clone()
    }

    /// Sampled traces that exceeded the retention cap (aggregated but not
    /// retained for export).
    #[must_use]
    pub fn dropped_traces(&self) -> u64 {
        self.lock().dropped_traces
    }

    /// The retained traces as a Chrome trace-event JSON document
    /// (`{"traceEvents": [...]}"`), loadable in Perfetto or
    /// `chrome://tracing`. Timestamps are microseconds since tracer
    /// creation; each request occupies a lane (`tid`) derived from its id.
    #[must_use]
    pub fn chrome_trace_json(&self) -> JsonValue {
        let state = self.lock();
        let mut events = Vec::new();
        for trace in &state.traces {
            let tid = 1 + trace.id % 24;
            let base_us = trace.start_ns as f64 / 1e3;
            let mut args = vec![("request", trace.id as f64)];
            args.extend_from_slice(&trace.attrs);
            events.push(chrome_event(
                trace.kind,
                "request",
                base_us,
                trace.total_ns,
                tid,
                &args,
            ));
            for span in &trace.spans {
                let ts = base_us + span.start_ns as f64 / 1e3;
                let mut args = vec![("request", trace.id as f64)];
                args.extend_from_slice(&span.attrs);
                events.push(chrome_event(
                    span.name,
                    "phase",
                    ts,
                    span.dur_ns,
                    tid,
                    &args,
                ));
            }
        }
        JsonValue::object([
            ("traceEvents", JsonValue::Array(events)),
            ("displayTimeUnit", JsonValue::Str("ms".to_owned())),
            (
                "otherData",
                JsonValue::object([
                    ("dropped_traces", JsonValue::Uint(state.dropped_traces)),
                    ("requests", JsonValue::Uint(state.requests)),
                ]),
            ),
        ])
    }

    /// The exemplar buffer as a JSON array of full span trees.
    #[must_use]
    pub fn exemplars_json(&self) -> JsonValue {
        JsonValue::Array(
            self.lock()
                .exemplars
                .iter()
                .map(RequestTrace::to_json)
                .collect(),
        )
    }
}

fn duration_ns(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

fn chrome_event(
    name: &str,
    cat: &str,
    ts_us: f64,
    dur_ns: u64,
    tid: u64,
    args: &[(&'static str, f64)],
) -> JsonValue {
    JsonValue::object([
        ("name", JsonValue::Str(name.to_owned())),
        ("cat", JsonValue::Str(cat.to_owned())),
        ("ph", JsonValue::Str("X".to_owned())),
        ("ts", JsonValue::Num(ts_us)),
        ("dur", JsonValue::Num(dur_ns as f64 / 1e3)),
        ("pid", JsonValue::Uint(1)),
        ("tid", JsonValue::Uint(tid)),
        ("args", attrs_json(args)),
    ])
}

/// Folds one finished trace into the by-name phase aggregates. A span's
/// self time subtracts its direct children (the following spans exactly
/// one level deeper, up to the next span at its own depth or shallower);
/// the request contributes a row under its kind with the depth-0 spans as
/// children.
fn aggregate_phases(phases: &mut BTreeMap<&'static str, PhaseAgg>, trace: &RequestTrace) {
    let child_sum = |of: usize| -> u64 {
        let d = trace.spans[of].depth;
        trace.spans[of + 1..]
            .iter()
            .take_while(|s| s.depth > d)
            .filter(|s| s.depth == d + 1)
            .map(|s| s.dur_ns)
            .sum()
    };
    for (i, span) in trace.spans.iter().enumerate() {
        let agg = phases.entry(span.name).or_default();
        agg.count += 1;
        agg.total_ns += span.dur_ns;
        agg.self_ns += span.dur_ns.saturating_sub(child_sum(i));
    }
    let top: u64 = trace
        .spans
        .iter()
        .filter(|s| s.depth == 0)
        .map(|s| s.dur_ns)
        .sum();
    let agg = phases.entry(trace.kind).or_default();
    agg.count += 1;
    agg.total_ns += trace.total_ns;
    agg.self_ns += trace.total_ns.saturating_sub(top);
}

/// How a pipeline entry point relates to tracing — the field carried by
/// `RecallRequest`.
#[derive(Debug, Clone, Copy, Default)]
pub enum TraceBinding<'t> {
    /// No tracer attached (the default): tracing code is inert.
    #[default]
    Off,
    /// A tracer samples each top-level operation as its own request.
    Sampled(&'t Tracer),
    /// The operation runs *inside* an existing request (an engine job):
    /// spans attach to that request, which the caller finishes.
    Joined(&'t Tracer, ReqHandle),
}

impl TraceBinding<'_> {
    /// Whether no tracer is attached.
    #[must_use]
    pub fn is_off(&self) -> bool {
        matches!(self, TraceBinding::Off)
    }
}

/// A recorder that also traces: it forwards every [`Recorder`] call to `R`
/// and, while its request is sampled, lends span guards that request's
/// [`TraceSink`], so one `span(Layer::…)` call feeds both sinks.
pub struct Probe<'a, R: Recorder> {
    recorder: &'a R,
    /// The request spans attach to, when a tracer is bound.
    request: Option<Bound<'a>>,
    /// Whether the probe began `request`, and so finishes it on drop.
    owned: bool,
    /// A top-level operation's series and its start.
    timed: Option<(&'static str, Instant)>,
}

impl<'a, R: Recorder> Probe<'a, R> {
    /// Scopes one top-level operation of `layer`. A
    /// [`TraceBinding::Sampled`] binding begins a request of the layer's
    /// kind; a [`TraceBinding::Joined`] one attaches to the existing
    /// request. On drop the probe records the layer's series and finishes
    /// any request it began, so an error return still leaves a truncated
    /// trace.
    pub fn begin(recorder: &'a R, binding: TraceBinding<'a>, layer: Layer) -> Self {
        let mut probe = Self::joined(recorder, binding);
        probe.timed = layer
            .series()
            .filter(|_| recorder.is_enabled())
            .map(|series| (series, Instant::now()));
        if let (TraceBinding::Sampled(tracer), Some(kind)) = (binding, layer.trace_name()) {
            let handle = tracer.begin(kind);
            probe.request = Some(Bound { tracer, handle });
            probe.owned = true;
        }
        probe
    }

    /// A probe for a fragment of an engine job (an evaluate or select
    /// half): joined to the job's request under a
    /// [`TraceBinding::Joined`] binding, untraced otherwise.
    pub fn joined(recorder: &'a R, binding: TraceBinding<'a>) -> Self {
        let request = match binding {
            TraceBinding::Joined(tracer, handle) => Some(Bound { tracer, handle }),
            _ => None,
        };
        Self {
            recorder,
            request,
            owned: false,
            timed: None,
        }
    }

    /// The same recorder, untraced: for the part of an operation whose
    /// spans its trace leaves out, such as the tail of a batch.
    #[must_use]
    pub fn without_trace(&self) -> Self {
        Self::joined(self.recorder, TraceBinding::Off)
    }

    /// Records the trace span of `layer` (a trace-only layer) that started
    /// at `start` and ends now, nested under whatever span is open. Use it
    /// only where spans of one request run concurrently, on threads a
    /// guard's nesting cannot follow.
    pub fn span_since(&self, layer: Layer, start: Instant, attrs: &[(&'static str, f64)]) {
        if let (Some(Bound { tracer, handle }), Some(name)) = (self.request, layer.trace_name()) {
            tracer.span_at(handle, name, start, start.elapsed(), attrs);
        }
    }
}

impl<R: Recorder> Recorder for Probe<'_, R> {
    fn is_enabled(&self) -> bool {
        self.recorder.is_enabled()
    }

    fn counter(&self, name: &str, delta: u64) {
        self.recorder.counter(name, delta);
    }

    fn gauge(&self, name: &str, value: f64) {
        self.recorder.gauge(name, value);
    }

    fn observe(&self, name: &str, value: f64) {
        self.recorder.observe(name, value);
    }

    fn record_span(&self, name: &str, seconds: f64) {
        self.recorder.record_span(name, seconds);
    }

    fn event(&self, name: &str, fields: &[(&str, f64)]) {
        self.recorder.event(name, fields);
    }

    fn trace_sink(&self) -> Option<&dyn TraceSink> {
        let bound = self.request.as_ref().filter(|b| b.handle.sampled());
        bound.map(|b| b as &dyn TraceSink)
    }
}

impl<R: Recorder> Drop for Probe<'_, R> {
    fn drop(&mut self) {
        if let Some((series, start)) = self.timed {
            self.record_span(series, start.elapsed().as_secs_f64());
        }
        if let (true, Some(Bound { tracer, handle })) = (self.owned, self.request) {
            tracer.finish(handle);
        }
    }
}

/// One request of a [`Tracer`]; when sampled, the [`TraceSink`] that
/// builds its span tree. Spans open and close in LIFO order, from one
/// thread at a time (the stages of one request never overlap).
#[derive(Clone, Copy)]
struct Bound<'t> {
    tracer: &'t Tracer,
    handle: ReqHandle,
}

impl Bound<'_> {
    /// Nanoseconds since the request began.
    fn now_ns(&self) -> u64 {
        duration_ns(self.handle.t0.elapsed())
    }

    /// Runs `f` on the request's pending trace.
    fn with(&self, f: impl FnOnce(&mut Pending)) {
        if let Some(pending) = self.tracer.lock().pending.get_mut(&self.handle.id) {
            f(pending);
        }
    }
}

impl TraceSink for Bound<'_> {
    fn open(&self, name: &'static str) {
        let start_ns = self.now_ns();
        self.with(|pending| {
            pending.spans.push(TraceSpan {
                name,
                depth: pending.stack.len() as u16,
                start_ns,
                dur_ns: 0,
                attrs: Vec::new(),
            });
            pending.stack.push(pending.spans.len() - 1);
        });
    }

    fn close(&self) {
        let now_ns = self.now_ns();
        self.with(|pending| {
            if let Some(idx) = pending.stack.pop() {
                let span = &mut pending.spans[idx];
                span.dur_ns = now_ns.saturating_sub(span.start_ns);
            }
        });
    }

    fn attr(&self, key: &'static str, value: f64) {
        self.with(|pending| match pending.stack.last() {
            Some(&idx) => pending.spans[idx].attrs.push((key, value)),
            None => pending.attrs.push((key, value)),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_telemetry::{json, MemoryRecorder, NoopRecorder};

    fn run_requests(tracer: &Tracer, n: usize) {
        let binding = TraceBinding::Sampled(tracer);
        for _ in 0..n {
            let probe = Probe::begin(&NoopRecorder, binding, Layer::RECALL);
            {
                let _drive = probe.span(Layer::DRIVE);
            }
            {
                let settle = probe.span(Layer::SETTLE);
                settle.attr("cg_iterations", 7.0);
                let _solve = probe.span(Layer::SOLVE);
            }
            {
                let _select = probe.span(Layer::SELECT);
            }
        }
    }

    #[test]
    fn full_rate_captures_one_trace_per_request() {
        let tracer = Tracer::new(&TraceConfig::default());
        run_requests(&tracer, 5);
        assert_eq!(tracer.request_count(), 5);
        assert_eq!(tracer.sampled_count(), 5);
        assert_eq!(tracer.latency().count(), 5);
        let traces = tracer.traces();
        assert_eq!(traces.len(), 5);
        for t in &traces {
            assert_eq!(
                t.structure(),
                vec![(0, "drive"), (0, "settle"), (1, "solve"), (0, "select")]
            );
        }
    }

    #[test]
    fn zero_rate_still_feeds_the_latency_histogram() {
        let tracer = Tracer::new(&TraceConfig {
            sample_rate: 0.0,
            ..TraceConfig::default()
        });
        run_requests(&tracer, 4);
        assert_eq!(tracer.request_count(), 4);
        assert_eq!(tracer.sampled_count(), 0);
        assert!(tracer.traces().is_empty());
        assert_eq!(tracer.latency().count(), 4);
    }

    #[test]
    fn sampling_decision_is_deterministic_and_rate_shaped() {
        let t1 = Tracer::new(&TraceConfig {
            sample_rate: 0.25,
            seed: 11,
            ..TraceConfig::default()
        });
        let t2 = Tracer::new(&TraceConfig {
            sample_rate: 0.25,
            seed: 11,
            ..TraceConfig::default()
        });
        let picks1: Vec<bool> = (0..4096).map(|i| t1.sample(i)).collect();
        let picks2: Vec<bool> = (0..4096).map(|i| t2.sample(i)).collect();
        assert_eq!(picks1, picks2, "same seed must pick the same requests");
        let hits = picks1.iter().filter(|&&b| b).count();
        assert!(
            (700..=1350).contains(&hits),
            "rate 0.25 over 4096 picked {hits}"
        );
        let t3 = Tracer::new(&TraceConfig {
            sample_rate: 0.25,
            seed: 12,
            ..TraceConfig::default()
        });
        let picks3: Vec<bool> = (0..4096).map(|i| t3.sample(i)).collect();
        assert_ne!(picks1, picks3, "a different seed picks differently");
    }

    #[test]
    fn phase_rows_aggregate_self_and_total() {
        let tracer = Tracer::new(&TraceConfig::default());
        run_requests(&tracer, 3);
        let rows = tracer.phase_rows();
        let names: Vec<&str> = rows.iter().map(|r| r.name).collect();
        for expect in ["recall", "drive", "settle", "solve", "select"] {
            assert!(names.contains(&expect), "{expect} missing from {names:?}");
        }
        let settle = rows.iter().find(|r| r.name == "settle").unwrap();
        let solve = rows.iter().find(|r| r.name == "solve").unwrap();
        assert_eq!(settle.count, 3);
        assert!(settle.total_ns >= solve.total_ns);
        assert!(settle.self_ns <= settle.total_ns);
        let recall = rows.iter().find(|r| r.name == "recall").unwrap();
        assert_eq!(recall.count, 3);
        assert!(recall.total_ns >= settle.total_ns);
    }

    #[test]
    fn exemplars_keep_the_slowest_and_cap() {
        let tracer = Tracer::new(&TraceConfig {
            exemplar_capacity: 2,
            ..TraceConfig::default()
        });
        let binding = TraceBinding::Sampled(&tracer);
        for spin in [0u64, 200_000, 50_000] {
            let probe = Probe::begin(&NoopRecorder, binding, Layer::RECALL);
            let t0 = Instant::now();
            while duration_ns(t0.elapsed()) < spin {
                std::hint::spin_loop();
            }
            drop(probe);
        }
        let ex = tracer.exemplars();
        assert_eq!(ex.len(), 2);
        assert!(ex[0].total_ns >= ex[1].total_ns, "slowest first");
        assert!(ex[0].total_ns >= 200_000);
    }

    #[test]
    fn chrome_export_is_valid_json_with_events() {
        let tracer = Tracer::new(&TraceConfig::default());
        run_requests(&tracer, 2);
        let doc = tracer.chrome_trace_json();
        let rendered = doc.render();
        json::validate(&rendered).expect("chrome trace must be valid JSON");
        let events = doc
            .get("traceEvents")
            .and_then(JsonValue::as_array)
            .expect("traceEvents array");
        // 2 requests x (1 request event + 4 span events).
        assert_eq!(events.len(), 10);
        for e in events {
            assert_eq!(e.get("ph").and_then(JsonValue::as_str), Some("X"));
            assert!(e.get("ts").and_then(JsonValue::as_f64).is_some());
            assert!(e.get("dur").and_then(JsonValue::as_f64).is_some());
        }
        json::validate(&tracer.exemplars_json().render()).expect("exemplars JSON");
    }

    #[test]
    fn trace_capacity_caps_retention_not_aggregation() {
        let tracer = Tracer::new(&TraceConfig {
            trace_capacity: 3,
            ..TraceConfig::default()
        });
        run_requests(&tracer, 8);
        assert_eq!(tracer.traces().len(), 3);
        assert_eq!(tracer.dropped_traces(), 5);
        assert_eq!(tracer.sampled_count(), 8);
        assert_eq!(tracer.latency().count(), 8);
    }

    #[test]
    fn joined_scope_does_not_finish_the_request() {
        let tracer = Tracer::new(&TraceConfig::default());
        let handle = tracer.begin("engine.recall");
        {
            let binding = TraceBinding::Joined(&tracer, handle);
            let probe = Probe::begin(&NoopRecorder, binding, Layer::RECALL);
            let _p = probe.span(Layer::SETTLE);
            assert!(probe.trace_sink().is_some());
        }
        assert_eq!(tracer.request_count(), 0, "joined drop must not finish");
        tracer.finish(handle);
        assert_eq!(tracer.request_count(), 1);
        assert_eq!(tracer.traces()[0].structure(), vec![(0, "settle")]);
    }

    #[test]
    fn span_at_records_cross_thread_spans() {
        let tracer = Tracer::new(&TraceConfig::default());
        let handle = tracer.begin("batch");
        let start = Instant::now();
        std::thread::scope(|s| {
            for k in 0..4u64 {
                let tracer = &tracer;
                s.spawn(move || {
                    tracer.span_at(
                        handle,
                        "shard",
                        start,
                        Duration::from_micros(10),
                        &[("shard", k as f64)],
                    );
                });
            }
        });
        tracer.finish(handle);
        let trace = &tracer.traces()[0];
        assert_eq!(trace.spans.len(), 4);
        assert!(trace
            .spans
            .iter()
            .all(|s| s.name == "shard" && s.depth == 0));
    }

    #[test]
    fn off_binding_is_inert() {
        let binding = TraceBinding::default();
        assert!(binding.is_off());
        let probe = Probe::begin(&NoopRecorder, binding, Layer::RECALL);
        assert!(probe.trace_sink().is_none());
        let _p = probe.span(Layer::DRIVE);
        probe.trace_attr("x", 1.0);
        assert!(Probe::joined(&NoopRecorder, binding).trace_sink().is_none());
    }

    #[test]
    fn one_span_call_feeds_both_sinks() {
        let recorder = MemoryRecorder::default();
        let tracer = Tracer::new(&TraceConfig::default());
        {
            let probe = Probe::begin(&recorder, TraceBinding::Sampled(&tracer), Layer::RECALL);
            let settle = probe.span(Layer::SETTLE);
            settle.attr("workers", 2.0);
            // A recorder-only layer opens no trace span; a trace-only one
            // records no series.
            drop(probe.span(Layer::COMPILE));
            drop(probe.span(Layer::SOLVE));
            drop(settle);
            // The untraced view keeps the recorder, not the trace.
            drop(probe.without_trace().span(Layer::SELECT));
        }
        let snap = recorder.snapshot();
        let series: Vec<(&str, u64)> = snap
            .spans
            .iter()
            .map(|(name, stats)| (name.as_str(), stats.count))
            .collect();
        assert_eq!(
            series,
            [
                ("plan.compile", 1),
                ("recall.select", 1),
                ("recall.settle", 1),
                ("recall.total", 1),
            ]
        );
        let traces = tracer.traces();
        assert_eq!(traces.len(), 1);
        assert_eq!(traces[0].kind, "recall");
        assert_eq!(traces[0].structure(), vec![(0, "settle"), (1, "solve")]);
        assert_eq!(traces[0].spans[0].attrs, vec![("workers", 2.0)]);
    }
}
