//! Sharded concurrent recall engine — the serving layer over
//! [`spinamm_core`]'s associative memory deployments.
//!
//! The paper's §5 scaling story stores patterns across many small RCM
//! modules (row partitions or cluster hierarchies) that evaluate
//! concurrently in hardware. [`RecallEngine`] reproduces that organization
//! in the simulator as a long-lived, thread-pooled service:
//!
//! * queries enter through a **bounded submission queue** ([`RecallEngine::submit`]
//!   blocks for space, [`RecallEngine::try_submit`] reports
//!   [`EngineError::QueueFull`] — backpressure instead of unbounded memory);
//! * **worker threads** — each owning a clone of the deployment with its
//!   canonically warmed solver sessions — run the RNG-free
//!   drive/settle/solve phase of whichever query is next;
//! * the **master deployment** sits behind one lock, with the evaluations
//!   waiting for their turn. After its evaluation, a worker takes that
//!   lock and applies the RNG-consuming ADC/WTA selection phase of every
//!   query whose turn has come — its own and any that were waiting for
//!   it — strictly in submission order. A query crosses one engine thread.
//!
//! Because the evaluation phase is deterministic and order-independent
//! (fixed warm-start reference pinned at build time) and the stochastic
//! phase consumes each module's RNG in exactly the sequential order, every
//! response is **bit-identical** to calling the deployment's `recall` once
//! per query in submission order — at any worker count, queue capacity, or
//! thread interleaving. Every deployment kind is one evaluate phase plus
//! one select phase through the same queue. A hierarchical deployment's
//! worker evaluates its top (centroid) module; the select on the master
//! picks the cluster, evaluates that cluster's member module — only the
//! chosen cluster runs, as in the paper's §5 hierarchy — and picks the
//! member. Tiled capacity pools ([`Deployment::Tiled`]) evaluate every
//! tile of a query in one worker phase and the in-order select phase
//! digitizes tiles in fixed tile order, so ranked top-k responses carry
//! the same bit-identity guarantee. Every phase runs through the modules'
//! compiled kernels (`spinamm_core::plan`), which clones share, so the
//! engine has no execution path of its own to choose.
//!
//! Stopping the engine — [`RecallEngine::shutdown`],
//! [`RecallEngine::into_deployment`] or a drop — drains the queue first:
//! every accepted query is answered.
//!
//! ```
//! use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
//! use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let patterns = vec![vec![31, 0, 31, 0], vec![0, 31, 0, 31]];
//! let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
//! let mut sequential = Deployment::Flat(module.clone());
//!
//! let engine = RecallEngine::new(
//!     Deployment::Flat(module),
//!     &EngineConfig::builder().workers(2).queue_capacity(8).build(),
//! );
//! let responses = engine.recall_many(&patterns)?;
//! for (input, response) in patterns.iter().zip(&responses) {
//!     assert_eq!(response, &sequential.recall(input)?);
//! }
//! engine.shutdown();
//! # Ok(())
//! # }
//! ```

use spinamm_core::amm::{AssociativeMemoryModule, QueryEvaluation, RecallResult};
use spinamm_core::capacity::{TiledAmm, TiledRecall};
use spinamm_core::hierarchy::{HierarchicalAmm, HierarchicalRecall};
use spinamm_core::partition::{PartitionedAmm, PartitionedRecall};
use spinamm_core::request::RecallRequest;
use spinamm_core::CoreError;
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
use spinamm_trace::{ReqHandle, Tracer};
use std::collections::{BTreeMap, VecDeque};
use std::error::Error;
use std::fmt;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::Instant;

/// The recorder type an engine shares across its threads.
pub type SharedRecorder = Arc<dyn Recorder + Send + Sync>;

/// One-stop imports for engine users: the engine types plus the core
/// deployment/request vocabulary they are constructed from.
///
/// ```
/// use spinamm_engine::prelude::*;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let patterns = vec![vec![31, 0, 31, 0], vec![0, 31, 0, 31]];
/// let module = AssociativeMemoryModule::build(&patterns, &AmmConfig::default())?;
/// let engine = RecallEngine::new(
///     Deployment::Flat(module),
///     &EngineConfig::builder().workers(2).build(),
/// );
/// assert_eq!(engine.recall_many(&patterns)?.len(), 2);
/// engine.shutdown();
/// # Ok(())
/// # }
/// ```
pub mod prelude {
    pub use crate::{
        Deployment, EngineConfig, EngineConfigBuilder, EngineError, EngineResponse, RecallEngine,
        SharedRecorder, Ticket,
    };
    pub use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule, Fidelity};
    pub use spinamm_core::capacity::TiledAmm;
    pub use spinamm_core::hierarchy::HierarchicalAmm;
    pub use spinamm_core::partition::PartitionedAmm;
    pub use spinamm_core::request::RecallRequest;
    pub use spinamm_telemetry::{MemoryRecorder, NoopRecorder, Recorder};
}

type Req<'r> = RecallRequest<'r, SharedRecorder>;

/// What the engine serves: one of the core memory organizations.
#[derive(Debug, Clone)]
pub enum Deployment {
    /// A single associative memory module.
    Flat(AssociativeMemoryModule),
    /// Rows split across modular RCM banks (paper §5 partitioning).
    Partitioned(PartitionedAmm),
    /// Two-level clustered matching (paper §5 hierarchy).
    Hierarchical(HierarchicalAmm),
    /// The template set sharded across a pool of crossbar tiles with
    /// ranked top-k recall (the capacity layer).
    Tiled(TiledAmm),
}

impl Deployment {
    /// Input vector length this deployment expects.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        match self {
            Deployment::Flat(m) => m.vector_len(),
            Deployment::Partitioned(p) => p.vector_len(),
            Deployment::Hierarchical(h) => h.vector_len(),
            Deployment::Tiled(t) => t.vector_len(),
        }
    }

    /// Sequential reference recall — the single-threaded path every engine
    /// response is bit-identical to.
    ///
    /// # Errors
    ///
    /// Propagates the underlying recall errors.
    pub fn recall(&mut self, input: &[u32]) -> Result<EngineResponse, CoreError> {
        match self {
            Deployment::Flat(m) => m.recall(input).map(EngineResponse::Flat),
            Deployment::Partitioned(p) => p.recall(input).map(EngineResponse::Partitioned),
            Deployment::Hierarchical(h) => h.recall(input).map(EngineResponse::Hierarchical),
            Deployment::Tiled(t) => t.recall(input).map(EngineResponse::Tiled),
        }
    }
}

/// One served recognition, mirroring the deployment kind.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineResponse {
    /// Response from a flat module.
    Flat(RecallResult),
    /// Response from a partitioned memory.
    Partitioned(PartitionedRecall),
    /// Response from a hierarchical memory.
    Hierarchical(HierarchicalRecall),
    /// Ranked response from a tiled capacity pool.
    Tiled(TiledRecall),
}

impl EngineResponse {
    /// The winning pattern index (raw winner for flat modules).
    #[must_use]
    pub fn winner(&self) -> usize {
        match self {
            EngineResponse::Flat(r) => r.raw_winner,
            EngineResponse::Partitioned(r) => r.winner,
            EngineResponse::Hierarchical(r) => r.winner,
            EngineResponse::Tiled(r) => r.matches.first().map_or(0, |m| m.global_column),
        }
    }

    /// The winner's degree of match.
    #[must_use]
    pub fn dom(&self) -> u32 {
        match self {
            EngineResponse::Flat(r) => r.dom,
            EngineResponse::Partitioned(r) => r.dom,
            EngineResponse::Hierarchical(r) => r.dom,
            EngineResponse::Tiled(r) => r.dom,
        }
    }
}

/// Errors surfaced by the engine.
#[derive(Debug, Clone, PartialEq)]
pub enum EngineError {
    /// `try_submit` found the bounded queue at capacity.
    QueueFull,
    /// The engine shut down before this query could be answered.
    ShutDown,
    /// The underlying recall failed.
    Core(CoreError),
}

impl fmt::Display for EngineError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EngineError::QueueFull => write!(f, "submission queue is full"),
            EngineError::ShutDown => write!(f, "engine shut down before answering"),
            EngineError::Core(e) => write!(f, "recall error: {e}"),
        }
    }
}

impl Error for EngineError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            EngineError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for EngineError {
    fn from(e: CoreError) -> Self {
        EngineError::Core(e)
    }
}

/// Engine sizing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker threads for the RNG-free evaluation phase (minimum one).
    /// Results are worker-count independent.
    pub workers: usize,
    /// Bound of the external submission queue (minimum one). [`RecallEngine::submit`]
    /// blocks and [`RecallEngine::try_submit`] rejects once this many
    /// queries are waiting.
    pub queue_capacity: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            workers: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
            queue_capacity: 64,
        }
    }
}

impl EngineConfig {
    /// Starts a builder seeded with [`EngineConfig::default`] — the one
    /// construction surface shared by the server, bench harness and
    /// examples:
    ///
    /// ```
    /// use spinamm_engine::EngineConfig;
    ///
    /// let config = EngineConfig::builder()
    ///     .workers(2)
    ///     .queue_capacity(8)
    ///     .build();
    /// assert_eq!((config.workers, config.queue_capacity), (2, 8));
    /// ```
    #[must_use]
    pub fn builder() -> EngineConfigBuilder {
        EngineConfigBuilder {
            config: Self::default(),
        }
    }
}

/// Builder for [`EngineConfig`]; every knob defaults to
/// [`EngineConfig::default`].
#[derive(Debug, Clone)]
pub struct EngineConfigBuilder {
    config: EngineConfig,
}

impl EngineConfigBuilder {
    /// Worker threads for the RNG-free evaluation phase (minimum one,
    /// clamped at engine start).
    #[must_use]
    pub fn workers(mut self, workers: usize) -> Self {
        self.config.workers = workers;
        self
    }

    /// Bound of the external submission queue.
    #[must_use]
    pub fn queue_capacity(mut self, capacity: usize) -> Self {
        self.config.queue_capacity = capacity;
        self
    }

    /// Finishes the builder.
    #[must_use]
    pub fn build(self) -> EngineConfig {
        self.config
    }
}

/// A pending response handle returned by [`RecallEngine::submit`].
#[derive(Debug)]
pub struct Ticket {
    seq: u64,
    rx: mpsc::Receiver<Result<EngineResponse, EngineError>>,
}

impl Ticket {
    /// The query's submission sequence number (responses are selected in
    /// this order).
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Blocks until the engine answers this query.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShutDown`] when the engine dropped the query
    /// unanswered (only after one of its threads panicked — stopping the
    /// engine answers every accepted query first), or the query's own
    /// recall error.
    pub fn wait(self) -> Result<EngineResponse, EngineError> {
        match self.rx.recv() {
            Ok(response) => response,
            Err(_) => Err(EngineError::ShutDown),
        }
    }
}

/// One accepted query travelling through the engine, carrying the channel
/// its answer goes back on. Dropping a job unanswered drops that sender,
/// which turns its ticket's `wait` into [`EngineError::ShutDown`].
struct Job {
    seq: u64,
    input: Vec<u32>,
    /// When the query entered the queue (queue-wait and latency reference).
    submitted: Instant,
    trace: Option<ReqHandle>,
    reply: mpsc::Sender<Result<EngineResponse, EngineError>>,
}

/// A worker's output: the job plus its RNG-free evaluation.
type Evaluated = (Job, Result<Evaluation, CoreError>);

/// The master deployment and the evaluations waiting for their turn to
/// select. The workers share it behind one lock; whichever worker holds
/// the lock runs the selects whose turn has come.
struct Master {
    deployment: Deployment,
    /// Evaluations that finished ahead of sequence number `next`.
    pending: BTreeMap<u64, Evaluated>,
    /// The sequence number of the next select.
    next: u64,
}

impl Master {
    /// Files one evaluation, then runs every select whose sequence number
    /// is next — its own and any that were waiting for it — on the master,
    /// answering each ticket. Jobs leave the queue in sequence order, so
    /// the evaluation that completes a prefix drains it.
    fn complete(&mut self, shared: &Shared, evaluated: Evaluated) {
        self.pending.insert(evaluated.0.seq, evaluated);
        while let Some((job, evaluation)) = self.pending.remove(&self.next) {
            self.next += 1;
            let response = evaluation.and_then(|evaluation| {
                let req = shared.request(job.trace);
                let probe = req.probe();
                let _select = probe.span(Layer::ENGINE_SELECT);
                self.deployment.select(evaluation, &job.input, &req)
            });
            respond(shared, job, response.map_err(EngineError::from));
        }
    }
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
    next_seq: u64,
}

struct Shared {
    state: Mutex<QueueState>,
    /// The queue's length, written under the queue lock at every push and
    /// pop, so the depth gauge can read it without that lock.
    depth: AtomicUsize,
    job_ready: Condvar,
    space_ready: Condvar,
    capacity: usize,
    recorder: SharedRecorder,
    tracer: Option<Arc<Tracer>>,
}

impl Shared {
    /// The request one job's phases run under: the shared recorder, joined
    /// to the job's trace when a tracer is attached.
    fn request(&self, handle: Option<ReqHandle>) -> Req<'_> {
        let req = RecallRequest::recorded(&self.recorder);
        match (&self.tracer, handle) {
            (Some(tracer), Some(h)) => req.with_trace_handle(tracer, h),
            _ => req,
        }
    }

    /// Blocks for the next queued job. Returns `None` only once the engine
    /// is closed *and* the queue is empty, so workers drain every accepted
    /// query before they exit.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                self.depth.store(state.jobs.len(), Ordering::Relaxed);
                self.space_ready.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.job_ready.wait(state).expect("queue lock");
        }
    }

    /// Samples the `engine.queue_depth` gauge.
    fn gauge_depth(&self) {
        let depth = self.depth.load(Ordering::Relaxed);
        self.recorder.gauge("engine.queue_depth", depth as f64);
    }
}

/// A worker's RNG-free phase output: everything the master's select needs
/// besides the query itself.
enum Evaluation {
    Flat(QueryEvaluation),
    Partitioned(Vec<QueryEvaluation>),
    /// The top (centroid) module's evaluation; the chosen cluster's member
    /// module evaluates inside the select phase, on the master.
    Hierarchical(QueryEvaluation),
    Tiled(Vec<QueryEvaluation>),
}

/// The engine's only per-kind dispatch.
impl Deployment {
    /// The RNG-free phase, run on a worker's clone. Order-independent: the
    /// canonical warm start makes an evaluation independent of the
    /// module's history.
    fn evaluate(&mut self, input: &[u32], req: &Req<'_>) -> Result<Evaluation, CoreError> {
        match self {
            Deployment::Flat(m) => m.evaluate_query_request(input, req).map(Evaluation::Flat),
            Deployment::Partitioned(p) => p
                .evaluate_query_request(input, req)
                .map(Evaluation::Partitioned),
            Deployment::Hierarchical(h) => h
                .evaluate_top_request(input, req)
                .map(Evaluation::Hierarchical),
            Deployment::Tiled(t) => t.evaluate_query_request(input, req).map(Evaluation::Tiled),
        }
    }

    /// The RNG-consuming phase, run on the master in submission order: it
    /// advances every module's RNG exactly as a sequential recall of
    /// `input` would. A hierarchical select
    /// ([`HierarchicalAmm::select_winner_request`]) also evaluates the
    /// chosen cluster's member module here on the master.
    fn select(
        &mut self,
        evaluation: Evaluation,
        input: &[u32],
        req: &Req<'_>,
    ) -> Result<EngineResponse, CoreError> {
        match (self, evaluation) {
            (Deployment::Flat(m), Evaluation::Flat(eval)) => {
                m.select_winner_request(eval, req).map(EngineResponse::Flat)
            }
            (Deployment::Partitioned(p), Evaluation::Partitioned(evals)) => p
                .select_winner_request(evals, req)
                .map(EngineResponse::Partitioned),
            (Deployment::Hierarchical(h), Evaluation::Hierarchical(eval)) => h
                .select_winner_request(eval, input, req)
                .map(EngineResponse::Hierarchical),
            (Deployment::Tiled(t), Evaluation::Tiled(evals)) => t
                .select_winner_request(evals, req)
                .map(EngineResponse::Tiled),
            _ => Err(CoreError::InvalidParameter {
                what: "evaluation does not match the deployment",
            }),
        }
    }
}

/// The long-lived recall service. See the crate docs for the execution
/// model and the bit-identity guarantee.
pub struct RecallEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// `None` once [`RecallEngine::stop`] has taken the master back.
    master: Option<Arc<Mutex<Master>>>,
}

impl RecallEngine {
    /// Starts an engine over `deployment` without telemetry.
    #[must_use]
    pub fn new(deployment: Deployment, config: &EngineConfig) -> Self {
        Self::with_recorder(deployment, config, Arc::new(NoopRecorder))
    }

    /// Starts an engine reporting `engine.*` telemetry into `recorder`:
    /// `engine.submitted` / `engine.rejected` / `engine.completed` /
    /// `engine.errors` counters, the `engine.queue_depth` gauge, the
    /// `engine.queue_wait_ns` histogram, the `engine.settle` (worker
    /// evaluate phase) and `engine.select` (in-order select phase on the
    /// master, which includes a hierarchical query's member evaluation)
    /// span timers — one sample of each per query — the
    /// `engine.latency_seconds` submit-to-response histogram (p50/p95 in
    /// the snapshot), and per-worker `engine.worker.<i>.jobs` /
    /// `.utilization` series (utilization counts evaluate time only).
    #[must_use]
    pub fn with_recorder(
        deployment: Deployment,
        config: &EngineConfig,
        recorder: SharedRecorder,
    ) -> Self {
        Self::with_observability(deployment, config, recorder, None)
    }

    /// Starts an engine with full observability: the recorder telemetry of
    /// [`RecallEngine::with_recorder`] plus, when `tracer` is given,
    /// per-request span trees. Each submission becomes one
    /// `"engine.recall"` request; its trace carries one `"queue_wait"`
    /// span, an `"evaluate"` span for the worker phase (with `worker` as
    /// an attribute) wrapping the core drive/settle/solve spans, and a
    /// `"select"` span for the RNG phase on the master, run by whichever
    /// worker holds the master when the query's turn comes. A hierarchical
    /// query's `"select"` nests an `"evaluate.member"` and a
    /// `"select.member"` span, both with `cluster` as an attribute.
    /// Tracing is observation-only: responses are bit-identical with or
    /// without it.
    #[must_use]
    pub fn with_observability(
        deployment: Deployment,
        config: &EngineConfig,
        recorder: SharedRecorder,
        tracer: Option<Arc<Tracer>>,
    ) -> Self {
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
                next_seq: 0,
            }),
            depth: AtomicUsize::new(0),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            recorder,
            tracer,
        });
        // Each worker owns a full clone of the deployment; clones share the
        // canonically warmed solver sessions and the kernel tables, so their
        // evaluations are bit-identical to the master's.
        let clones: Vec<Deployment> = (0..worker_count).map(|_| deployment.clone()).collect();
        let master = Arc::new(Mutex::new(Master {
            deployment,
            pending: BTreeMap::new(),
            next: 0,
        }));
        let workers = clones
            .into_iter()
            .enumerate()
            .map(|(idx, clone)| {
                let shared = Arc::clone(&shared);
                let master = Arc::clone(&master);
                std::thread::spawn(move || worker_loop(idx, &shared, &master, clone))
            })
            .collect();
        Self {
            shared,
            workers,
            master: Some(master),
        }
    }

    /// Submits one query, blocking while the queue is at capacity.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShutDown`] when the engine is stopping.
    pub fn submit(&self, input: &[u32]) -> Result<Ticket, EngineError> {
        self.submit_inner(input, true)
    }

    /// Submits one query without blocking.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::QueueFull`] when the queue is at capacity
    /// (counted as `engine.rejected`), or [`EngineError::ShutDown`] when
    /// the engine is stopping.
    pub fn try_submit(&self, input: &[u32]) -> Result<Ticket, EngineError> {
        self.submit_inner(input, false)
    }

    fn submit_inner(&self, input: &[u32], block: bool) -> Result<Ticket, EngineError> {
        let recorder = &self.shared.recorder;
        let mut state = self.shared.state.lock().expect("queue lock");
        while state.jobs.len() >= self.shared.capacity && !state.closed {
            if !block {
                recorder.counter("engine.rejected", 1);
                return Err(EngineError::QueueFull);
            }
            state = self.shared.space_ready.wait(state).expect("queue lock");
        }
        if state.closed {
            return Err(EngineError::ShutDown);
        }
        let seq = state.next_seq;
        state.next_seq += 1;
        let (reply, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            seq,
            input: input.to_vec(),
            submitted: Instant::now(),
            trace: self
                .shared
                .tracer
                .as_deref()
                .map(|t| t.begin("engine.recall")),
            reply,
        });
        self.shared.depth.store(state.jobs.len(), Ordering::Relaxed);
        recorder.counter("engine.submitted", 1);
        recorder.gauge("engine.queue_depth", state.jobs.len() as f64);
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(Ticket { seq, rx })
    }

    /// Submits a whole batch (blocking for queue space) and waits for all
    /// responses, in submission order.
    ///
    /// # Errors
    ///
    /// Returns the first failing query's error.
    pub fn recall_many<S: AsRef<[u32]>>(
        &self,
        inputs: &[S],
    ) -> Result<Vec<EngineResponse>, EngineError> {
        let pending: Vec<Ticket> = inputs
            .iter()
            .map(|input| self.submit(input.as_ref()))
            .collect::<Result<_, _>>()?;
        pending.into_iter().map(Ticket::wait).collect()
    }

    /// Stops the engine: the workers drain the queue and every accepted
    /// query is answered — for every deployment kind — before the threads
    /// join. Dropping the engine does the same.
    pub fn shutdown(mut self) {
        self.stop();
    }

    /// Stops the engine like [`RecallEngine::shutdown`] — every accepted
    /// query answered — and hands back the master deployment the selects
    /// ran on, with all RNG and solver state exactly where that answered
    /// traffic left it: its next recall equals the next recall of a
    /// sequential twin that recalled the same queries. This is how a
    /// lifetime maintenance window works: drain the engine, run background
    /// refresh on the recovered module, then start a new engine over it.
    ///
    /// # Panics
    ///
    /// Panics if a select panicked (the master deployment is unrecoverable
    /// in that case).
    #[must_use]
    pub fn into_deployment(mut self) -> Deployment {
        self.stop().expect("a select panicked on the master")
    }

    /// The one stop path: close the queue and join the workers once they
    /// have drained it and answered everything they evaluated. Returns the
    /// master deployment on the first call, unless a select panicked.
    fn stop(&mut self) -> Option<Deployment> {
        // Closing is valid on any queue state, and this runs in `Drop`,
        // which must not panic: recover a lock poisoned by a panicked
        // thread instead of failing on it.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .closed = true;
        self.shared.job_ready.notify_all();
        self.shared.space_ready.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
        // The workers are gone, so this is the last handle on the master.
        let master = Arc::try_unwrap(self.master.take()?).ok()?;
        master.into_inner().ok().map(|master| master.deployment)
    }
}

impl Drop for RecallEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(idx: usize, shared: &Shared, master: &Mutex<Master>, mut deployment: Deployment) {
    let recorder = &shared.recorder;
    let jobs_series = format!("engine.worker.{idx}.jobs");
    let utilization_series = format!("engine.worker.{idx}.utilization");
    let started = Instant::now();
    let mut busy = 0.0f64;
    while let Some(job) = shared.next_job() {
        if recorder.is_enabled() {
            let wait = job.submitted.elapsed();
            recorder.observe("engine.queue_wait_ns", wait.as_secs_f64() * 1e9);
        }
        let req = shared.request(job.trace);
        let probe = req.probe();
        probe.span_since(Layer::QUEUE_WAIT, job.submitted, &[("worker", idx as f64)]);
        let t0 = Instant::now();
        let evaluation = {
            let span = probe.span(Layer::ENGINE_EVALUATE);
            span.attr("worker", idx as f64);
            deployment.evaluate(&job.input, &req)
        };
        if recorder.is_enabled() {
            busy += t0.elapsed().as_secs_f64();
            recorder.counter(&jobs_series, 1);
            let total = started.elapsed().as_secs_f64();
            if total > 0.0 {
                recorder.gauge(&utilization_series, busy / total);
            }
            shared.gauge_depth();
        }
        match master.lock() {
            Ok(mut master) => master.complete(shared, (job, evaluation)),
            Err(poisoned) => {
                // A select panicked, leaving the master's RNG position
                // unknown: answer nothing more. Dropping a job unanswered
                // fails its ticket with `ShutDown`.
                poisoned.into_inner().pending.clear();
                return;
            }
        }
    }
}

fn respond(shared: &Shared, job: Job, response: Result<EngineResponse, EngineError>) {
    let recorder = &shared.recorder;
    if recorder.is_enabled() {
        recorder.observe(
            "engine.latency_seconds",
            job.submitted.elapsed().as_secs_f64(),
        );
        // Re-sample the depth gauge at completion: submissions and
        // dequeues alone leave it stuck at its high-water mark once the
        // queue drains.
        shared.gauge_depth();
    }
    recorder.counter(
        if response.is_ok() {
            "engine.completed"
        } else {
            "engine.errors"
        },
        1,
    );
    if let (Some(tracer), Some(h)) = (&shared.tracer, job.trace) {
        tracer.finish(h);
    }
    // The caller may have dropped its ticket unwaited; nothing to tell.
    let _ = job.reply.send(response);
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_core::amm::AmmConfig;
    use spinamm_telemetry::MemoryRecorder;

    fn patterns() -> Vec<Vec<u32>> {
        vec![
            vec![31, 31, 31, 31, 0, 0, 0, 0, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 31, 31, 31, 31, 0, 0, 0, 0],
            vec![0, 0, 0, 0, 0, 0, 0, 0, 31, 31, 31, 31],
        ]
    }

    fn flat_deployment() -> Deployment {
        Deployment::Flat(
            AssociativeMemoryModule::build(&patterns(), &AmmConfig::default()).unwrap(),
        )
    }

    #[test]
    fn engine_answers_match_sequential_reference() {
        let mut sequential = flat_deployment();
        let engine = RecallEngine::new(
            flat_deployment(),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(9).collect();
        let got = engine.recall_many(&queries).unwrap();
        for (q, response) in queries.iter().zip(&got) {
            assert_eq!(response, &sequential.recall(q).unwrap());
        }
        engine.shutdown();
    }

    #[test]
    fn try_submit_reports_backpressure() {
        // Zero workers is clamped to one; a capacity-1 queue with slow
        // submission pressure must eventually reject.
        let engine = RecallEngine::new(
            flat_deployment(),
            &EngineConfig::builder().workers(1).queue_capacity(1).build(),
        );
        let input = patterns()[0].clone();
        let mut rejected = false;
        let mut accepted = Vec::new();
        for _ in 0..64 {
            match engine.try_submit(&input) {
                Ok(t) => accepted.push(t),
                Err(EngineError::QueueFull) => {
                    rejected = true;
                    break;
                }
                Err(e) => panic!("unexpected {e}"),
            }
        }
        assert!(rejected, "capacity-1 queue never filled");
        for t in accepted {
            t.wait().unwrap();
        }
        engine.shutdown();
    }

    #[test]
    fn invalid_inputs_surface_as_core_errors() {
        let engine = RecallEngine::new(flat_deployment(), &EngineConfig::default());
        let err = engine.submit(&[0u32; 3]).unwrap().wait().unwrap_err();
        assert!(matches!(
            err,
            EngineError::Core(CoreError::InputLengthMismatch { .. })
        ));
        // A bad query consumes no RNG: the next good one still matches the
        // sequential reference.
        let mut sequential = flat_deployment();
        let good = engine.submit(&patterns()[1]).unwrap().wait().unwrap();
        assert_eq!(good, sequential.recall(&patterns()[1]).unwrap());
    }

    #[test]
    fn submit_after_shutdown_is_rejected() {
        let engine = RecallEngine::new(flat_deployment(), &EngineConfig::default());
        let input = patterns()[0].clone();
        engine.submit(&input).unwrap().wait().unwrap();
        // Close via an aliased handle is impossible (shutdown consumes),
        // so exercise Drop + a fresh engine's closed flag directly.
        let shared = Arc::clone(&engine.shared);
        engine.shutdown();
        assert!(shared.state.lock().unwrap().closed);
    }

    #[test]
    fn telemetry_counters_and_latency_flow() {
        let recorder = Arc::new(MemoryRecorder::default());
        let engine = RecallEngine::with_recorder(
            flat_deployment(),
            &EngineConfig::builder().workers(2).queue_capacity(4).build(),
            recorder.clone(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(6).collect();
        engine.recall_many(&queries).unwrap();
        engine.shutdown();
        let snap = recorder.snapshot();
        assert_eq!(snap.counter("engine.submitted"), 6);
        assert_eq!(snap.counter("engine.completed"), 6);
        assert_eq!(
            snap.histogram_stats("engine.latency_seconds")
                .unwrap()
                .count,
            6
        );
        assert_eq!(snap.span_stats("engine.settle").unwrap().count, 6);
        assert_eq!(snap.span_stats("engine.select").unwrap().count, 6);
        let worker_jobs: u64 = (0..2)
            .map(|i| snap.counter(&format!("engine.worker.{i}.jobs")))
            .sum();
        assert_eq!(worker_jobs, 6);
    }

    #[test]
    fn tiled_engine_answers_match_sequential_reference() {
        let build = || {
            Deployment::Tiled(
                TiledAmm::build(&patterns(), 1, &AmmConfig::default())
                    .unwrap()
                    .with_top_k(2)
                    .unwrap(),
            )
        };
        let mut sequential = build();
        let engine = RecallEngine::new(
            build(),
            &EngineConfig::builder().workers(3).queue_capacity(2).build(),
        );
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(9).collect();
        let got = engine.recall_many(&queries).unwrap();
        for (q, response) in queries.iter().zip(&got) {
            let want = sequential.recall(q).unwrap();
            assert_eq!(response, &want);
            let EngineResponse::Tiled(r) = response else {
                panic!("tiled deployment must answer with tiled responses");
            };
            assert_eq!(r.matches.len(), 2);
            assert_eq!(response.winner(), r.matches[0].global_column);
            assert_eq!(response.dom(), r.dom);
        }
        engine.shutdown();
    }

    #[test]
    fn hierarchical_engine_matches_sequential() {
        let hier_patterns: Vec<Vec<u32>> = (0..6)
            .map(|p| {
                (0..12)
                    .map(|i| {
                        if i % 3 == p % 3 {
                            28
                        } else {
                            (i + p) as u32 % 6
                        }
                    })
                    .collect()
            })
            .collect();
        let build = || {
            Deployment::Hierarchical(
                HierarchicalAmm::build(&hier_patterns, 2, &AmmConfig::default()).unwrap(),
            )
        };
        let mut sequential = build();
        let engine = RecallEngine::new(
            build(),
            &EngineConfig::builder().workers(2).queue_capacity(4).build(),
        );
        let queries: Vec<Vec<u32>> = hier_patterns.iter().cloned().cycle().take(12).collect();
        for (q, response) in queries.iter().zip(engine.recall_many(&queries).unwrap()) {
            assert_eq!(response, sequential.recall(q).unwrap());
        }
        engine.shutdown();
    }

    #[test]
    fn engine_error_display_and_source() {
        assert!(EngineError::QueueFull.to_string().contains("full"));
        assert!(EngineError::ShutDown.to_string().contains("shut"));
        let core = EngineError::Core(CoreError::InvalidParameter { what: "x" });
        assert!(core.to_string().contains("x"));
        assert!(Error::source(&core).is_some());
        assert!(Error::source(&EngineError::QueueFull).is_none());
    }
}
