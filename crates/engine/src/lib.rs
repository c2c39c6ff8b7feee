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
//!   canonically warmed solver sessions — take whichever query is next
//!   and run all of it: the drive/settle/solve (evaluate) phase, then the
//!   ADC/WTA (select) phase, then the answer. A query crosses one engine
//!   thread, and the workers share nothing but the queue.
//!
//! A recall is a pure function of the deployment and the input: the
//! evaluate phase is deterministic and order-independent (fixed
//! warm-start reference pinned at build time), and the select phase draws
//! no randomness and changes nothing. So every response is
//! **bit-identical** to calling the deployment's `recall` once per query in
//! submission order — at any worker count, queue capacity, or thread
//! interleaving. A hierarchical deployment's worker evaluates its top
//! (centroid) module, picks the cluster, evaluates that cluster's member
//! module — only the chosen cluster runs, as in the paper's §5 hierarchy —
//! and picks the member. Tiled capacity pools ([`Deployment::Tiled`])
//! evaluate and digitize every tile of a query, and the top-k merge ranks
//! them. Every phase runs through the modules' compiled kernels
//! (`spinamm_core::plan`), which clones share, so the engine has no
//! execution path of its own to choose.
//!
//! Stopping the engine — [`RecallEngine::shutdown`],
//! [`RecallEngine::into_deployment`] or a drop — drains the queue first:
//! every accepted query is answered. A worker that panics drops the one
//! job it holds, whose ticket reads [`EngineError::ShutDown`]; the other
//! workers keep serving.
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

use spinamm_core::amm::{AssociativeMemoryModule, RecallResult};
use spinamm_core::capacity::{TiledAmm, TiledRecall};
use spinamm_core::hierarchy::{HierarchicalAmm, HierarchicalRecall};
use spinamm_core::partition::{PartitionedAmm, PartitionedRecall};
use spinamm_core::request::RecallRequest;
use spinamm_core::CoreError;
use spinamm_telemetry::{Layer, NoopRecorder, Recorder};
use std::collections::VecDeque;
use std::error::Error;
use std::fmt;
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
    /// Worker threads, each running whole queries (minimum one). Results
    /// are worker-count independent.
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
    /// Worker threads, each running whole queries (minimum one, clamped at
    /// engine start).
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
    rx: mpsc::Receiver<Result<EngineResponse, EngineError>>,
}

impl Ticket {
    /// Blocks until the engine answers this query.
    ///
    /// # Errors
    ///
    /// Returns [`EngineError::ShutDown`] when the engine dropped the query
    /// unanswered (only when the worker running it panicked — stopping the
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
    input: Vec<u32>,
    /// When the query entered the queue (queue-wait and latency reference).
    submitted: Instant,
    reply: mpsc::Sender<Result<EngineResponse, EngineError>>,
}

struct QueueState {
    jobs: VecDeque<Job>,
    closed: bool,
}

struct Shared {
    state: Mutex<QueueState>,
    job_ready: Condvar,
    space_ready: Condvar,
    capacity: usize,
    recorder: SharedRecorder,
}

impl Shared {
    /// Runs `phase` under a span of `layer`.
    fn timed<T>(&self, layer: Layer, phase: impl FnOnce() -> T) -> T {
        let _span = self.recorder.span(layer);
        phase()
    }

    /// Blocks for the next queued job. Returns `None` only once the engine
    /// is closed *and* the queue is empty, so workers drain every accepted
    /// query before they exit.
    fn next_job(&self) -> Option<Job> {
        let mut state = self.state.lock().expect("queue lock");
        loop {
            if let Some(job) = state.jobs.pop_front() {
                // Sampled under the queue lock, as at every push, so the
                // gauge's last value is the queue's length.
                self.recorder
                    .gauge("engine.queue_depth", state.jobs.len() as f64);
                self.space_ready.notify_one();
                return Some(job);
            }
            if state.closed {
                return None;
            }
            state = self.job_ready.wait(state).expect("queue lock");
        }
    }
}

/// The engine's only per-kind dispatch.
impl Deployment {
    /// Runs one query on a worker's clone: the evaluate phase under an
    /// `engine.settle` span, then the select phase under `engine.select`.
    /// A hierarchical select evaluates the chosen cluster's member module
    /// too ([`HierarchicalAmm::select_winner_request`]).
    fn serve(&mut self, input: &[u32], shared: &Shared) -> Result<EngineResponse, CoreError> {
        let req = &RecallRequest::recorded(&shared.recorder);
        let (settle, select) = (Layer::ENGINE_EVALUATE, Layer::ENGINE_SELECT);
        match self {
            Deployment::Flat(m) => {
                let eval = shared.timed(settle, || m.evaluate_query_request(input, req))?;
                shared
                    .timed(select, || m.select_winner_request(eval, req))
                    .map(EngineResponse::Flat)
            }
            Deployment::Partitioned(p) => {
                let evals = shared.timed(settle, || p.evaluate_query_request(input, req))?;
                shared
                    .timed(select, || p.select_winner_request(evals, req))
                    .map(EngineResponse::Partitioned)
            }
            Deployment::Hierarchical(h) => {
                let top = shared.timed(settle, || h.evaluate_top_request(input, req))?;
                shared
                    .timed(select, || h.select_winner_request(top, input, req))
                    .map(EngineResponse::Hierarchical)
            }
            Deployment::Tiled(t) => {
                let evals = shared.timed(settle, || t.evaluate_query_request(input, req))?;
                shared
                    .timed(select, || t.select_winner_request(evals, req))
                    .map(EngineResponse::Tiled)
            }
        }
    }
}

/// The long-lived recall service. See the crate docs for the execution
/// model and the bit-identity guarantee.
pub struct RecallEngine {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    /// The deployment the engine was given, which no query touches;
    /// `None` once [`RecallEngine::into_deployment`] has handed it back.
    deployment: Option<Deployment>,
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
    /// `engine.queue_wait_ns` histogram, the `engine.settle` (evaluate
    /// phase) and `engine.select` (select phase, which includes a
    /// hierarchical query's member evaluation) span timers — one sample of
    /// each per query — the `engine.latency_seconds` submit-to-response
    /// histogram (p50/p95 in the snapshot), and per-worker
    /// `engine.worker.<i>.jobs` / `.utilization` series (utilization is the
    /// share of the worker's lifetime spent running queries).
    /// The deployment's own stage series (`recall.drive`,
    /// `recall.settle`, `recall.convert`, `recall.select`, …) land in the
    /// same recorder. Telemetry is observation-only: responses are
    /// bit-identical with any recorder.
    #[must_use]
    pub fn with_recorder(
        deployment: Deployment,
        config: &EngineConfig,
        recorder: SharedRecorder,
    ) -> Self {
        let worker_count = config.workers.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                jobs: VecDeque::new(),
                closed: false,
            }),
            job_ready: Condvar::new(),
            space_ready: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            recorder,
        });
        // Each worker owns a full clone of the deployment; clones share the
        // canonically warmed solver sessions and the kernel tables, so their
        // recalls are bit-identical to the original's.
        let workers = (0..worker_count)
            .map(|idx| {
                let shared = Arc::clone(&shared);
                let clone = deployment.clone();
                std::thread::spawn(move || worker_loop(idx, &shared, clone))
            })
            .collect();
        Self {
            shared,
            workers,
            deployment: Some(deployment),
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
        let (reply, rx) = mpsc::channel();
        state.jobs.push_back(Job {
            input: input.to_vec(),
            submitted: Instant::now(),
            reply,
        });
        recorder.counter("engine.submitted", 1);
        recorder.gauge("engine.queue_depth", state.jobs.len() as f64);
        drop(state);
        self.shared.job_ready.notify_one();
        Ok(Ticket { rx })
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
    /// query answered — and hands back the deployment the engine was
    /// given, untouched: queries run on the workers' clones, and a recall
    /// changes nothing a later recall reads, so its next recall equals the
    /// next recall of a sequential twin that recalled the same queries.
    /// This is how a lifetime maintenance window works: drain the engine,
    /// run background refresh on the recovered module, then start a new
    /// engine over it.
    #[must_use]
    pub fn into_deployment(mut self) -> Deployment {
        self.stop();
        self.deployment
            .take()
            .expect("only into_deployment takes the deployment")
    }

    /// The one stop path: close the queue and join the workers once they
    /// have drained it and answered every job.
    fn stop(&mut self) {
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
    }
}

impl Drop for RecallEngine {
    fn drop(&mut self) {
        self.stop();
    }
}

fn worker_loop(idx: usize, shared: &Shared, mut deployment: Deployment) {
    let recorder = &shared.recorder;
    let jobs_series = format!("engine.worker.{idx}.jobs");
    let utilization_series = format!("engine.worker.{idx}.utilization");
    let started = Instant::now();
    let mut busy = 0.0f64;
    while let Some(job) = shared.next_job() {
        #[cfg(test)]
        if job.input.first() == Some(&tests::PANIC_MARK) {
            panic!("a marked job panics its worker");
        }
        if recorder.is_enabled() {
            let wait = job.submitted.elapsed();
            recorder.observe("engine.queue_wait_ns", wait.as_secs_f64() * 1e9);
        }
        let t0 = Instant::now();
        let response = deployment.serve(&job.input, shared);
        if recorder.is_enabled() {
            busy += t0.elapsed().as_secs_f64();
            recorder.counter(&jobs_series, 1);
            let total = started.elapsed().as_secs_f64();
            if total > 0.0 {
                recorder.gauge(&utilization_series, busy / total);
            }
            recorder.observe(
                "engine.latency_seconds",
                job.submitted.elapsed().as_secs_f64(),
            );
        }
        recorder.counter(
            if response.is_ok() {
                "engine.completed"
            } else {
                "engine.errors"
            },
            1,
        );
        // The caller may have dropped its ticket unwaited; nothing to tell.
        let _ = job.reply.send(response.map_err(EngineError::from));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spinamm_core::amm::{AmmConfig, Fidelity};
    use spinamm_core::degrade::DegradationPolicy;
    use spinamm_faults::{FaultMap, StuckKind};
    use spinamm_telemetry::MemoryRecorder;
    use std::time::Duration;

    /// A job whose input starts with this level panics the worker that
    /// pops it (the trigger in `worker_loop` exists only in tests).
    pub(super) const PANIC_MARK: u32 = u32::MAX;

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
    fn a_worker_panic_fails_one_ticket_not_the_tenant() {
        let mut sequential = flat_deployment();
        let engine = RecallEngine::new(
            flat_deployment(),
            &EngineConfig::builder()
                .workers(2)
                .queue_capacity(16)
                .build(),
        );
        let mut marked = patterns()[0].clone();
        marked[0] = PANIC_MARK;
        let marked = engine.submit(&marked).unwrap();
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(6).collect();
        let tickets: Vec<Ticket> = queries.iter().map(|q| engine.submit(q).unwrap()).collect();
        // Wait on a helper thread, so a ticket nobody answers fails the
        // test instead of hanging it.
        let (tx, rx) = mpsc::channel();
        let helper = std::thread::spawn(move || {
            let answers: Vec<_> = tickets.into_iter().map(Ticket::wait).collect();
            let _ = tx.send((marked.wait(), answers));
        });
        let (marked, answers) = rx
            .recv_timeout(Duration::from_secs(30))
            .expect("a ticket after the panic was never answered");
        helper.join().unwrap();
        assert_eq!(marked.unwrap_err(), EngineError::ShutDown);
        for (q, answer) in queries.iter().zip(answers) {
            assert_eq!(answer.unwrap(), sequential.recall(q).unwrap());
        }
        engine.shutdown();
    }

    #[test]
    fn recalls_leave_the_write_stream_untouched() {
        // A recall draws nothing from a module's RNG, the stream template
        // writes draw their programming noise from. So after one twin
        // serves traffic through every entry point, the same write on both
        // twins programs the same conductances and gives the same recall.
        let req = RecallRequest::DEFAULT;
        let queries: Vec<Vec<u32>> = patterns().into_iter().cycle().take(6).collect();
        let template: Vec<u32> = (0..12).map(|i| (i * 13 + 5) % 32).collect();
        // Direct recalls, then an engine window.
        let serve = |mut busy: Deployment| {
            for q in &queries {
                busy.recall(q).unwrap();
            }
            let config = EngineConfig::builder().workers(2).queue_capacity(4).build();
            let engine = RecallEngine::new(busy, &config);
            engine.recall_many(&queries).unwrap();
            engine.into_deployment()
        };
        let faults = FaultMap::pristine(12, 6, 9)
            .and_then(|m| m.with_stuck_cell(2, 1, StuckKind::Lrs))
            .and_then(|m| m.with_threshold_factor(0, 1.3))
            .unwrap();
        for fidelity in [Fidelity::Ideal, Fidelity::Driven, Fidelity::Parasitic] {
            let cfg = AmmConfig {
                fidelity,
                spare_columns: 3,
                ..AmmConfig::default()
            };
            let module = || {
                let mut m = AssociativeMemoryModule::build(&patterns(), &cfg).unwrap();
                m.inject_faults(faults.clone(), &DegradationPolicy::default())
                    .unwrap();
                m
            };
            let (mut busy, mut idle) = (module(), module());
            busy.recall_batch(&queries).unwrap();
            let eval = busy.clone().evaluate_query_request(&queries[0], &req);
            busy.select_winner_request(eval.unwrap(), &req).unwrap();
            let Deployment::Flat(mut busy) = serve(Deployment::Flat(busy)) else {
                unreachable!("the engine hands back the deployment it was given")
            };
            let installed = busy.install_template(&template).unwrap();
            assert_eq!(installed, idle.install_template(&template).unwrap());
            let conductances = busy.array().conductances();
            assert_eq!(conductances, idle.array().conductances(), "{fidelity:?}");
            let recall = busy.recall(&template).unwrap();
            assert_eq!(recall, idle.recall(&template).unwrap(), "{fidelity:?}");

            let pool = || TiledAmm::build(&patterns(), 2, &cfg).unwrap();
            let (busy, mut idle) = (pool(), pool());
            let evals = busy.clone().evaluate_query_request(&queries[0], &req);
            busy.select_winner_request(evals.unwrap(), &req).unwrap();
            let Deployment::Tiled(mut busy) = serve(Deployment::Tiled(busy)) else {
                unreachable!("the engine hands back the deployment it was given")
            };
            let inserted = busy.insert_template(&template).unwrap();
            assert_eq!(inserted, idle.insert_template(&template).unwrap());
            // Every tile's column currents, a function of its conductances.
            let currents =
                |pool: &mut TiledAmm| pool.evaluate_query_request(&template, &req).unwrap();
            assert_eq!(currents(&mut busy), currents(&mut idle), "{fidelity:?}");
            let recall = busy.recall(&template).unwrap();
            assert_eq!(recall, idle.recall(&template).unwrap(), "{fidelity:?}");
        }
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
