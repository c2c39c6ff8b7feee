//! The transport-independent service core: admission → engine → wire
//! response.
//!
//! [`RecallService::handle`] is the *only* request path. The HTTP and
//! binary transports decode to an [`ApiRecallRequest`], call `handle`, and
//! encode whatever comes back; the load-replay harness calls `handle`
//! directly. One path means the conformance suite's "served responses are
//! bit-identical to direct engine submission" covers every transport.

use crate::admission::{ConcurrencyGate, InflightGuard};
use crate::api::{ApiRecallRequest, ApiRecallResponse};
use crate::registry::ModuleRegistry;
use spinamm_engine::EngineError;
use spinamm_telemetry::json::JsonValue;
use spinamm_telemetry::{MemoryRecorder, Recorder};
use std::sync::Arc;
use std::time::Instant;

/// Server-level sizing and limits; every field has a
/// [`ServerConfig::default`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServerConfig {
    /// Address the TCP listener binds (`"127.0.0.1:0"` picks a free
    /// port).
    pub bind: String,
    /// Global cap on concurrently served recalls across all tenants;
    /// beyond it requests get 503 without touching any engine.
    pub global_concurrency: usize,
    /// Cap on simultaneously open TCP connections; beyond it new
    /// connections get an immediate 503 and are closed.
    pub max_connections: usize,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            bind: "127.0.0.1:0".to_owned(),
            global_concurrency: 256,
            max_connections: 128,
        }
    }
}

/// A typed service failure; [`ServeError::status`] maps it to HTTP.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No tenant registered under the requested name → 404.
    UnknownTenant(String),
    /// The request was malformed or sized wrong for the deployment → 400.
    BadRequest(String),
    /// The tenant's token bucket is empty → 429 with a retry hint.
    OverQuota {
        /// Whole seconds until the bucket refills one token.
        retry_after_secs: u64,
    },
    /// The global concurrency cap is reached → 503.
    Saturated,
    /// The tenant engine's bounded queue is full → 503.
    QueueFull,
    /// The tenant engine stopped (evicted mid-flight) → 503.
    Gone,
}

impl ServeError {
    /// The HTTP status code this failure maps to.
    #[must_use]
    pub fn status(&self) -> u16 {
        match self {
            ServeError::UnknownTenant(_) => 404,
            ServeError::BadRequest(_) => 400,
            ServeError::OverQuota { .. } => 429,
            ServeError::Saturated | ServeError::QueueFull | ServeError::Gone => 503,
        }
    }

    /// Stable machine-readable kind.
    #[must_use]
    pub fn kind(&self) -> &'static str {
        match self {
            ServeError::UnknownTenant(_) => "unknown_tenant",
            ServeError::BadRequest(_) => "bad_request",
            ServeError::OverQuota { .. } => "over_quota",
            ServeError::Saturated => "saturated",
            ServeError::QueueFull => "queue_full",
            ServeError::Gone => "gone",
        }
    }

    /// The JSON error body: `{"error":{"status":…,"kind":…,"message":…}}`.
    #[must_use]
    pub fn to_json(&self) -> String {
        JsonValue::object([(
            "error",
            JsonValue::object([
                ("status", JsonValue::Uint(u64::from(self.status()))),
                ("kind", JsonValue::Str(self.kind().to_owned())),
                ("message", JsonValue::Str(self.to_string())),
            ]),
        )])
        .render()
    }
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownTenant(name) => write!(f, "no tenant {name:?} is registered"),
            ServeError::BadRequest(msg) => write!(f, "bad request: {msg}"),
            ServeError::OverQuota { retry_after_secs } => {
                write!(f, "tenant over quota, retry after {retry_after_secs}s")
            }
            ServeError::Saturated => write!(f, "server at its concurrency cap"),
            ServeError::QueueFull => write!(f, "tenant queue is full"),
            ServeError::Gone => write!(f, "tenant engine shut down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// The admission-controlled, multi-tenant recall service.
#[derive(Debug)]
pub struct RecallService {
    registry: Arc<ModuleRegistry>,
    gate: ConcurrencyGate,
    recorder: Arc<MemoryRecorder>,
    origin: Instant,
}

impl RecallService {
    /// Wraps `registry` with the admission limits of `config`.
    #[must_use]
    pub fn new(registry: Arc<ModuleRegistry>, config: &ServerConfig) -> Self {
        Self {
            registry,
            gate: ConcurrencyGate::new(config.global_concurrency),
            recorder: Arc::new(MemoryRecorder::default()),
            origin: Instant::now(),
        }
    }

    /// The tenant registry behind the service.
    #[must_use]
    pub fn registry(&self) -> &Arc<ModuleRegistry> {
        &self.registry
    }

    /// Server-level telemetry (`server.*` counters).
    #[must_use]
    pub fn recorder(&self) -> &Arc<MemoryRecorder> {
        &self.recorder
    }

    /// Nanoseconds since service start — the admission clock.
    #[must_use]
    pub fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Serves one recall end to end: tenant lookup, quota spend, global
    /// concurrency slot, engine submission, wire projection. Blocks until
    /// the engine answers.
    ///
    /// # Errors
    ///
    /// Returns a typed [`ServeError`]; each maps to one HTTP status via
    /// [`ServeError::status`].
    pub fn handle(&self, request: &ApiRecallRequest) -> Result<ApiRecallResponse, ServeError> {
        self.recorder.counter("server.requests", 1);
        let outcome = self.admit_and_submit(request);
        match &outcome {
            Ok(_) => self.recorder.counter("server.served", 1),
            Err(e) => {
                self.recorder.counter("server.rejected", 1);
                self.recorder
                    .counter(&format!("server.rejected.{}", e.kind()), 1);
            }
        }
        outcome
    }

    fn admit_and_submit(
        &self,
        request: &ApiRecallRequest,
    ) -> Result<ApiRecallResponse, ServeError> {
        let tenant = self
            .registry
            .get(&request.tenant)
            .ok_or_else(|| ServeError::UnknownTenant(request.tenant.clone()))?;
        if request.input.len() != tenant.vector_len() {
            return Err(ServeError::BadRequest(format!(
                "input has {} levels, deployment expects {}",
                request.input.len(),
                tenant.vector_len()
            )));
        }
        let now = self.now_ns();
        if !tenant.try_spend_quota(now) {
            return Err(ServeError::OverQuota {
                retry_after_secs: tenant.quota_retry_after_secs(now).max(1),
            });
        }
        let _slot: InflightGuard = self.gate.try_acquire().ok_or(ServeError::Saturated)?;
        let ticket = tenant
            .engine()
            .try_submit(&request.input)
            .map_err(|e| match e {
                EngineError::QueueFull => ServeError::QueueFull,
                EngineError::ShutDown => ServeError::Gone,
                EngineError::Core(core) => ServeError::BadRequest(core.to_string()),
            })?;
        let response = ticket.wait().map_err(|e| match e {
            EngineError::ShutDown => ServeError::Gone,
            EngineError::QueueFull => ServeError::QueueFull,
            EngineError::Core(core) => ServeError::BadRequest(core.to_string()),
        })?;
        Ok(ApiRecallResponse::from_engine(tenant.name(), &response))
    }

    /// The `/metrics` document: server counters, gate occupancy, and every
    /// tenant's full [`spinamm_telemetry::TelemetrySnapshot`] (counters,
    /// gauges, and the `engine.latency_seconds` / `engine.queue_wait_ns`
    /// histograms with p50…p999) keyed by tenant name.
    #[must_use]
    pub fn metrics_json(&self) -> JsonValue {
        let tenants: Vec<(String, JsonValue)> = self
            .registry
            .tenants()
            .into_iter()
            .map(|tenant| {
                (
                    tenant.name().to_owned(),
                    JsonValue::object([
                        ("kind", JsonValue::Str(tenant.kind().as_str().to_owned())),
                        ("vector_len", JsonValue::Uint(tenant.vector_len() as u64)),
                        ("metrics", tenant.recorder().snapshot().to_json_value()),
                    ]),
                )
            })
            .collect();
        JsonValue::object([
            (
                "server",
                JsonValue::object([
                    ("inflight", JsonValue::Uint(self.gate.inflight())),
                    ("concurrency_limit", JsonValue::Uint(self.gate.limit())),
                    ("metrics", self.recorder.snapshot().to_json_value()),
                ]),
            ),
            ("tenants", JsonValue::Object(tenants)),
        ])
    }
}
