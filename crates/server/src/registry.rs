//! The multi-tenant module registry: tenant name → a served
//! [`Deployment`] with its own engine, recorder, and admission quota.
//!
//! Each tenant is an isolated serving stack: its deployment (any
//! organization — flat, partitioned, hierarchical, tiled — with its own
//! template bank, fidelity and seed) runs behind a dedicated
//! [`RecallEngine`] whose telemetry flows into a dedicated
//! [`MemoryRecorder`]. That recorder is what makes `/metrics` and
//! queue-wait attribution *per tenant* for free: `engine.queue_wait_ns`,
//! `engine.latency_seconds`, `capacity.*` and friends are all recorded on
//! the tenant's own sink.
//!
//! Tenants register and evict at runtime. Evicting drops the registry's
//! handle; the engine shuts down when the last in-flight request releases
//! it (engines stop their threads on drop).

use crate::admission::TokenBucket;
use crate::api::DeploymentKind;
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
use spinamm_core::capacity::TiledAmm;
use spinamm_core::hierarchy::HierarchicalAmm;
use spinamm_core::partition::PartitionedAmm;
use spinamm_core::request::RecallRequest;
use spinamm_core::CoreError;
use spinamm_engine::{Deployment, EngineConfig, RecallEngine};
use spinamm_telemetry::MemoryRecorder;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

/// How to build one tenant's deployment.
#[derive(Debug, Clone)]
pub enum DeploymentSpec {
    /// One associative memory module.
    Flat {
        /// Stored template bank.
        patterns: Vec<Vec<u32>>,
        /// Module configuration (fidelity, seed, thresholds, …).
        config: AmmConfig,
    },
    /// Rows split across modular banks with digital score summation.
    Partitioned {
        /// Stored template bank.
        patterns: Vec<Vec<u32>>,
        /// Number of row segments.
        segments: usize,
        /// Module configuration.
        config: AmmConfig,
    },
    /// Two-level clustered matching.
    Hierarchical {
        /// Stored template bank.
        patterns: Vec<Vec<u32>>,
        /// Number of clusters.
        clusters: usize,
        /// Module configuration.
        config: AmmConfig,
    },
    /// A tiled capacity pool with ranked top-k recall.
    Tiled {
        /// Stored template bank.
        patterns: Vec<Vec<u32>>,
        /// Templates per tile.
        tile_capacity: usize,
        /// Ranking depth.
        top_k: usize,
        /// Module configuration.
        config: AmmConfig,
    },
}

impl DeploymentSpec {
    /// The organization this spec builds.
    #[must_use]
    pub fn kind(&self) -> DeploymentKind {
        match self {
            DeploymentSpec::Flat { .. } => DeploymentKind::Flat,
            DeploymentSpec::Partitioned { .. } => DeploymentKind::Partitioned,
            DeploymentSpec::Hierarchical { .. } => DeploymentKind::Hierarchical,
            DeploymentSpec::Tiled { .. } => DeploymentKind::Tiled,
        }
    }

    /// Builds the deployment, reporting build/capacity telemetry into
    /// `recorder`.
    ///
    /// # Errors
    ///
    /// Propagates the core build errors (empty/ragged banks, bad segment
    /// or cluster counts, device failures).
    pub fn build(&self, recorder: &MemoryRecorder) -> Result<Deployment, CoreError> {
        let req = RecallRequest::recorded(recorder);
        Ok(match self {
            DeploymentSpec::Flat { patterns, config } => Deployment::Flat(
                AssociativeMemoryModule::build_request(patterns, config, &req)?,
            ),
            DeploymentSpec::Partitioned {
                patterns,
                segments,
                config,
            } => Deployment::Partitioned(PartitionedAmm::build(patterns, *segments, config)?),
            DeploymentSpec::Hierarchical {
                patterns,
                clusters,
                config,
            } => Deployment::Hierarchical(HierarchicalAmm::build(patterns, *clusters, config)?),
            DeploymentSpec::Tiled {
                patterns,
                tile_capacity,
                top_k,
                config,
            } => Deployment::Tiled(
                TiledAmm::build_request(patterns, *tile_capacity, config, &req)?
                    .with_top_k(*top_k)?,
            ),
        })
    }
}

/// Per-tenant serving options.
#[derive(Debug, Clone, Copy)]
pub struct TenantOptions {
    /// Sustained admitted query rate (tokens per second) and burst
    /// capacity; `None` admits everything (engine backpressure still
    /// applies).
    pub quota: Option<(f64, f64)>,
    /// The tenant engine's sizing.
    pub engine: EngineConfig,
}

impl Default for TenantOptions {
    fn default() -> Self {
        Self {
            quota: None,
            engine: EngineConfig::builder()
                .workers(2)
                .queue_capacity(16)
                .build(),
        }
    }
}

/// One registered tenant: deployment behind its own engine, recorder and
/// quota bucket.
pub struct Tenant {
    name: String,
    kind: DeploymentKind,
    vector_len: usize,
    engine: RecallEngine,
    recorder: Arc<MemoryRecorder>,
    bucket: Option<Mutex<TokenBucket>>,
}

impl std::fmt::Debug for Tenant {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tenant")
            .field("name", &self.name)
            .field("kind", &self.kind)
            .field("vector_len", &self.vector_len)
            .field("quota", &self.bucket.is_some())
            .finish_non_exhaustive()
    }
}

impl Tenant {
    /// The registry name.
    #[must_use]
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The deployment organization being served.
    #[must_use]
    pub fn kind(&self) -> DeploymentKind {
        self.kind
    }

    /// Input vector length the deployment expects.
    #[must_use]
    pub fn vector_len(&self) -> usize {
        self.vector_len
    }

    /// The tenant's engine.
    #[must_use]
    pub fn engine(&self) -> &RecallEngine {
        &self.engine
    }

    /// The tenant's telemetry sink.
    #[must_use]
    pub fn recorder(&self) -> &Arc<MemoryRecorder> {
        &self.recorder
    }

    /// Spends one quota token at `now_ns`; `None` quota always admits.
    pub fn try_spend_quota(&self, now_ns: u64) -> bool {
        match &self.bucket {
            Some(bucket) => bucket.lock().expect("bucket lock").try_admit(now_ns),
            None => true,
        }
    }

    /// Seconds until the tenant's bucket would admit again (0 when
    /// unlimited or a token is available).
    #[must_use]
    pub fn quota_retry_after_secs(&self, now_ns: u64) -> u64 {
        match &self.bucket {
            Some(bucket) => {
                let ns = bucket
                    .lock()
                    .expect("bucket lock")
                    .nanos_until_available(now_ns);
                ns.div_ceil(1_000_000_000)
            }
            None => 0,
        }
    }
}

/// Errors registering a tenant.
#[derive(Debug)]
pub enum RegistryError {
    /// A tenant with this name already exists.
    Duplicate(String),
    /// The deployment failed to build.
    Build(CoreError),
}

impl std::fmt::Display for RegistryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RegistryError::Duplicate(name) => write!(f, "tenant {name:?} already registered"),
            RegistryError::Build(e) => write!(f, "deployment build failed: {e}"),
        }
    }
}

impl std::error::Error for RegistryError {}

/// Tenant name → serving stack, with runtime register/evict.
#[derive(Debug, Default)]
pub struct ModuleRegistry {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
}

impl ModuleRegistry {
    /// An empty registry.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds `spec` and starts serving it as `name`.
    ///
    /// # Errors
    ///
    /// Returns [`RegistryError::Duplicate`] when the name is taken and
    /// [`RegistryError::Build`] when the deployment fails to build.
    pub fn register(
        &self,
        name: &str,
        spec: &DeploymentSpec,
        options: &TenantOptions,
    ) -> Result<Arc<Tenant>, RegistryError> {
        {
            let tenants = self.tenants.read().expect("registry lock");
            if tenants.contains_key(name) {
                return Err(RegistryError::Duplicate(name.to_owned()));
            }
        }
        // Build outside the lock: deployments take real work to program.
        let recorder = Arc::new(MemoryRecorder::default());
        let deployment = spec.build(&recorder).map_err(RegistryError::Build)?;
        let vector_len = deployment.vector_len();
        let engine = RecallEngine::with_recorder(
            deployment,
            &options.engine,
            Arc::clone(&recorder) as spinamm_engine::SharedRecorder,
        );
        let tenant = Arc::new(Tenant {
            name: name.to_owned(),
            kind: spec.kind(),
            vector_len,
            engine,
            recorder,
            bucket: options
                .quota
                .map(|(rate, burst)| Mutex::new(TokenBucket::new(rate, burst))),
        });
        let mut tenants = self.tenants.write().expect("registry lock");
        if tenants.contains_key(name) {
            return Err(RegistryError::Duplicate(name.to_owned()));
        }
        tenants.insert(name.to_owned(), Arc::clone(&tenant));
        Ok(tenant)
    }

    /// Stops serving `name`. Returns whether a tenant was evicted; its
    /// engine shuts down once the last in-flight request drops its handle.
    pub fn evict(&self, name: &str) -> bool {
        self.tenants
            .write()
            .expect("registry lock")
            .remove(name)
            .is_some()
    }

    /// The tenant serving `name`.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("registry lock")
            .get(name)
            .cloned()
    }

    /// Registered tenant names, sorted.
    #[must_use]
    pub fn names(&self) -> Vec<String> {
        self.tenants
            .read()
            .expect("registry lock")
            .keys()
            .cloned()
            .collect()
    }

    /// Registered tenants, sorted by name.
    #[must_use]
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.tenants
            .read()
            .expect("registry lock")
            .values()
            .cloned()
            .collect()
    }

    /// Number of registered tenants.
    #[must_use]
    pub fn len(&self) -> usize {
        self.tenants.read().expect("registry lock").len()
    }

    /// Whether no tenant is registered.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}
