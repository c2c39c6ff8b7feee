//! The [`Layer`] table: every span name in the workspace, in one place.

/// One instrumented stage, named once for both sinks: the
/// [`Recorder`](crate::Recorder) series its spans time, and the trace span
/// it opens (for a top-level operation, the request kind it begins). A
/// stage may report to one sink only. The set is closed, so renaming a
/// series or a span is a one-line change here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    series: Option<&'static str>,
    trace: Option<&'static str>,
}

impl Layer {
    /// Crossbar programming while a module builds.
    pub const PROGRAM: Self = Self::new(Some("build.program"), None);
    /// Lowering a module's state into kernel tables.
    pub const COMPILE: Self = Self::new(Some("plan.compile"), None);
    /// One flat, partitioned or hierarchical recall, end to end.
    pub const RECALL: Self = Self::new(Some("recall.total"), Some("recall"));
    /// One module batch, end to end.
    pub const RECALL_BATCH: Self = Self::new(Some("recall.batch"), Some("recall.batch"));
    /// Input validation and the DTCS drive tables.
    pub const DRIVE: Self = Self::new(Some("recall.drive"), Some("drive"));
    /// Crossbar settle: correlation, or the parasitic restamp and solve.
    pub const SETTLE: Self = Self::new(Some("recall.settle"), Some("settle"));
    /// The parasitic netlist's value restamp (its series is in seconds).
    pub const RESTAMP: Self = Self::new(Some("crossbar.restamp_ns"), Some("restamp"));
    /// The parasitic netlist's linear solve.
    pub const SOLVE: Self = Self::new(None, Some("solve"));
    /// Spin-neuron SAR conversion of every column.
    pub const CONVERT: Self = Self::new(Some("recall.convert"), Some("convert"));
    /// Winner tracking and result assembly.
    pub const SELECT: Self = Self::new(Some("recall.select"), Some("select"));
    /// A batch's whole sequential select loop.
    pub const BATCH_SELECT: Self = Self::new(None, Some("select"));
    /// One segment's evaluate in a partitioned recall.
    pub const SHARD_SETTLE: Self = Self::new(None, Some("shard.settle"));
    /// One segment's select in a partitioned recall.
    pub const SHARD_SELECT: Self = Self::new(None, Some("shard.select"));
    /// An engine job's wait in the submission queue.
    pub const QUEUE_WAIT: Self = Self::new(None, Some("queue_wait"));
    /// An engine worker's RNG-free evaluate phase.
    pub const ENGINE_EVALUATE: Self = Self::new(Some("engine.settle"), Some("evaluate"));
    /// The engine's RNG-consuming select phase, run in submission order on
    /// the master deployment by a worker holding its lock.
    pub const ENGINE_SELECT: Self = Self::new(Some("engine.select"), Some("select"));
    /// The chosen cluster's member evaluate inside a hierarchical select.
    pub const MEMBER_EVALUATE: Self = Self::new(None, Some("evaluate.member"));
    /// The member select inside a hierarchical select.
    pub const MEMBER_SELECT: Self = Self::new(None, Some("select.member"));

    const fn new(series: Option<&'static str>, trace: Option<&'static str>) -> Self {
        Self { series, trace }
    }

    /// The recorder series this stage's spans time, if any.
    #[must_use]
    pub const fn series(self) -> Option<&'static str> {
        self.series
    }

    /// The trace span (or request kind) this stage opens, if any.
    #[must_use]
    pub const fn trace_name(self) -> Option<&'static str> {
        self.trace
    }
}
