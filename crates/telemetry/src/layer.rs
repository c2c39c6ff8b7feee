//! The [`Layer`] table: every span name in the workspace, in one place.

/// One instrumented stage, named once: the [`Recorder`](crate::Recorder)
/// series its spans time. The set is closed, so renaming a series is a
/// one-line change here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Layer {
    series: &'static str,
}

impl Layer {
    /// Crossbar programming while a module builds.
    pub const PROGRAM: Self = Self::new("build.program");
    /// Lowering a module's state into kernel tables.
    pub const COMPILE: Self = Self::new("plan.compile");
    /// One flat, partitioned, hierarchical or tiled recall, end to end.
    pub const RECALL: Self = Self::new("recall.total");
    /// One module batch, end to end.
    pub const RECALL_BATCH: Self = Self::new("recall.batch");
    /// Input validation and the DTCS drive tables.
    pub const DRIVE: Self = Self::new("recall.drive");
    /// Crossbar settle: correlation, or the parasitic restamp and solve.
    pub const SETTLE: Self = Self::new("recall.settle");
    /// The parasitic netlist's value restamp (its series is in seconds).
    pub const RESTAMP: Self = Self::new("crossbar.restamp_ns");
    /// Spin-neuron SAR conversion of every column.
    pub const CONVERT: Self = Self::new("recall.convert");
    /// Winner tracking and result assembly.
    pub const SELECT: Self = Self::new("recall.select");
    /// An engine worker's evaluate phase of one query.
    pub const ENGINE_EVALUATE: Self = Self::new("engine.settle");
    /// An engine worker's select phase of one query, on the same worker's
    /// clone (a hierarchical one includes the member evaluation).
    pub const ENGINE_SELECT: Self = Self::new("engine.select");

    const fn new(series: &'static str) -> Self {
        Self { series }
    }

    /// The recorder series this stage's spans time.
    #[must_use]
    pub const fn series(self) -> &'static str {
        self.series
    }
}
