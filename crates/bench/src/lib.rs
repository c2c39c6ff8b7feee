//! Experiment harness: one function per table/figure of the paper.
//!
//! Everything the `experiments` binary prints and the integration tests
//! check flows through this crate, so the regeneration logic exists exactly
//! once. Each experiment takes a [`Scale`] so tests can run miniature
//! versions of the same code paths the full paper-scale reproduction uses.

pub mod experiments;
pub mod report;
pub mod scale;

pub use experiments::*;
pub use report::Table;
pub use scale::Scale;
