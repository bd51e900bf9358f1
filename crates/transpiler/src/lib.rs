//! # snailqc-transpiler
//!
//! The transpilation passes of the paper's evaluation flow (Fig. 10):
//!
//! * [`layout`] — initial placement (`DenseLayout` analogue + trivial layout).
//! * [`routing`] — SABRE-style stochastic SWAP routing with best-of-N trials
//!   (the `StochasticSwap` analogue), returning the routed physical circuit
//!   and the induced SWAP counts.
//! * [`translate`] — structural basis translation into CNOT, SYC or √iSWAP
//!   using the Weyl-chamber counting rules of `snailqc-decompose`.
//! * [`pipeline`] — the staged end-to-end flow: a [`Pipeline`] built via
//!   [`Pipeline::builder`] (layout → routing → translation → analysis) whose
//!   runs produce the [`pipeline::TranspileReport`] carrying the four series
//!   every figure of the paper plots — total SWAPs, critical-path SWAPs,
//!   total 2Q gates and critical-path 2Q gates — plus a [`PassTrace`] with
//!   per-stage timings and gate/SWAP deltas.
//!
//! Every stage is instrumented with `snailqc-obs` spans and counters; the
//! instrumentation records only (routed output is bitwise-identical with
//! recording on or off) and costs one thread-local read per site when the
//! thread has no trace entered.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod layout;
pub mod pipeline;
pub mod routing;
pub mod translate;

pub use layout::{Layout, LayoutError, LayoutStrategy};
pub use pipeline::{
    PassTrace, Pipeline, PipelineBuilder, StageTrace, TranspileError, TranspileReport,
    TranspileResult,
};
pub use routing::{route_with_cache, RoutedCircuit, RouterConfig, RoutingCache};
pub use translate::{count_basis_gates, critical_path_basis_gates, translate_to_basis};
