//! # snailqc
//!
//! A Rust reproduction of *"Co-Designed Architectures for Modular
//! Superconducting Quantum Computers"* (McKinney et al., HPCA 2023,
//! arXiv:2205.04387): SNAIL-enabled qubit topologies (modular 4-ary Trees,
//! Round-Robin Trees, Corrals), the `ⁿ√iSWAP` basis-gate family, and a full
//! transpilation / evaluation toolkit for comparing co-designed machines
//! against IBM-style (heavy-hex + CNOT) and Google-style (square lattice +
//! SYC) baselines.
//!
//! This crate is a façade that re-exports the workspace members:
//!
//! | Module | Crate | Contents |
//! |---|---|---|
//! | [`math`] | `snailqc-math` | complex matrices, gate unitaries, Weyl-chamber/KAK analysis, Haar sampling |
//! | [`circuit`] | `snailqc-circuit` | circuit IR, cost metrics, statevector simulator |
//! | [`topology`] | `snailqc-topology` | coupling graphs and every topology of Tables 1–2 |
//! | [`workloads`] | `snailqc-workloads` | QV, QFT, QAOA, TIM, CDKM adder, GHZ generators |
//! | [`transpiler`] | `snailqc-transpiler` | the staged `Pipeline`: dense layout, stochastic SWAP routing, basis translation, `PassTrace` |
//! | [`decompose`] | `snailqc-decompose` | basis-gate counting, NuOp templates, decoherence model |
//! | [`devices`] | `snailqc-devices` | the declarative JSON device-spec format (topologies as data files) |
//! | [`qasm`] | `snailqc-qasm` | version-aware OpenQASM 2.0 / 3.0 parsers and emitter for external circuit interchange |
//! | [`sim`] | `snailqc-sim` | verification engines: bit-packed stabilizer tableau, Pauli propagation, routed-circuit equivalence checking |
//! | [`core`] | `snailqc-core` | `Device`, machines, sweeps, the sweep store and headline ratios |
//! | [`obs`] | `snailqc-obs` | tracing spans, metrics registry, Chrome-trace/JSON exporters |
//! | [`request`] | (this crate) | the one resolver turning transpile arguments (CLI flags or daemon params) into a `Device` and a `Pipeline`, and the one job runner (parse, transpile, digest, emit, cache) behind the CLI, batch mode and the daemon |
//! | [`serve`] | (this crate) | the `snailqc serve` daemon: line-delimited JSON-RPC over TCP/Unix sockets with warm device/routing caches |
//!
//! ## Quick start
//!
//! A co-designed machine is one artifact — a topology, its calibrated noise
//! and its native basis gate — captured by [`Device`](core::device::Device).
//! Transpilation is a staged [`Pipeline`](transpiler::Pipeline) (layout →
//! routing → translation → analysis); the device, not the pipeline, picks
//! the basis, so a run translates into the device's native gate:
//!
//! ```
//! use snailqc::prelude::*;
//!
//! // A 12-qubit QFT on the SNAIL Corral with the native sqrt-iSWAP basis…
//! let circuit = Workload::Qft.generate(12, 7);
//! let corral = Device::from_catalog("corral12-16")
//!     .unwrap()
//!     .with_basis(BasisGate::SqrtISwap);
//! let pipeline = Pipeline::builder().seed(11).build();
//! let snail = corral.try_transpile(&circuit, &pipeline).unwrap().report;
//!
//! // …versus the IBM-style baseline: heavy-hex with CNOT, Fig. 13's first
//! // machine, named by its catalog topology.
//! let ibm_machine = Machine::new("heavy-hex-20", BasisGate::Cnot).unwrap();
//! let ibm = Device::from_machine(ibm_machine)
//!     .try_transpile(&circuit, &pipeline)
//!     .unwrap()
//!     .report;
//!
//! assert!(snail.swap_count <= ibm.swap_count);
//! ```
//!
//! Sweeps take a slice of devices ([`run_sweep`](core::sweep::run_sweep)),
//! and every run carries a [`PassTrace`](transpiler::PassTrace) with
//! per-stage timings and gate/SWAP deltas. For deeper introspection, the
//! workspace-wide observability layer always counts router work and cache
//! hits/misses as metrics ([`obs::snapshot`]), and an entered [`obs::Trace`]
//! records nested spans around every pipeline stage and routing trial,
//! exportable as Chrome trace-event JSON ([`obs::chrome_trace`]) — see the
//! CLI's `--trace-out` / `--metrics-json` flags and the README's
//! Observability section.

#![warn(missing_docs)]

pub mod request;
pub mod serve;

pub use snailqc_circuit as circuit;
pub use snailqc_core as core;
pub use snailqc_decompose as decompose;
pub use snailqc_devices as devices;
pub use snailqc_math as math;
pub use snailqc_obs as obs;
pub use snailqc_qasm as qasm;
pub use snailqc_sim as sim;
pub use snailqc_topology as topology;
pub use snailqc_transpiler as transpiler;
pub use snailqc_workloads as workloads;

/// Compiles and runs the Rust snippets of `README.md` as doctests.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use snailqc_circuit::{Circuit, Gate};
    pub use snailqc_core::device::Device;
    pub use snailqc_core::fidelity::{
        estimate_fidelity, estimate_fidelity_edges, ErrorModel, FidelityEstimate,
    };
    pub use snailqc_core::machine::Machine;
    pub use snailqc_core::noise::ErrorModelSpec;
    pub use snailqc_core::store::SweepStore;
    pub use snailqc_core::sweep::{run_sweep, run_sweep_with_store, SweepConfig, SweepPoint};
    pub use snailqc_decompose::{BasisGate, NuOpDecomposer, StudyConfig};
    pub use snailqc_math::{weyl_coordinates, Matrix2, Matrix4, WeylCoordinates};
    pub use snailqc_qasm::{
        detect_version as detect_qasm_version, emit as emit_qasm, emit_v3 as emit_qasm_v3,
        emit_versioned as emit_qasm_versioned, parse as parse_qasm, parse3 as parse_qasm3,
        parse_any as parse_qasm_any, QasmProgram, QasmVersion,
    };
    pub use snailqc_sim::{verify_equivalent, Verdict};
    pub use snailqc_topology::CouplingGraph;
    pub use snailqc_transpiler::{LayoutStrategy, PassTrace, Pipeline, RouterConfig};
    pub use snailqc_workloads::Workload;
}
