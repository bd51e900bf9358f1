//! # snailqc-core
//!
//! The co-design experiment harness — the paper's primary contribution
//! expressed as a library. It ties the other crates together around two
//! first-class types:
//!
//! * [`device::Device`] — the unit of co-design as one artifact: a coupling
//!   graph with per-edge noise, an optional native basis gate, and a label.
//!   Built from the topology catalog ([`Device::from_catalog`]), from a
//!   [`machine::Machine`] pairing ([`Device::from_machine`]), or from a bare
//!   graph, then refined with [`Device::with_error_model`] /
//!   [`Device::with_basis`]. [`Device::try_transpile`] runs a staged
//!   [`Pipeline`](snailqc_transpiler::Pipeline) and translates into the
//!   device's native gate, the one place a basis is set.
//! * [`machine::Machine`] — a catalog topology name paired with a basis
//!   gate. Its two line-ups are the machines compared in Figs. 13 and 14
//!   (Heavy-Hex/CNOT, Square-Lattice/SYC, and the SNAIL machines with
//!   √iSWAP on Tree, Tree-RR, Corral and Hypercube).
//!
//! On top of these sit the experiment engines:
//!
//! * [`sweep`] — (workload × size × device) sweeps collecting total and
//!   critical-path SWAP and 2Q gate counts, the data behind Figs. 4, 11–14
//!   ([`sweep::run_sweep`] over `&[Device]`).
//! * [`store`] — the persistent sweep-result store: JSON-lines cache keyed
//!   by (workload, size, device label, basis, seed, error weight, noise
//!   digest) so repeated bench runs replay cells instead of re-routing.
//! * [`headline`] — the summary ratios quoted in the abstract and §6
//!   (hypercube+√iSWAP vs heavy-hex+CNOT, the Tree progression, the QAOA
//!   critical-path comparison).
//! * [`noise`] — named error-model specifications (presets and JSON) that
//!   stamp per-edge error rates onto a device for noise-aware routing and
//!   edge-aware fidelity estimation ([`fidelity::estimate_fidelity_edges`]).
//! * [`registry`] — `--device` name resolution across the built-in catalog
//!   and on-disk device-spec files ([`Device::from_spec_file`]), including
//!   the `SNAILQC_DEVICE_PATH` search path.
//!
//! ```
//! use snailqc_core::device::Device;
//! use snailqc_core::machine::Machine;
//! use snailqc_core::sweep::{run_sweep, SweepConfig};
//! use snailqc_decompose::BasisGate;
//! use snailqc_workloads::Workload;
//!
//! let devices = [
//!     Device::from_machine(Machine::new("heavy-hex-20", BasisGate::Cnot).unwrap()),
//!     Device::from_machine(Machine::new("tree-20", BasisGate::SqrtISwap).unwrap()),
//! ];
//! let config = SweepConfig {
//!     workloads: vec![Workload::Ghz],
//!     sizes: vec![6],
//!     routing_trials: 1,
//!     error_weight: 0.0,
//!     seed: 1,
//! };
//! let points = run_sweep(&devices, &config);
//! assert_eq!(points.len(), 2);
//! ```
//!
//! [`Device::from_catalog`]: device::Device::from_catalog
//! [`Device::from_machine`]: device::Device::from_machine
//! [`Device::with_error_model`]: device::Device::with_error_model
//! [`Device::with_basis`]: device::Device::with_basis
//! [`Device::try_transpile`]: device::Device::try_transpile

#![warn(missing_docs)]

pub mod device;
pub mod fidelity;
pub mod headline;
pub mod machine;
pub mod noise;
pub mod registry;
pub mod store;
pub mod sweep;

pub use device::Device;
pub use fidelity::{estimate_fidelity, estimate_fidelity_edges, ErrorModel, FidelityEstimate};
pub use headline::{headline_ratios, quantum_volume_headline, HeadlineConfig, HeadlineRatios};
pub use machine::Machine;
pub use noise::{EdgeNoise, ErrorModelSpec};
pub use registry::{DeviceRegistry, DeviceSource, LocatedDevice, RegistryEntry, DEVICE_PATH_ENV};
pub use store::SweepStore;
pub use sweep::{run_sweep, run_sweep_with_store, SweepConfig, SweepPoint};
