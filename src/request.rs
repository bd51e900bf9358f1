//! How a transpile request becomes a [`Device`] and a [`Pipeline`], and how
//! the resulting job runs: the one resolver and the one runner behind
//! `snailqc transpile` (one file or a batch) and `snailqc serve`.
//!
//! Each front end maps its own syntax (command-line flags, or JSON request
//! params) onto [`TranspileArgs`], the arguments as the user spelled them.
//! Everything after that is decided here, once:
//!
//! * `topology` is an alias of `device`; giving both is an error.
//! * The device is located through the [`DeviceRegistry`] (a spec-file
//!   path, then a catalog name, then a spec on the search path) and built
//!   as: the located device, then the requested error model, then the
//!   basis. `basis` is a tri-state: absent keeps the spec's native basis,
//!   `none` strips it, a gate name sets it.
//! * The pipeline starts from [`Pipeline::builder`]'s defaults and overrides
//!   only what the request names. `error_weight` defaults to 1 when the
//!   device carries an error model (however it arrived), else 0, and must
//!   be finite and non-negative.
//!
//! Resolution comes in two steps so the daemon can pool devices:
//! [`TranspileArgs::recipe`] locates the device without building it, and
//! [`DeviceRecipe::key`] names the device the recipe would build;
//! [`TranspileArgs::pipeline`] then builds the pipeline for the built
//! device. [`TranspileArgs::resolve`] does both for one-shot callers.
//!
//! A resolved [`Job`] goes through [`run`], which parses, transpiles,
//! digests and emits for every front end. Its cache ladder probes the shared
//! [`SweepStore`] first (so the store's hit count covers every replayable
//! request), then the memory cache, then computes, filling both with a
//! [`CachedCell`]: the report plus both circuit digests, so a replay answers
//! exactly what the cold run did. A job that writes its circuit reads no
//! cache, since neither keeps the circuit, but still fills both. The written
//! circuit is the translated one when the device has a basis, else the routed
//! one; it is emitted once, and a QASM 2 text is also what gets digested.
//! Flushing the store is left to the front end.

use snailqc_circuit::Circuit;
use snailqc_core::device::Device;
use snailqc_core::noise::ErrorModelSpec;
use snailqc_core::registry::{DeviceRegistry, LocatedDevice};
use snailqc_core::store::{source_cell_key, CachedCell, SweepStore};
use snailqc_decompose::BasisGate;
use snailqc_qasm::QasmVersion;
use snailqc_transpiler::{LayoutStrategy, PassTrace, Pipeline};
use std::collections::HashMap;
use std::sync::Mutex;

/// Memory-cache entries kept before the cache is wholesale cleared; bounds
/// daemon memory on unbounded distinct-request streams.
const MEMORY_CACHE_CAP: usize = 4096;

/// How a request names its machine.
#[derive(Debug)]
pub enum DeviceArg<'a> {
    /// A spec-file path, a built-in catalog name, or the name of a spec on
    /// the registry's search path.
    Name(&'a str),
    /// Device-spec JSON text carried by the request itself.
    Spec(String),
}

/// A transpile request's arguments as the user spelled them; `None` means
/// the argument was not given.
#[derive(Debug, Default)]
pub struct TranspileArgs<'a> {
    /// The target machine.
    pub device: Option<DeviceArg<'a>>,
    /// Alias of `device` (by name).
    pub topology: Option<&'a str>,
    /// A basis-gate name, or `none`.
    pub basis: Option<&'a str>,
    /// An error model to stamp onto the device. Each front end keeps its own
    /// syntax for it, so it arrives parsed.
    pub error_model: Option<ErrorModelSpec>,
    /// Fidelity weight of the SWAP scoring.
    pub error_weight: Option<f64>,
    /// `dense` or `trivial`.
    pub layout: Option<&'a str>,
    /// Stochastic routing trials.
    pub trials: Option<usize>,
    /// Router RNG seed.
    pub seed: Option<u64>,
}

/// A located device plus the basis and error model a request puts on it:
/// enough to build the device, or to name it without building it.
#[derive(Debug)]
pub struct DeviceRecipe {
    /// Where the device's definition lives.
    pub located: LocatedDevice,
    /// `None` keeps the located device's basis; `Some(None)` strips it.
    pub basis: Option<Option<BasisGate>>,
    /// Error model stamped on after the located device's own.
    pub error_model: Option<ErrorModelSpec>,
}

impl DeviceRecipe {
    /// Names the device this recipe builds, without building it. Forgiving
    /// catalog spellings share a key; a spec is keyed by the digest of its
    /// text, so an edited spec file gets a new key.
    pub fn key(&self) -> String {
        let device = match &self.located {
            LocatedDevice::Catalog(name) => name.to_string(),
            LocatedDevice::Spec { text, .. } => {
                format!("spec:{:016x}", snailqc_util::fnv1a_64(text.as_bytes()))
            }
        };
        format!("{device}|{:?}|{:?}", self.basis, self.error_model)
    }

    /// Builds the device: the located device, then the error model, then
    /// the basis.
    pub fn build(&self) -> Result<Device, String> {
        let mut device = self.located.build()?;
        if let Some(spec) = &self.error_model {
            device = device.with_error_model(spec.clone())?;
        }
        match self.basis {
            None => {}
            Some(Some(gate)) => device = device.with_basis(gate),
            Some(None) => device = device.without_basis(),
        }
        Ok(device)
    }
}

impl TranspileArgs<'_> {
    /// Builds the device and the pipeline.
    pub fn resolve(&self, registry: &DeviceRegistry) -> Result<(Device, Pipeline), String> {
        let device = self.recipe(registry)?.build()?;
        let pipeline = self.pipeline(&device)?;
        Ok((device, pipeline))
    }

    /// Locates the device and checks the basis, building nothing.
    pub fn recipe(&self, registry: &DeviceRegistry) -> Result<DeviceRecipe, String> {
        let located = match (self.device.as_ref(), self.topology) {
            (Some(_), Some(_)) => {
                return Err("`device` and its alias `topology` are mutually exclusive".into())
            }
            (Some(&DeviceArg::Name(name)), None) | (None, Some(name)) => registry.locate(name)?,
            (Some(DeviceArg::Spec(text)), None) => LocatedDevice::Spec {
                path: None,
                text: text.clone(),
            },
            (None, None) => return Err("transpile needs a device (see `snailqc devices`)".into()),
        };
        Ok(DeviceRecipe {
            located,
            basis: self.basis.map(BasisGate::by_name).transpose()?,
            error_model: self.error_model.clone(),
        })
    }

    /// Builds the pipeline for `device`, the device this request built.
    pub fn pipeline(&self, device: &Device) -> Result<Pipeline, String> {
        let mut builder = Pipeline::builder();
        match self.layout {
            None => {}
            Some("dense") => builder = builder.layout(LayoutStrategy::Dense),
            Some("trivial") => builder = builder.layout(LayoutStrategy::Trivial),
            Some(other) => return Err(format!("unknown layout `{other}` (dense | trivial)")),
        }
        if let Some(trials) = self.trials {
            builder = builder.trials(trials);
        }
        if let Some(seed) = self.seed {
            builder = builder.seed(seed);
        }
        let error_weight = self
            .error_weight
            .unwrap_or(if device.error_model().is_some() {
                1.0
            } else {
                0.0
            });
        if !(error_weight.is_finite() && error_weight >= 0.0) {
            return Err(format!(
                "error weight must be a finite, non-negative number, got {error_weight}"
            ));
        }
        Ok(builder.error_weight(error_weight).build())
    }
}

/// Parses OpenQASM source (either dialect) and checks that it fits on
/// `device`.
pub fn parse_source(source: &str, device: &Device) -> Result<Circuit, String> {
    let circuit = snailqc_qasm::parse_any(source)
        .map_err(|e| e.to_string())?
        .circuit;
    if !device.fits(&circuit) {
        return Err(format!(
            "circuit has {} qubits but `{}` only has {}",
            circuit.num_qubits(),
            device.graph().name(),
            device.num_qubits()
        ));
    }
    Ok(circuit)
}

/// The canonical digest of a circuit's instruction stream: FNV-1a over its
/// OpenQASM 2.0 emission (which is deterministic and total for every routed
/// or translated circuit). Two circuits share a digest exactly when they
/// are gate-for-gate identical, so comparing the daemon's digest against a
/// one-shot `snailqc transpile` digest proves bitwise reproducibility.
pub fn circuit_digest(circuit: &Circuit) -> String {
    text_digest(&snailqc_qasm::emit(circuit))
}

fn text_digest(qasm2: &str) -> String {
    format!("{:016x}", snailqc_util::fnv1a_64(qasm2.as_bytes()))
}

/// One resolved transpile job.
#[derive(Debug)]
pub struct Job {
    /// OpenQASM source text (either dialect).
    pub source: String,
    /// The target device.
    pub device: Device,
    /// The pipeline, router seed included.
    pub pipeline: Pipeline,
    /// Dialect to write the circuit in; `None` writes nothing.
    pub emit: Option<QasmVersion>,
    /// Whether a computed outcome carries digests even when it fills no
    /// cache (a cached cell always carries them).
    pub digest: bool,
}

/// The caches a job is answered from and fills; both absent by default.
#[derive(Debug, Clone, Copy, Default)]
pub struct Caches<'a> {
    /// The in-process cache of `snailqc serve`.
    pub memory: Option<&'a Mutex<HashMap<String, CachedCell>>>,
    /// The shared JSON-lines store (`--store`).
    pub store: Option<&'a Mutex<SweepStore>>,
}

/// Where an outcome came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CacheSource {
    /// Computed by this job.
    None,
    /// Replayed from the memory cache.
    Memory,
    /// Replayed from the store.
    Store,
}

impl CacheSource {
    /// The wire name: `none`, `memory` or `store`.
    pub fn label(self) -> &'static str {
        match self {
            CacheSource::None => "none",
            CacheSource::Memory => "memory",
            CacheSource::Store => "store",
        }
    }
}

/// What a job produced.
#[derive(Debug)]
pub struct Outcome {
    /// The report and the digests; a computed job that neither asked for
    /// digests nor filled a cache has none.
    pub cell: CachedCell,
    /// The written circuit's text, when the job asked for it.
    pub written: Option<String>,
    /// The cache key, when the job was given a cache.
    pub key: Option<String>,
    /// Whether and from where the outcome was replayed.
    pub cached: CacheSource,
    /// The pass trace of a computed job.
    pub trace: Option<PassTrace>,
}

/// Runs one job through the cache ladder: the store, then the memory cache,
/// then the pipeline, filling both caches on a computed run.
pub fn run(job: &Job, caches: Caches<'_>) -> Result<Outcome, String> {
    let (seed, device, pipeline) = (job.pipeline.router().seed, &job.device, &job.pipeline);
    let key = (caches.memory.is_some() || caches.store.is_some())
        .then(|| source_cell_key(&job.source, seed, device, pipeline));
    if let (Some(probe), None) = (&key, job.emit) {
        let stored = caches
            .store
            .and_then(|store| store.lock().expect("store lock").get(probe));
        let memory = caches
            .memory
            .and_then(|memory| memory.lock().expect("memory lock").get(probe).cloned());
        let replay = memory
            .map(|cell| (cell, CacheSource::Memory))
            .or(stored.map(|cell| (cell, CacheSource::Store)));
        if let Some((cell, cached)) = replay {
            return Ok(Outcome {
                cell,
                written: None,
                key,
                cached,
                trace: None,
            });
        }
    }

    let circuit = parse_source(&job.source, device)?;
    let result = device
        .try_transpile(&circuit, pipeline)
        .map_err(|e| e.to_string())?;
    let written_circuit = result.translated.as_ref().unwrap_or(&result.routed.circuit);
    let written = job
        .emit
        .map(|version| snailqc_qasm::emit_versioned(written_circuit, version));
    let mut cell = CachedCell::from(result.report);
    if job.digest || key.is_some() {
        // QASM 2 text is what `circuit_digest` hashes: reuse it, not emit again.
        let digest = |circuit: &Circuit| match (&written, job.emit) {
            (Some(text), Some(QasmVersion::V2)) if std::ptr::eq(circuit, written_circuit) => {
                text_digest(text)
            }
            _ => circuit_digest(circuit),
        };
        cell.routed_digest = Some(digest(&result.routed.circuit));
        cell.basis_digest = result.translated.as_ref().map(digest);
    }
    if let (Some(key), Some(memory)) = (&key, caches.memory) {
        let mut memory = memory.lock().expect("memory lock");
        if memory.len() >= MEMORY_CACHE_CAP {
            memory.clear();
        }
        memory.insert(key.clone(), cell.clone());
    }
    if let (Some(key), Some(store)) = (&key, caches.store) {
        let mut store = store.lock().expect("store lock");
        store.insert(key.clone(), cell.clone());
    }
    Ok(Outcome {
        cell,
        written,
        key,
        cached: CacheSource::None,
        trace: Some(result.trace),
    })
}
