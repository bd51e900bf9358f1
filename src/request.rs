//! How a transpile request becomes a [`Device`] and a [`Pipeline`]: the one
//! resolver behind both `snailqc transpile` and `snailqc serve`.
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

use snailqc_circuit::Circuit;
use snailqc_core::device::Device;
use snailqc_core::noise::ErrorModelSpec;
use snailqc_core::registry::{DeviceRegistry, LocatedDevice};
use snailqc_decompose::BasisGate;
use snailqc_transpiler::{LayoutStrategy, Pipeline};

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
