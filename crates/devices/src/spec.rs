//! The versioned JSON device-spec format: parsing with span-carrying
//! diagnostics, semantic validation, graph construction, and the reverse
//! direction (exporting a built graph back to a spec).

use crate::error::SpecError;
use crate::generator::GeneratorSpec;
use serde::Value;
use serde_json::spanned::{self, Spanned, SpannedKey, SpannedValue};
use snailqc_decompose::BasisGate;
use snailqc_topology::{CouplingGraph, DEFAULT_EDGE_ERROR, MAX_QUBITS};
use snailqc_util::normalize_name;
use std::collections::HashSet;

/// The spec-format version this build reads (the `snailqc_device` field).
pub const SPEC_VERSION: u64 = 1;

/// The keys allowed at the top level of a device spec.
const TOP_KEYS: [&str; 7] = [
    "snailqc_device",
    "name",
    "display_name",
    "description",
    "basis",
    "topology",
    "error_model",
];

/// A parsed, validated device specification.
///
/// A spec is pure data: it describes a machine (topology, optional native
/// basis, optional error model) without touching any transpiler machinery.
/// `snailqc-core` turns one into a routable `Device` via
/// `Device::from_spec_str` / `Device::from_spec_file`.
#[derive(Debug, Clone, PartialEq)]
pub struct DeviceSpec {
    /// Canonical machine name (the registry key; matched forgivingly).
    pub name: String,
    /// Optional human-facing label; becomes the graph name when present.
    pub display_name: Option<String>,
    /// Free-form provenance / description text.
    pub description: Option<String>,
    /// Native two-qubit basis gate, when the machine has one.
    pub basis: Option<BasisGate>,
    /// Where the coupling graph comes from.
    pub topology: TopologySource,
    /// Optional error model riding the `ErrorModelSpec` machinery in
    /// `snailqc-core` — carried here as raw data because this crate sits
    /// below `snailqc-core` in the dependency graph.
    pub error_model: Option<ErrorModelRef>,
    /// Source position of the `error_model` value, so core can report
    /// semantic error-model problems with a spec-file position.
    pub error_model_at: Option<(usize, usize)>,
}

/// A spec's topology: explicit edges, or a parameterized generator.
#[derive(Debug, Clone, PartialEq)]
pub enum TopologySource {
    /// An explicit edge list over `0..qubits`.
    Edges {
        /// Number of qubits.
        qubits: usize,
        /// Undirected coupling edges.
        edges: Vec<(usize, usize)>,
    },
    /// A `builders::*` generator invocation, optionally boundary-truncated
    /// to `qubits` (how the heavy-hex 127/133/433 machines are carved out
    /// of their regular lattices).
    Generator {
        /// The generator and its validated parameters.
        generator: GeneratorSpec,
        /// Optional truncation target (`<=` the generated size).
        qubits: Option<usize>,
    },
}

/// An error model referenced by a spec: a named preset, or an inline JSON
/// object in `ErrorModelSpec::from_json` form (re-serialized compact).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ErrorModelRef {
    /// A preset name (`default`, `control`, `decoherence`, `calibrated`).
    Preset(String),
    /// Compact JSON text of an inline error-model object.
    Inline(String),
}

/// The canonical spec-file spelling of a basis gate (accepted back by
/// `BasisGate::by_name`).
pub fn basis_name(basis: BasisGate) -> &'static str {
    match basis {
        BasisGate::Cnot => "cnot",
        BasisGate::SqrtISwap => "sqrt-iswap",
        BasisGate::Syc => "syc",
    }
}

impl std::str::FromStr for DeviceSpec {
    type Err = SpecError;

    fn from_str(text: &str) -> Result<Self, SpecError> {
        parse_spec(text)
    }
}

impl DeviceSpec {
    /// Parses and validates device-spec JSON. Every error carries the
    /// `line:column` of the offending construct.
    pub fn parse(text: &str) -> Result<Self, SpecError> {
        text.parse()
    }

    /// The human-facing label: `display_name` when present, else `name`.
    pub fn label(&self) -> &str {
        self.display_name.as_deref().unwrap_or(&self.name)
    }

    /// The qubit count this spec describes, without building the graph.
    pub fn qubits(&self) -> Result<usize, SpecError> {
        match &self.topology {
            TopologySource::Edges { qubits, .. } => Ok(*qubits),
            TopologySource::Generator { generator, qubits } => {
                let full = generator.checked_qubits().map_err(SpecError::bare)?;
                Ok(qubits.unwrap_or(full))
            }
        }
    }

    /// Builds the coupling graph this spec describes, named after
    /// [`label`](DeviceSpec::label). Semantic constraints are re-checked, so
    /// a hand-constructed (not parsed) spec still cannot panic the builders;
    /// errors from this path carry no source position.
    pub fn build_graph(&self) -> Result<CouplingGraph, SpecError> {
        match &self.topology {
            TopologySource::Edges { qubits, edges } => {
                if *qubits == 0 || *qubits > MAX_QUBITS {
                    return Err(SpecError::bare(format!(
                        "`qubits` must be in 1..={MAX_QUBITS}, got {qubits}"
                    )));
                }
                let mut seen = HashSet::new();
                for &(a, b) in edges {
                    if a >= *qubits || b >= *qubits {
                        return Err(SpecError::bare(format!(
                            "edge [{a}, {b}] out of range for a {qubits}-qubit device"
                        )));
                    }
                    if a == b {
                        return Err(SpecError::bare(format!("edge [{a}, {b}] is a self-loop")));
                    }
                    if !seen.insert((a.min(b), a.max(b))) {
                        return Err(SpecError::bare(format!("duplicate edge [{a}, {b}]")));
                    }
                }
                let g = CouplingGraph::from_edges(self.label(), *qubits, edges);
                if *qubits > 1 && !g.is_connected() {
                    return Err(SpecError::bare(format!(
                        "topology is disconnected ({qubits} qubits, {} edges)",
                        edges.len()
                    )));
                }
                Ok(g)
            }
            TopologySource::Generator { generator, qubits } => {
                let full = generator.checked_qubits().map_err(SpecError::bare)?;
                let g = generator.build();
                match qubits {
                    Some(n) => {
                        if *n == 0 || *n > full {
                            return Err(SpecError::bare(format!(
                                "cannot truncate `{}` ({} qubits) to {}",
                                generator.spec_name(),
                                full,
                                n
                            )));
                        }
                        Ok(g.truncate_boundary(*n, self.label()))
                    }
                    None => {
                        let mut g = g;
                        g.set_name(self.label());
                        Ok(g)
                    }
                }
            }
        }
    }

    /// Exports a built graph as an explicit-edge spec, carrying the graph
    /// name as `display_name` and any non-uniform per-edge error rates as an
    /// inline error model — the inverse of
    /// [`build_graph`](DeviceSpec::build_graph) up to rate-preserving
    /// round-trips.
    pub fn from_graph(name: impl Into<String>, graph: &CouplingGraph) -> Self {
        let name = name.into();
        let default = graph.default_edge_error();
        let overrides: Vec<(usize, usize, f64)> = graph
            .edge_errors()
            .filter(|&(_, rate)| rate != default)
            .map(|((a, b), rate)| (a, b, rate))
            .collect();
        let error_model = if default == DEFAULT_EDGE_ERROR && overrides.is_empty() {
            None
        } else {
            let mut entries: Vec<(String, Value)> =
                vec![("per_gate_infidelity".into(), Value::Float(default))];
            if !overrides.is_empty() {
                entries.push((
                    "edges".into(),
                    Value::Array(
                        overrides
                            .iter()
                            .map(|&(a, b, rate)| {
                                Value::Array(vec![
                                    Value::UInt(a as u64),
                                    Value::UInt(b as u64),
                                    Value::Float(rate),
                                ])
                            })
                            .collect(),
                    ),
                ));
            }
            Some(ErrorModelRef::Inline(
                serde_json::to_string(&Value::Object(entries)).expect("edge rates are finite"),
            ))
        };
        DeviceSpec {
            display_name: (graph.name() != name).then(|| graph.name().to_string()),
            name,
            description: None,
            basis: None,
            topology: TopologySource::Edges {
                qubits: graph.num_qubits(),
                edges: graph.edges().collect(),
            },
            error_model,
            error_model_at: None,
        }
    }

    /// Renders the spec as pretty-printed JSON (the `device-gen` output
    /// format); [`parse`](DeviceSpec::parse) reads it back verbatim.
    pub fn to_json(&self) -> String {
        let mut top: Vec<(String, Value)> = vec![
            ("snailqc_device".into(), Value::UInt(SPEC_VERSION)),
            ("name".into(), Value::String(self.name.clone())),
        ];
        if let Some(d) = &self.display_name {
            top.push(("display_name".into(), Value::String(d.clone())));
        }
        if let Some(d) = &self.description {
            top.push(("description".into(), Value::String(d.clone())));
        }
        if let Some(b) = self.basis {
            top.push(("basis".into(), Value::String(basis_name(b).into())));
        }
        top.push(("topology".into(), self.topology_value()));
        if let Some(em) = &self.error_model {
            let value = match em {
                ErrorModelRef::Preset(name) => Value::String(name.clone()),
                ErrorModelRef::Inline(text) => {
                    serde_json::from_str(text).expect("inline error model is valid JSON")
                }
            };
            top.push(("error_model".into(), value));
        }
        let mut text =
            serde_json::to_string_pretty(&Value::Object(top)).expect("spec values are finite");
        text.push('\n');
        text
    }

    fn topology_value(&self) -> Value {
        match &self.topology {
            TopologySource::Edges { qubits, edges } => Value::Object(vec![
                ("qubits".into(), Value::UInt(*qubits as u64)),
                (
                    "edges".into(),
                    Value::Array(
                        edges
                            .iter()
                            .map(|&(a, b)| {
                                Value::Array(vec![Value::UInt(a as u64), Value::UInt(b as u64)])
                            })
                            .collect(),
                    ),
                ),
            ]),
            TopologySource::Generator { generator, qubits } => {
                let mut entries = vec![
                    (
                        "generator".into(),
                        Value::String(generator.spec_name().into()),
                    ),
                    ("params".into(), generator.params_json()),
                ];
                if let Some(n) = qubits {
                    entries.push(("qubits".into(), Value::UInt(*n as u64)));
                }
                Value::Object(entries)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Parsing
// ---------------------------------------------------------------------------

/// Shared state for span-aware parsing: the source text, for byte-offset →
/// `line:col` conversion.
struct Cx<'a> {
    text: &'a str,
}

impl Cx<'_> {
    fn pos(&self, byte: usize) -> (usize, usize) {
        spanned::line_col(self.text, byte)
    }

    fn err(&self, message: impl Into<String>, byte: usize) -> SpecError {
        SpecError::at(message, self.pos(byte))
    }
}

fn find<'s>(entries: &'s [(SpannedKey, Spanned)], key: &str) -> Option<&'s Spanned> {
    entries.iter().find(|(k, _)| k.name == key).map(|(_, v)| v)
}

fn find_key<'s>(entries: &'s [(SpannedKey, Spanned)], key: &str) -> Option<&'s SpannedKey> {
    entries.iter().find(|(k, _)| k.name == key).map(|(k, _)| k)
}

fn check_keys(
    cx: &Cx,
    entries: &[(SpannedKey, Spanned)],
    known: &[&str],
    what: &str,
) -> Result<(), SpecError> {
    let mut seen: Vec<&str> = Vec::new();
    for (key, _) in entries {
        if !known.contains(&key.name.as_str()) {
            return Err(cx.err(
                format!(
                    "unknown {what} key `{}` (known: {})",
                    key.name,
                    known.join(", ")
                ),
                key.start,
            ));
        }
        if seen.contains(&key.name.as_str()) {
            return Err(cx.err(format!("duplicate {what} key `{}`", key.name), key.start));
        }
        seen.push(&key.name);
    }
    Ok(())
}

fn as_object<'s>(
    cx: &Cx,
    v: &'s Spanned,
    what: &str,
) -> Result<&'s [(SpannedKey, Spanned)], SpecError> {
    match &v.value {
        SpannedValue::Object(entries) => Ok(entries),
        _ => Err(cx.err(
            format!("{what} must be an object, found {}", v.type_name()),
            v.start,
        )),
    }
}

fn as_string<'s>(cx: &Cx, v: &'s Spanned, what: &str) -> Result<&'s str, SpecError> {
    match &v.value {
        SpannedValue::String(s) => Ok(s),
        _ => Err(cx.err(
            format!("{what} must be a string, found {}", v.type_name()),
            v.start,
        )),
    }
}

fn as_uint(cx: &Cx, v: &Spanned, what: &str) -> Result<u64, SpecError> {
    match &v.value {
        SpannedValue::UInt(u) => Ok(*u),
        _ => Err(cx.err(
            format!(
                "{what} must be a non-negative integer, found {}",
                v.type_name()
            ),
            v.start,
        )),
    }
}

fn as_bool(cx: &Cx, v: &Spanned, what: &str) -> Result<bool, SpecError> {
    match &v.value {
        SpannedValue::Bool(b) => Ok(*b),
        _ => Err(cx.err(
            format!("{what} must be a boolean, found {}", v.type_name()),
            v.start,
        )),
    }
}

fn parse_spec(text: &str) -> Result<DeviceSpec, SpecError> {
    let cx = Cx { text };
    let root = spanned::from_str(text)
        .map_err(|e| SpecError::at(format!("invalid JSON: {e}"), spanned::line_col(text, e.at)))?;
    let entries = as_object(&cx, &root, "a device spec")?;

    // The version marker gates everything else: a future-format file should
    // say "unsupported version", not trip over keys this build doesn't know.
    let ver = find(entries, "snailqc_device").ok_or_else(|| {
        cx.err(
            format!("missing required key `snailqc_device` (the device-spec version, currently {SPEC_VERSION})"),
            root.start,
        )
    })?;
    let version = as_uint(&cx, ver, "`snailqc_device`")?;
    if version != SPEC_VERSION {
        return Err(cx.err(
            format!(
                "unsupported device-spec version {version} (this build reads version {SPEC_VERSION})"
            ),
            ver.start,
        ));
    }
    check_keys(&cx, entries, &TOP_KEYS, "device-spec")?;

    let name_v =
        find(entries, "name").ok_or_else(|| cx.err("missing required key `name`", root.start))?;
    let name = as_string(&cx, name_v, "`name`")?.to_string();
    if name.trim().is_empty() {
        return Err(cx.err("`name` must not be empty", name_v.start));
    }
    let display_name = find(entries, "display_name")
        .map(|v| as_string(&cx, v, "`display_name`").map(str::to_string))
        .transpose()?;
    let description = find(entries, "description")
        .map(|v| as_string(&cx, v, "`description`").map(str::to_string))
        .transpose()?;

    let basis = match find(entries, "basis") {
        None => None,
        Some(v) => {
            let s = as_string(&cx, v, "`basis`")?;
            BasisGate::by_name(s).map_err(|e| cx.err(e, v.start))?
        }
    };

    let topo_v = find(entries, "topology")
        .ok_or_else(|| cx.err("missing required key `topology`", root.start))?;
    let topology = parse_topology(&cx, topo_v)?;

    let (error_model, error_model_at) = match find(entries, "error_model") {
        None => (None, None),
        Some(v) => {
            let at = cx.pos(v.start);
            let em = match &v.value {
                SpannedValue::String(s) => ErrorModelRef::Preset(s.clone()),
                SpannedValue::Object(_) => ErrorModelRef::Inline(
                    serde_json::to_string(&v.to_value()).expect("parsed JSON is finite"),
                ),
                _ => {
                    return Err(cx.err(
                        format!(
                            "`error_model` must be a preset name or an object, found {}",
                            v.type_name()
                        ),
                        v.start,
                    ))
                }
            };
            (Some(em), Some(at))
        }
    };

    Ok(DeviceSpec {
        name,
        display_name,
        description,
        basis,
        topology,
        error_model,
        error_model_at,
    })
}

fn parse_topology(cx: &Cx, v: &Spanned) -> Result<TopologySource, SpecError> {
    let entries = as_object(cx, v, "`topology`")?;
    check_keys(
        cx,
        entries,
        &["qubits", "edges", "generator", "params"],
        "topology",
    )?;
    match (find(entries, "edges"), find(entries, "generator")) {
        (Some(_), Some(_)) => {
            let key = find_key(entries, "generator").expect("just matched");
            Err(cx.err(
                "a topology has either `edges` or a `generator`, not both",
                key.start,
            ))
        }
        (Some(edges_v), None) => {
            if let Some(key) = find_key(entries, "params") {
                return Err(cx.err("`params` only applies to generator topologies", key.start));
            }
            let qubits_v = find(entries, "qubits").ok_or_else(|| {
                cx.err(
                    "`topology.qubits` is required with explicit `edges`",
                    v.start,
                )
            })?;
            let qubits = parse_qubit_count(cx, qubits_v)?;
            let edges = parse_edges(cx, edges_v, qubits)?;
            let probe = CouplingGraph::from_edges("spec", qubits, &edges);
            if qubits > 1 && !probe.is_connected() {
                return Err(cx.err(
                    format!(
                        "topology is disconnected ({qubits} qubits, {} edges)",
                        edges.len()
                    ),
                    edges_v.start,
                ));
            }
            Ok(TopologySource::Edges { qubits, edges })
        }
        (None, Some(gen_v)) => {
            let gen_name = as_string(cx, gen_v, "`generator`")?;
            let params = Params {
                entries: find(entries, "params")
                    .map(|p| as_object(cx, p, "`params`"))
                    .transpose()?
                    .unwrap_or(&[]),
                missing_at: find(entries, "params").map_or(v.start, |p| p.start),
            };
            let generator = parse_generator(cx, gen_name, gen_v.start, &params)?;
            let full = generator
                .checked_qubits()
                .map_err(|e| cx.err(e, params.missing_at))?;
            let qubits = match find(entries, "qubits") {
                None => None,
                Some(qv) => {
                    let n = parse_qubit_count(cx, qv)?;
                    if n > full {
                        return Err(cx.err(
                            format!(
                                "generator `{}` yields {full} qubits; cannot truncate to {n}",
                                generator.spec_name()
                            ),
                            qv.start,
                        ));
                    }
                    Some(n)
                }
            };
            Ok(TopologySource::Generator { generator, qubits })
        }
        (None, None) => Err(cx.err(
            "`topology` needs either explicit `edges` or a `generator`",
            v.start,
        )),
    }
}

fn parse_qubit_count(cx: &Cx, v: &Spanned) -> Result<usize, SpecError> {
    let n = as_uint(cx, v, "`qubits`")?;
    if n == 0 || n > MAX_QUBITS as u64 {
        return Err(cx.err(
            format!("`qubits` must be in 1..={MAX_QUBITS}, got {n}"),
            v.start,
        ));
    }
    Ok(n as usize)
}

fn parse_edges(cx: &Cx, v: &Spanned, qubits: usize) -> Result<Vec<(usize, usize)>, SpecError> {
    let SpannedValue::Array(items) = &v.value else {
        return Err(cx.err(
            format!("`edges` must be an array, found {}", v.type_name()),
            v.start,
        ));
    };
    let mut edges = Vec::with_capacity(items.len());
    let mut seen: HashSet<(usize, usize)> = HashSet::with_capacity(items.len());
    for item in items {
        let pair = match &item.value {
            SpannedValue::Array(pair) if pair.len() == 2 => pair,
            _ => return Err(cx.err("each edge must be a two-element [a, b] pair", item.start)),
        };
        let a = parse_edge_qubit(cx, &pair[0], qubits)?;
        let b = parse_edge_qubit(cx, &pair[1], qubits)?;
        if a == b {
            return Err(cx.err(format!("edge [{a}, {b}] is a self-loop"), item.start));
        }
        if !seen.insert((a.min(b), a.max(b))) {
            return Err(cx.err(format!("duplicate edge [{a}, {b}]"), item.start));
        }
        edges.push((a, b));
    }
    Ok(edges)
}

fn parse_edge_qubit(cx: &Cx, v: &Spanned, qubits: usize) -> Result<usize, SpecError> {
    let q = as_uint(cx, v, "edge qubit")?;
    if q >= qubits as u64 {
        return Err(cx.err(
            format!("qubit {q} out of range for a {qubits}-qubit device"),
            v.start,
        ));
    }
    Ok(q as usize)
}

/// The `params` object of a generator topology (possibly absent, in which
/// case missing-parameter errors point at the enclosing topology object).
struct Params<'s> {
    entries: &'s [(SpannedKey, Spanned)],
    missing_at: usize,
}

impl Params<'_> {
    fn check(&self, cx: &Cx, known: &[&str]) -> Result<(), SpecError> {
        check_keys(cx, self.entries, known, "generator param")
    }

    fn need_usize(&self, cx: &Cx, key: &str) -> Result<usize, SpecError> {
        match find(self.entries, key) {
            Some(v) => {
                let n = as_uint(cx, v, &format!("`{key}`"))?;
                if n > MAX_QUBITS as u64 {
                    return Err(cx.err(
                        format!("`{key}` {n} exceeds the supported maximum {MAX_QUBITS}"),
                        v.start,
                    ));
                }
                Ok(n as usize)
            }
            None => Err(cx.err(format!("generator requires param `{key}`"), self.missing_at)),
        }
    }

    fn opt_bool(&self, cx: &Cx, key: &str) -> Result<Option<bool>, SpecError> {
        find(self.entries, key)
            .map(|v| as_bool(cx, v, &format!("`{key}`")))
            .transpose()
    }
}

fn parse_generator(
    cx: &Cx,
    name: &str,
    name_at: usize,
    params: &Params,
) -> Result<GeneratorSpec, SpecError> {
    Ok(match normalize_name(name).as_str() {
        "line" => {
            params.check(cx, &["qubits"])?;
            GeneratorSpec::Line {
                qubits: params.need_usize(cx, "qubits")?,
            }
        }
        "ring" => {
            params.check(cx, &["qubits"])?;
            GeneratorSpec::Ring {
                qubits: params.need_usize(cx, "qubits")?,
            }
        }
        "complete" | "alltoall" | "fullyconnected" => {
            params.check(cx, &["qubits"])?;
            GeneratorSpec::Complete {
                qubits: params.need_usize(cx, "qubits")?,
            }
        }
        "star" => {
            params.check(cx, &["qubits"])?;
            GeneratorSpec::Star {
                qubits: params.need_usize(cx, "qubits")?,
            }
        }
        "grid" | "square" | "squarelattice" => {
            params.check(cx, &["rows", "cols"])?;
            GeneratorSpec::Grid {
                rows: params.need_usize(cx, "rows")?,
                cols: params.need_usize(cx, "cols")?,
            }
        }
        "griddiagonals" | "latticealtdiagonals" => {
            params.check(cx, &["rows", "cols"])?;
            GeneratorSpec::GridDiagonals {
                rows: params.need_usize(cx, "rows")?,
                cols: params.need_usize(cx, "cols")?,
            }
        }
        "hex" | "hexlattice" => {
            params.check(cx, &["rows", "cols"])?;
            GeneratorSpec::Hex {
                rows: params.need_usize(cx, "rows")?,
                cols: params.need_usize(cx, "cols")?,
            }
        }
        "heavyhex" => {
            params.check(cx, &["rows", "cols"])?;
            GeneratorSpec::HeavyHex {
                rows: params.need_usize(cx, "rows")?,
                cols: params.need_usize(cx, "cols")?,
            }
        }
        "hypercube" => {
            params.check(cx, &["qubits"])?;
            GeneratorSpec::Hypercube {
                qubits: params.need_usize(cx, "qubits")?,
            }
        }
        "tree" => {
            params.check(cx, &["levels", "round_robin"])?;
            GeneratorSpec::Tree {
                levels: params.need_usize(cx, "levels")?,
                round_robin: params.opt_bool(cx, "round_robin")?.unwrap_or(false),
            }
        }
        "treerr" => {
            params.check(cx, &["levels"])?;
            GeneratorSpec::Tree {
                levels: params.need_usize(cx, "levels")?,
                round_robin: true,
            }
        }
        "corral" => {
            params.check(cx, &["posts", "stride_a", "stride_b"])?;
            GeneratorSpec::Corral {
                posts: params.need_usize(cx, "posts")?,
                stride_a: params.need_usize(cx, "stride_a")?,
                stride_b: params.need_usize(cx, "stride_b")?,
            }
        }
        _ => {
            return Err(cx.err(
                format!(
                    "unknown generator `{name}` (known: {})",
                    GeneratorSpec::KNOWN
                ),
                name_at,
            ))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn minimal(topology: &str) -> String {
        format!(r#"{{"snailqc_device": 1, "name": "t", "topology": {topology}}}"#)
    }

    #[test]
    fn parses_an_explicit_edge_list() {
        let spec = DeviceSpec::parse(&minimal(r#"{"qubits": 3, "edges": [[0, 1], [1, 2]]}"#))
            .expect("parses");
        assert_eq!(
            spec.topology,
            TopologySource::Edges {
                qubits: 3,
                edges: vec![(0, 1), (1, 2)],
            }
        );
        let g = spec.build_graph().expect("builds");
        assert_eq!(g.num_qubits(), 3);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.name(), "t");
    }

    #[test]
    fn parses_a_generator_with_truncation() {
        let text = r#"{"snailqc_device": 1, "name": "hh", "display_name": "Heavy-Hex 127",
                "basis": "cnot",
                "topology": {"generator": "heavy-hex", "params": {"rows": 3, "cols": 7}, "qubits": 127}}"#;
        let spec = DeviceSpec::parse(text).expect("parses");
        assert_eq!(spec.basis, Some(BasisGate::Cnot));
        let g = spec.build_graph().expect("builds");
        assert_eq!(g.num_qubits(), 127);
        assert_eq!(g.name(), "Heavy-Hex 127");
        assert!(g.is_connected());
    }

    #[test]
    fn generator_matching_is_forgiving() {
        for alias in ["Heavy-Hex", "HEAVYHEX", "heavy_hex"] {
            let text = minimal(&format!(
                r#"{{"generator": "{alias}", "params": {{"rows": 2, "cols": 2}}}}"#
            ));
            assert!(DeviceSpec::parse(&text).is_ok(), "{alias}");
        }
    }

    #[test]
    fn spec_round_trips_through_to_json() {
        for topology in [
            r#"{"qubits": 4, "edges": [[0, 1], [1, 2], [2, 3], [3, 0]]}"#,
            r#"{"generator": "corral", "params": {"posts": 8, "stride_a": 1, "stride_b": 3}}"#,
            r#"{"generator": "tree-rr", "params": {"levels": 2}}"#,
            r#"{"generator": "heavy-hex", "params": {"rows": 3, "cols": 7}, "qubits": 127}"#,
        ] {
            let spec = DeviceSpec::parse(&minimal(topology)).expect("parses");
            let reparsed = DeviceSpec::parse(&spec.to_json()).expect("round-trips");
            assert_eq!(spec, reparsed, "{topology}");
        }
    }

    #[test]
    fn from_graph_round_trips_edges_and_rates() {
        let mut g = snailqc_topology::builders::corral(8, 1, 3);
        g.set_edge_error(0, 1, 0.025);
        g.set_edge_error(2, 3, 0.0125);
        let spec = DeviceSpec::from_graph("corral-test", &g);
        let reparsed = DeviceSpec::parse(&spec.to_json()).expect("round-trips");
        let rebuilt = reparsed.build_graph().expect("builds");
        assert_eq!(rebuilt.num_qubits(), g.num_qubits());
        assert_eq!(
            rebuilt.edges().collect::<Vec<_>>(),
            g.edges().collect::<Vec<_>>()
        );
        // The inline error model is carried as data; rates are only stamped
        // when core applies it, so here we just check it survived the trip.
        assert_eq!(spec.error_model, reparsed.error_model);
        assert!(matches!(
            reparsed.error_model,
            Some(ErrorModelRef::Inline(_))
        ));
    }

    #[test]
    fn version_and_structure_errors_carry_positions() {
        // Bad version: points at the version value.
        let e = DeviceSpec::parse(r#"{"snailqc_device": 2, "name": "x", "topology": {}}"#)
            .expect_err("bad version");
        assert!(
            e.message.contains("unsupported device-spec version 2"),
            "{e}"
        );
        assert_eq!((e.line, e.col), (1, 20));

        // Missing version.
        let e = DeviceSpec::parse(r#"{"name": "x"}"#).expect_err("missing version");
        assert!(e.message.contains("snailqc_device"), "{e}");

        // Unknown top-level key: points at the key.
        let e = DeviceSpec::parse(
            r#"{"snailqc_device": 1, "name": "x", "nope": 3, "topology": {"qubits": 1, "edges": []}}"#,
        )
        .expect_err("unknown key");
        assert!(e.message.contains("unknown device-spec key `nope`"), "{e}");
        assert_eq!((e.line, e.col), (1, 36));
    }

    #[test]
    fn edge_errors_carry_positions() {
        // Out-of-range qubit.
        let e = DeviceSpec::parse(&minimal(r#"{"qubits": 2, "edges": [[0, 7]]}"#))
            .expect_err("out of range");
        assert!(e.message.contains("qubit 7 out of range"), "{e}");

        // Duplicate edge (order-insensitive).
        let e = DeviceSpec::parse(&minimal(
            r#"{"qubits": 3, "edges": [[0, 1], [1, 2], [1, 0]]}"#,
        ))
        .expect_err("duplicate");
        assert!(e.message.contains("duplicate edge [1, 0]"), "{e}");

        // Self-loop.
        let e = DeviceSpec::parse(&minimal(
            r#"{"qubits": 3, "edges": [[1, 1], [0, 1], [1, 2]]}"#,
        ))
        .expect_err("self-loop");
        assert!(e.message.contains("self-loop"), "{e}");

        // Disconnected.
        let e = DeviceSpec::parse(&minimal(r#"{"qubits": 4, "edges": [[0, 1], [2, 3]]}"#))
            .expect_err("disconnected");
        assert!(e.message.contains("disconnected"), "{e}");
    }

    #[test]
    fn generator_errors_carry_positions() {
        // Unknown generator name.
        let e = DeviceSpec::parse(&minimal(r#"{"generator": "moebius", "params": {}}"#))
            .expect_err("unknown generator");
        assert!(e.message.contains("unknown generator `moebius`"), "{e}");

        // Unknown param.
        let e = DeviceSpec::parse(&minimal(
            r#"{"generator": "grid", "params": {"rows": 2, "cols": 2, "depth": 3}}"#,
        ))
        .expect_err("unknown param");
        assert!(
            e.message.contains("unknown generator param key `depth`"),
            "{e}"
        );

        // Missing param.
        let e = DeviceSpec::parse(&minimal(r#"{"generator": "grid", "params": {"rows": 2}}"#))
            .expect_err("missing param");
        assert!(e.message.contains("requires param `cols`"), "{e}");

        // Out-of-range truncation.
        let e = DeviceSpec::parse(&minimal(
            r#"{"generator": "grid", "params": {"rows": 2, "cols": 2}, "qubits": 9}"#,
        ))
        .expect_err("truncation too large");
        assert!(e.message.contains("cannot truncate to 9"), "{e}");

        // Builder-level range violations surface as spec errors, not panics.
        let e = DeviceSpec::parse(&minimal(
            r#"{"generator": "corral", "params": {"posts": 2, "stride_a": 1, "stride_b": 1}}"#,
        ))
        .expect_err("bad corral");
        assert!(e.message.contains("`posts` must be at least 3"), "{e}");
    }

    #[test]
    fn error_model_forms_are_preserved() {
        let preset = DeviceSpec::parse(
            r#"{"snailqc_device": 1, "name": "x", "error_model": "calibrated",
                "topology": {"generator": "ring", "params": {"qubits": 5}}}"#,
        )
        .expect("preset parses");
        assert_eq!(
            preset.error_model,
            Some(ErrorModelRef::Preset("calibrated".into()))
        );
        assert!(preset.error_model_at.is_some());

        let inline = DeviceSpec::parse(
            r#"{"snailqc_device": 1, "name": "x",
                "error_model": {"per_gate_infidelity": 0.002, "edges": [[0, 1, 0.01]]},
                "topology": {"generator": "ring", "params": {"qubits": 5}}}"#,
        )
        .expect("inline parses");
        let Some(ErrorModelRef::Inline(text)) = &inline.error_model else {
            panic!("inline expected");
        };
        assert!(text.contains("per_gate_infidelity"), "{text}");
    }
}
