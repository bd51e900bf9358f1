//! The fixed op lists. Every workload is a list of distinct inputs (a QASM
//! source, a device and a router seed: one routed digest each) and a list of
//! ops over them, both generated from `--seed`. The list length depends only
//! on `--seconds`, never on how fast the ops run, so a run of a given seed
//! and length always does the same work and reports the same counts.

use snailqc::prelude::{BasisGate, Machine, Workload};
use std::collections::HashMap;

use crate::util::Rng;

/// The three workloads; see README.md for why each exists.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    CodesignCli,
    ServeStream,
    KiloqubitCli,
}

impl Kind {
    pub fn parse(name: &str) -> Result<Self, String> {
        match name {
            "codesign_cli" => Ok(Kind::CodesignCli),
            "serve_stream" => Ok(Kind::ServeStream),
            "kiloqubit_cli" => Ok(Kind::KiloqubitCli),
            other => Err(format!(
                "unknown workload `{other}` (codesign_cli | serve_stream | kiloqubit_cli)"
            )),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Kind::CodesignCli => "codesign_cli",
            Kind::ServeStream => "serve_stream",
            Kind::KiloqubitCli => "kiloqubit_cli",
        }
    }
}

/// How the CLI (`--topology` / `--device`) and the daemon (`topology` /
/// `device`) name a device.
#[derive(Debug, Clone)]
pub enum DeviceArg {
    /// A built-in catalog topology.
    Topology(String),
    /// A shipped device-spec file, relative to the repository root.
    Spec(String),
}

impl DeviceArg {
    pub fn name(&self) -> &str {
        match self {
            DeviceArg::Topology(name) => name,
            DeviceArg::Spec(path) => path,
        }
    }
}

/// One distinct transpile input.
#[derive(Debug, Clone)]
pub struct Input {
    pub label: String,
    pub source: String,
    pub device: DeviceArg,
    pub basis: BasisGate,
    pub router_seed: u64,
}

/// One timed (or warm-up) operation on an input. `emit` asks the daemon for
/// the QASM 3 output; CLI ops always write their output with `-o`.
#[derive(Debug, Clone)]
pub struct Op {
    pub input: usize,
    pub emit: bool,
    pub class: &'static str,
}

pub struct Plan {
    pub inputs: Vec<Input>,
    /// Ops sent during set-up (serve only: warms the device pool and the
    /// memory-cache entries that `hit` ops repeat).
    pub warmup: Vec<Op>,
    pub ops: Vec<Op>,
}

/// The router seed both the CLI and the daemon use when none is given.
pub const DEFAULT_ROUTER_SEED: u64 = 11;

pub fn basis_name(basis: BasisGate) -> &'static str {
    match basis {
        BasisGate::Cnot => "cx",
        BasisGate::Syc => "syc",
        BasisGate::SqrtISwap => "sqrt-iswap",
    }
}

fn short_name(workload: Workload) -> &'static str {
    match workload {
        Workload::QuantumVolume => "qv",
        Workload::Qft => "qft",
        Workload::QaoaVanilla => "qaoa",
        Workload::TimHamiltonian => "tim",
        Workload::Adder => "adder",
        Workload::Ghz => "ghz",
    }
}

/// Circuit seed of every generated circuit except the seeded one.
const FIXED_CIRCUIT_SEED: u64 = 1;

/// Builds inputs, generating each (workload, size) source once. The bench
/// seed generates one Quantum Volume size per workload (its random
/// unitaries and pairings), a small share of the counts, so each seed has
/// its own inputs while the totals stay within a fraction of a percent of
/// each other; every other circuit uses a fixed seed. The router seed is
/// the CLI default unless an op needs a distinct daemon cache key.
struct InputSet {
    seed: u64,
    seeded_qv: usize,
    sources: HashMap<(Workload, usize), String>,
    inputs: Vec<Input>,
}

impl InputSet {
    fn new(seed: u64, seeded_qv: usize) -> Self {
        Self {
            seed,
            seeded_qv,
            sources: HashMap::new(),
            inputs: Vec::new(),
        }
    }

    fn input(
        &mut self,
        workload: Workload,
        qubits: usize,
        device: DeviceArg,
        basis: BasisGate,
        router_seed: u64,
    ) -> usize {
        let seed = if (workload, qubits) == (Workload::QuantumVolume, self.seeded_qv) {
            self.seed
        } else {
            FIXED_CIRCUIT_SEED
        };
        let source = self
            .sources
            .entry((workload, qubits))
            .or_insert_with(|| workload.emit_qasm(qubits, seed))
            .clone();
        let mut label = format!("{}-{qubits}@{}", short_name(workload), device.name());
        if router_seed != DEFAULT_ROUTER_SEED {
            label.push_str(&format!("#s{router_seed}"));
        }
        self.inputs.push(Input {
            label,
            source,
            device,
            basis,
            router_seed,
        });
        self.inputs.len() - 1
    }
}

/// Repeats `pass` `passes` times, each copy in its own seeded order.
fn repeat_shuffled(pass: &[Op], passes: usize, rng: &mut Rng) -> Vec<Op> {
    let mut ops = Vec::with_capacity(pass.len() * passes);
    for _ in 0..passes {
        let mut copy = pass.to_vec();
        rng.shuffle(&mut copy);
        ops.extend(copy);
    }
    ops
}

/// Number of fixed-size blocks of about `block_seconds` each that fill
/// `seconds` (at least one).
fn blocks(seconds: u64, block_seconds: f64) -> usize {
    ((seconds as f64 / block_seconds).round() as usize).max(1)
}

pub fn build(kind: Kind, seed: u64, seconds: u64, reduced: bool) -> Plan {
    match kind {
        Kind::CodesignCli => codesign_cli(seed, seconds, reduced),
        Kind::ServeStream => serve_stream(seed, seconds, reduced),
        Kind::KiloqubitCli => kiloqubit_cli(seed, seconds, reduced),
    }
}

/// Fig. 13 (16–20q) and Fig. 14 (84q) line-ups × the six paper workloads ×
/// sizes along the paper's axis, one CLI process per op. Small cells run
/// three times per pass and 84q cells twice (76% / 24% of ops), so p50
/// falls well inside the small cells and p90 inside the 84q cells.
fn codesign_cli(seed: u64, seconds: u64, reduced: bool) -> Plan {
    const SMALL_SIZES: [usize; 3] = [8, 12, 16];
    const LARGE_SIZES: [usize; 2] = [16, 32];
    const PASS_SECONDS: f64 = 3.1;
    let mut b = InputSet::new(seed, SMALL_SIZES[0]);
    let mut pass = Vec::new();
    let groups: [(Vec<Machine>, &[usize], &'static str, usize); 2] = [
        (Machine::figure13_lineup(), &SMALL_SIZES, "16-20q", 3),
        (Machine::figure14_lineup(), &LARGE_SIZES, "84q", 2),
    ];
    for (lineup, sizes, class, reps) in groups {
        let sizes = if reduced { &sizes[..1] } else { sizes };
        for machine in lineup {
            let topology = machine.graph().name().to_string();
            for workload in Workload::all() {
                for &n in sizes {
                    let input = b.input(
                        workload,
                        n,
                        DeviceArg::Topology(topology.clone()),
                        machine.basis,
                        DEFAULT_ROUTER_SEED,
                    );
                    pass.extend((0..reps).map(|_| Op {
                        input,
                        emit: false,
                        class,
                    }));
                }
            }
        }
    }
    let mut rng = Rng::new(seed);
    let passes = if reduced {
        1
    } else {
        blocks(seconds, PASS_SECONDS)
    };
    Plan {
        ops: repeat_shuffled(&pass, passes, &mut rng),
        inputs: b.inputs,
        warmup: Vec::new(),
    }
}

/// One daemon connection over 16–84q catalog devices. Each block of 20 ops
/// holds 2 small-frame memory-cache hits, 2 small-frame first-seen requests
/// and one small-frame `emit` request (which bypasses the cache), 10 QV-12
/// hits and 5 QV-16 hits. Sorted by latency the classes stack up as small
/// frames < QV-12 hits < QV-16 hits, so p50 sits in the middle of the QV-12
/// hits and p90 inside the QV-16 hits. Both are set by the daemon's
/// single-threaded frame decoding, which is also most of the block's time,
/// rather than by the router's trial fan-out over two vCPUs, whose wall time
/// depends on whether the second vCPU is free. Misses and emits all route
/// QFT-16 on square-lattice-84 (a few ms each; misses differ only in router
/// seed).
fn serve_stream(seed: u64, seconds: u64, reduced: bool) -> Plan {
    const BLOCK: [&str; 20] = [
        "small-hit",
        "small-hit",
        "small-miss",
        "small-miss",
        "small-emit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv12-hit",
        "qv16-hit",
        "qv16-hit",
        "qv16-hit",
        "qv16-hit",
        "qv16-hit",
    ];
    const BLOCK_SECONDS: f64 = 1.25;
    let devices = [
        ("square-lattice-16", BasisGate::Syc),
        ("corral12-16", BasisGate::SqrtISwap),
        ("tree-20", BasisGate::SqrtISwap),
        ("heavy-hex-84", BasisGate::Cnot),
        ("square-lattice-84", BasisGate::Syc),
        ("tree-84", BasisGate::SqrtISwap),
    ];
    // The seeded QV-4 comes first, so even a one-block run hits it.
    let small = [
        (Workload::QuantumVolume, 4),
        (Workload::Ghz, 16),
        (Workload::QaoaVanilla, 12),
        (Workload::TimHamiltonian, 16),
        (Workload::Adder, 12),
    ];
    let topology = |i: usize| DeviceArg::Topology(devices[i % devices.len()].0.to_string());
    let basis = |i: usize| devices[i % devices.len()].1;
    let mut b = InputSet::new(seed, 4);
    let mut warmup = Vec::new();
    let warm = |input: usize| Op {
        input,
        emit: false,
        class: "warm-up",
    };
    // Pool every device with a key no timed op uses, then prime the keys
    // that timed `hit` ops repeat.
    for d in 0..devices.len() {
        warmup.push(warm(b.input(Workload::Ghz, 4, topology(d), basis(d), 7)));
    }
    let mut hot = Vec::new();
    for d in 0..devices.len() {
        for &(w, n) in &small {
            hot.push(b.input(w, n, topology(d), basis(d), DEFAULT_ROUTER_SEED));
        }
    }
    let qv = |b: &mut InputSet, n: usize, d: usize| {
        b.input(
            Workload::QuantumVolume,
            n,
            topology(d),
            basis(d),
            DEFAULT_ROUTER_SEED,
        )
    };
    let qv12_hot: Vec<usize> = [1, 3, 5].iter().map(|&d| qv(&mut b, 12, d)).collect();
    let qv16_hot = qv(&mut b, 16, 5);
    warmup.extend(
        hot.iter()
            .chain(&qv12_hot)
            .chain([&qv16_hot])
            .map(|&i| warm(i)),
    );
    // The routed cell of misses and emits: QFT-16 on square-lattice-84.
    let (routed, on) = ((Workload::Qft, 16), 4);
    let emitted = b.input(
        routed.0,
        routed.1,
        topology(on),
        basis(on),
        DEFAULT_ROUTER_SEED,
    );

    let mut rng = Rng::new(seed);
    let blocks = if reduced {
        1
    } else {
        blocks(seconds, BLOCK_SECONDS)
    };
    let mut ops = Vec::new();
    let (mut hits, mut misses, mut qv_hits) = (0, 0, 0);
    for _ in 0..blocks {
        let mut block: Vec<Op> = BLOCK
            .iter()
            .map(|&class| {
                let (input, emit) = match class {
                    "small-hit" => {
                        hits += 1;
                        (hot[(hits - 1) % hot.len()], false)
                    }
                    "small-miss" => {
                        misses += 1;
                        let seed = 1000 + misses as u64;
                        (
                            b.input(routed.0, routed.1, topology(on), basis(on), seed),
                            false,
                        )
                    }
                    "small-emit" => (emitted, true),
                    "qv12-hit" => {
                        qv_hits += 1;
                        (qv12_hot[qv_hits % qv12_hot.len()], false)
                    }
                    _ => (qv16_hot, false),
                };
                Op { input, emit, class }
            })
            .collect();
        rng.shuffle(&mut block);
        ops.extend(block);
    }
    Plan {
        inputs: b.inputs,
        warmup,
        ops,
    }
}

/// The shipped kiloqubit specs, passed as paths, with GHZ / QAOA / QFT
/// sized so each op stays within ~150 ms, plus one QV cell so the seed
/// reaches the counts. Measured costs form four clusters: QV-16 (~16 ms),
/// GHZ-600/GHZ-420 (~40 ms), the QAOA/QFT cells (~80–95 ms) and GHZ-1000
/// (~107 ms). The repetitions per pass (1 + 3 + 12 + 4 of 20) put p50 in
/// the middle of the QAOA/QFT cluster and p90 in the middle of GHZ-1000's.
fn kiloqubit_cli(seed: u64, seconds: u64, reduced: bool) -> Plan {
    const PASS_SECONDS: f64 = 1.25;
    const GRID: &str = "devices/grid_625.json";
    const CUBE: &str = "devices/hypercube_1024.json";
    const HEX: &str = "devices/ibm_heavy_hex_433.json";
    let cells: [(Workload, usize, &str, BasisGate, usize); 8] = [
        (Workload::QuantumVolume, 16, GRID, BasisGate::Syc, 1),
        (Workload::Ghz, 600, GRID, BasisGate::Syc, 2),
        (Workload::Ghz, 420, HEX, BasisGate::Cnot, 1),
        (Workload::QaoaVanilla, 48, GRID, BasisGate::Syc, 3),
        (Workload::Qft, 48, GRID, BasisGate::Syc, 3),
        (Workload::QaoaVanilla, 32, CUBE, BasisGate::SqrtISwap, 3),
        (Workload::Qft, 32, CUBE, BasisGate::SqrtISwap, 3),
        (Workload::Ghz, 1000, CUBE, BasisGate::SqrtISwap, 4),
    ];
    let mut b = InputSet::new(seed, 16);
    let mut pass = Vec::new();
    for (workload, n, spec, basis, reps) in cells {
        let class = match spec {
            GRID => "625q",
            CUBE => "1024q",
            _ => "433q",
        };
        let input = b.input(
            workload,
            n,
            DeviceArg::Spec(spec.to_string()),
            basis,
            DEFAULT_ROUTER_SEED,
        );
        let reps = if reduced { 1 } else { reps };
        pass.extend((0..reps).map(|_| Op {
            input,
            emit: false,
            class,
        }));
    }
    let mut rng = Rng::new(seed);
    let passes = if reduced {
        1
    } else {
        blocks(seconds, PASS_SECONDS)
    };
    Plan {
        ops: repeat_shuffled(&pass, passes, &mut rng),
        inputs: b.inputs,
        warmup: Vec::new(),
    }
}
