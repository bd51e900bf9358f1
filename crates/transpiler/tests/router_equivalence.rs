//! Bitwise router-equivalence suite.
//!
//! The PR-5 hot-path overhaul (CSR coupling graphs, incremental SABRE
//! scoring, parallel trials) must not change a single routed gate. This
//! suite freezes an FNV-1a digest of the full routed instruction stream —
//! gate variants, parameters and physical qubit operands, plus the final
//! layout — for every catalog topology in both a noise-blind and a
//! noise-aware (heterogeneous calibrated edges, `error_weight = 1`)
//! configuration, captured from the pre-overhaul router at commit 7cd796e.
//!
//! Any future change to candidate enumeration order, RNG draw order, or
//! floating-point summation order in the router trips these digests.
//!
//! Regenerate the tables (only when an *intentional* routing change lands)
//! with:
//!
//! ```text
//! SNAILQC_BLESS=1 cargo test -p snailqc-transpiler --test router_equivalence -- --nocapture
//! ```

mod frozen;

use frozen::{digest, route_cell, FROZEN};
use snailqc_sim::{verify_equivalent, Verdict, DENSE_VERIFY_MAX_QUBITS};
use snailqc_topology::catalog;
use snailqc_transpiler::{route_with_cache, LayoutStrategy, RouterConfig, RoutingCache};
use snailqc_workloads::Workload;

#[test]
fn routed_output_is_bitwise_identical_to_the_pre_overhaul_router() {
    let bless = std::env::var("SNAILQC_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false);
    assert_eq!(
        catalog::names().len(),
        FROZEN.len(),
        "catalog grew; re-bless"
    );
    if bless {
        println!("const FROZEN: [(&str, u64, u64); {}] = [", FROZEN.len());
    }
    for name in catalog::names() {
        let blind = digest(&route_cell(name, false));
        let aware = digest(&route_cell(name, true));
        if bless {
            println!("    (\"{name}\", {blind:#018x}, {aware:#018x}),");
            continue;
        }
        let (_, frozen_blind, frozen_aware) = FROZEN
            .iter()
            .find(|(n, _, _)| *n == name)
            .unwrap_or_else(|| panic!("{name} missing from FROZEN; re-bless"));
        assert_eq!(
            blind, *frozen_blind,
            "{name}: noise-blind routed output drifted from the frozen pre-overhaul router"
        );
        assert_eq!(
            aware, *frozen_aware,
            "{name}: noise-aware routed output drifted from the frozen pre-overhaul router"
        );
    }
    if bless {
        println!("];");
    }
}

/// Digest equality says the router's output hasn't *changed*; this test
/// says it is *correct*. Every noise-blind catalog cell is checked against
/// the source circuit with the sim crate's verification engine: devices
/// small enough for the dense engine must prove equivalence outright, and
/// the larger 84-qubit devices (QV is non-Clifford, so the stabilizer
/// engine cannot close them) must at least pass Pauli spot checks.
#[test]
fn frozen_cells_are_semantically_verified() {
    let circuit = Workload::QuantumVolume.generate(12, 7);
    for name in catalog::names() {
        let graph = catalog::by_name(name).unwrap();
        let routed = route_cell(name, false);
        let verdict = verify_equivalent(&circuit, &routed);
        if graph.num_qubits() <= DENSE_VERIFY_MAX_QUBITS {
            assert!(verdict.is_equivalent(), "{name}: {verdict}");
        } else {
            assert!(
                !matches!(verdict, Verdict::NotEquivalent(_)),
                "{name}: routed output refuted: {verdict}"
            );
        }
    }
}

/// On an 84-qubit device a routed *Clifford* QV circuit is provable
/// exactly: the stabilizer engine scales where dense simulation cannot.
#[test]
fn clifford_qv_is_exactly_verified_on_the_large_devices() {
    let circuit = snailqc_workloads::clifford_qv(12, 7, 7);
    for name in ["heavy-hex-84", "hypercube-84", "tree-rr-84"] {
        let graph = catalog::by_name(name).unwrap();
        let layout = LayoutStrategy::Dense.try_compute(&circuit, &graph).unwrap();
        let routed = route_with_cache(
            &circuit,
            &graph,
            &layout,
            &RouterConfig::default(),
            &RoutingCache::new(),
        );
        let verdict = verify_equivalent(&circuit, &routed);
        assert!(matches!(verdict, Verdict::Equivalent), "{name}: {verdict}");
    }
}

#[test]
fn tracing_enabled_routing_is_bitwise_identical_to_the_frozen_digests() {
    // The observability acceptance criterion: with spans and counters
    // recording, every catalog topology routes to the exact same frozen
    // digests as the uninstrumented baseline — instrumentation observes,
    // it never steers. (Skipped under SNAILQC_BLESS so blessing prints one
    // table.)
    if std::env::var("SNAILQC_BLESS")
        .map(|v| v == "1")
        .unwrap_or(false)
    {
        return;
    }
    let trace = snailqc_obs::Trace::default();
    let entered = trace.enter();
    for &(name, frozen_blind, frozen_aware) in &FROZEN {
        assert_eq!(
            digest(&route_cell(name, false)),
            frozen_blind,
            "{name}: noise-blind routed output drifted with tracing enabled"
        );
        assert_eq!(
            digest(&route_cell(name, true)),
            frozen_aware,
            "{name}: noise-aware routed output drifted with tracing enabled"
        );
    }
    // And the run really was recorded: trial spans and router counters.
    drop(entered);
    let spans = trace.finish().spans;
    assert!(
        spans.iter().any(|s| s.name == "router.trial"),
        "no router.trial spans recorded"
    );
    let snapshot = snailqc_obs::snapshot();
    let trials = snapshot.counter("router.trials_run").unwrap_or(0);
    let scored = snapshot
        .counter("router.swap_candidates_scored")
        .unwrap_or(0);
    assert!(trials >= 2 * FROZEN.len() as u64, "trials_run = {trials}");
    assert!(scored > 0, "swap_candidates_scored = {scored}");
}
