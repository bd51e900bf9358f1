//! The shipped `devices/` catalog: every spec file loads end-to-end, has
//! the advertised size and stays connected; the registry resolves the specs
//! by (forgiving) name alongside the built-ins; and `SNAILQC_DEVICE_PATH`
//! prepends extra search directories.

use snailqc::core::device::Device;
use snailqc::core::registry::{DeviceRegistry, DeviceSource, DEVICE_PATH_ENV};
use snailqc::decompose::BasisGate;
use std::path::PathBuf;

fn devices_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("devices")
}

/// `(file, qubits)` for every spec shipped in `devices/` — exhaustive, so
/// adding a spec without updating the expectations here fails loudly.
const SHIPPED: [(&str, usize); 9] = [
    ("grid_100.json", 100),
    ("grid_256.json", 256),
    ("grid_625.json", 625),
    ("hypercube_1024.json", 1024),
    ("ibm_heavy_hex_127.json", 127),
    ("ibm_heavy_hex_133.json", 133),
    ("ibm_heavy_hex_433.json", 433),
    ("ion_trap_32.json", 32),
    ("sycamore_53.json", 53),
];

#[test]
fn every_shipped_spec_loads_connected_at_the_advertised_size() {
    let dir = devices_dir();
    let mut on_disk: Vec<String> = std::fs::read_dir(&dir)
        .expect("devices/ ships with the repo")
        .filter_map(|e| e.ok())
        .filter_map(|e| e.file_name().into_string().ok())
        .filter(|n| n.ends_with(".json"))
        .collect();
    on_disk.sort();
    let expected: Vec<String> = SHIPPED.iter().map(|(f, _)| f.to_string()).collect();
    assert_eq!(on_disk, expected, "SHIPPED expectations are exhaustive");

    for (file, qubits) in SHIPPED {
        let device =
            Device::from_spec_file(dir.join(file)).unwrap_or_else(|e| panic!("{file}: {e}"));
        assert_eq!(device.num_qubits(), qubits, "{file}");
        assert!(device.graph().is_connected(), "{file} must be connected");
    }
}

#[test]
fn shipped_specs_pin_the_expected_native_bases() {
    let dir = devices_dir();
    let basis = |file: &str| Device::from_spec_file(dir.join(file)).unwrap().basis();
    assert_eq!(basis("ibm_heavy_hex_127.json"), Some(BasisGate::Cnot));
    assert_eq!(basis("ibm_heavy_hex_433.json"), Some(BasisGate::Cnot));
    assert_eq!(basis("sycamore_53.json"), Some(BasisGate::Syc));
    assert_eq!(basis("hypercube_1024.json"), Some(BasisGate::SqrtISwap));
    assert_eq!(basis("ion_trap_32.json"), None);
}

#[test]
fn registry_resolves_shipped_names_forgivingly_alongside_builtins() {
    let registry = DeviceRegistry::with_paths(vec![devices_dir()]);
    for name in [
        "ibm_heavy_hex_127",
        "IBM-Heavy-Hex-127",
        "Sycamore 53",
        "ion-trap-32",
        "hypercube_1024",
        "tree-20", // builtins keep resolving through the same registry
    ] {
        let device = registry
            .resolve(name)
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        assert!(device.num_qubits() > 0, "{name}");
    }
    let entries = registry.entries();
    let files = entries
        .iter()
        .filter(|e| matches!(e.source, DeviceSource::File(_)))
        .count();
    assert_eq!(files, SHIPPED.len(), "one entry per shipped spec");
    assert!(
        entries.iter().any(|e| e.source == DeviceSource::Builtin),
        "builtins are listed too"
    );
    // The README is not a spec and must not appear.
    assert!(entries.iter().all(|e| e.name != "README"));
}

#[test]
fn device_path_env_prepends_search_directories() {
    // `with_default_paths` reads the env var at construction; serialize this
    // test's env mutation by doing everything before any assertion on other
    // registries (no other test in this binary touches the variable).
    std::env::set_var(DEVICE_PATH_ENV, devices_dir());
    let registry = DeviceRegistry::with_default_paths();
    std::env::remove_var(DEVICE_PATH_ENV);
    assert_eq!(registry.dirs().len(), 2, "env dir + ./devices fallback");
    let device = registry
        .resolve("sycamore_53")
        .expect("resolves via env dir");
    assert_eq!(device.num_qubits(), 53);
}

#[test]
fn ion_trap_routing_is_a_no_op() {
    let device = Device::from_spec_file(devices_dir().join("ion_trap_32.json")).unwrap();
    let circuit = snailqc::workloads::Workload::QuantumVolume.generate(12, 7);
    let pipeline = snailqc::transpiler::Pipeline::builder().seed(11).build();
    let result = device.try_transpile(&circuit, &pipeline).unwrap();
    assert_eq!(
        result.report.swap_count, 0,
        "all-to-all connectivity needs no SWAPs"
    );
}
