//! Persistent sweep-result store: JSON-lines cache of transpiled cells.
//!
//! Routing is by far the most expensive stage of a sweep, and the bench
//! binaries re-run the same (workload, size, device, seed) cells on every
//! invocation. A [`SweepStore`] persists each cell — its [`TranspileReport`]
//! and, for a source-submitted transpile, the digests of the routed and
//! translated circuits ([`CachedCell`]) — as
//! one JSON line keyed by everything that determines it — workload, size,
//! device label, basis, seed, error weight, routing trials, and a digest of
//! the device's per-edge calibration — so repeated runs replay cached cells
//! instead of re-routing (the ROADMAP's sweep-store item). The file format
//! is append-friendly plain JSON-lines under `target/paper-results/` and
//! corrupt lines are skipped — but counted and surfaced via
//! [`SweepStore::skipped_corrupt`] — so a killed run never poisons the
//! cache and never hides that it damaged it either.
//!
//! Wire the store into a sweep with
//! [`run_sweep_with_store`](crate::sweep::run_sweep_with_store).

use crate::device::Device;
use crate::sweep::SweepConfig;
use snailqc_decompose::BasisGate;
use snailqc_obs as obs;
use snailqc_transpiler::{Pipeline, TranspileReport};
use snailqc_workloads::Workload;
use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// One replayable transpile outcome: the report plus the digests of the
/// circuits it stands for. The `snailqc serve` memory cache and a store line
/// hold the same thing, so a replay answers exactly what the cold run did.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedCell {
    /// The transpile report.
    pub report: TranspileReport,
    /// Digest of the routed circuit; `None` for a sweep cell, which keeps
    /// no circuit.
    pub routed_digest: Option<String>,
    /// Digest of the basis-translated circuit; `None` without a basis or
    /// for a sweep cell.
    pub basis_digest: Option<String>,
}

impl From<TranspileReport> for CachedCell {
    /// A sweep cell: a report with no circuit digests.
    fn from(report: TranspileReport) -> Self {
        Self {
            report,
            routed_digest: None,
            basis_digest: None,
        }
    }
}

/// A keyed, file-backed cache of sweep-cell reports.
///
/// Multiple handles — across threads or processes — may share one backing
/// file: [`SweepStore::flush`] only *appends* the entries inserted through
/// this handle (under an advisory file lock), so concurrent writers never
/// clobber each other's cells. Duplicate keys are resolved last-line-wins at
/// load time.
#[derive(Debug)]
pub struct SweepStore {
    path: PathBuf,
    entries: BTreeMap<String, CachedCell>,
    /// Keys inserted through this handle that [`SweepStore::flush`] has not
    /// yet appended to the backing file.
    pending: BTreeSet<String>,
    /// Cells answered from the cache since opening.
    hits: usize,
    /// Lookups not answered from the cache since opening.
    misses: usize,
    /// New cells inserted since opening (pending and flushed).
    inserted: usize,
    /// Non-empty lines the loader could not parse and skipped.
    skipped_corrupt: usize,
}

/// RAII advisory lock serializing store-file access between cooperating
/// processes. The lock lives on a `<store>.lock` sidecar file and is
/// released on drop — or by the OS if the holder dies, so a killed run never
/// wedges the store.
#[derive(Debug)]
struct StoreLock {
    #[allow(dead_code)] // held for its flock; dropped to release
    file: fs::File,
}

impl StoreLock {
    /// Path of the sidecar lock file guarding `store_path`.
    fn lock_path(store_path: &Path) -> PathBuf {
        let mut name = store_path
            .file_name()
            .map(|n| n.to_os_string())
            .unwrap_or_else(|| "store".into());
        name.push(".lock");
        store_path.with_file_name(name)
    }

    /// Blocks until the exclusive advisory lock is held.
    fn exclusive(store_path: &Path) -> std::io::Result<Self> {
        let file = fs::OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(Self::lock_path(store_path))?;
        flock_exclusive(&file)?;
        Ok(Self { file })
    }
}

/// `flock(2)` via the C library std already links — the vendored-workspace
/// equivalent of the `libc` crate call. Advisory, whole-file, exclusive;
/// auto-released when the file description closes (including on crash).
#[cfg(unix)]
fn flock_exclusive(file: &fs::File) -> std::io::Result<()> {
    use std::os::unix::io::AsRawFd;
    const LOCK_EX: i32 = 2;
    extern "C" {
        fn flock(fd: i32, operation: i32) -> i32;
    }
    loop {
        // SAFETY: flock is async-signal-safe and `fd` is a live descriptor
        // owned by `file` for the duration of the call.
        let rc = unsafe { flock(file.as_raw_fd(), LOCK_EX) };
        if rc == 0 {
            return Ok(());
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
}

/// Non-unix fallback: no advisory locking (single-process use only there).
#[cfg(not(unix))]
fn flock_exclusive(_file: &fs::File) -> std::io::Result<()> {
    Ok(())
}

impl SweepStore {
    /// Opens the store at `path`, loading any existing entries. A missing
    /// file is an empty store; unparseable lines are skipped and counted
    /// in [`SweepStore::skipped_corrupt`].
    pub fn open(path: impl Into<PathBuf>) -> Self {
        let path = path.into();
        let mut entries = BTreeMap::new();
        let mut skipped_corrupt = 0usize;
        // Read under the advisory lock so a concurrent appender's half-
        // written tail line is never mistaken for corruption. A failed lock
        // (exotic filesystems) degrades to the old unlocked read.
        let lock = StoreLock::exclusive(&path).ok();
        if let Ok(text) = fs::read_to_string(&path) {
            for line in text.lines() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                // Later lines win: concurrent appenders may both have
                // written the same key, and the newest report is the one an
                // uncached run would produce today.
                if let Some((key, cell)) = parse_line(line) {
                    entries.insert(key, cell);
                } else {
                    skipped_corrupt += 1;
                }
            }
        }
        drop(lock);
        obs::counter_add("sweep_store.skipped_corrupt", skipped_corrupt as u64);
        Self {
            path,
            entries,
            pending: BTreeSet::new(),
            hits: 0,
            misses: 0,
            inserted: 0,
            skipped_corrupt,
        }
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Number of cached cells.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the store holds no cells.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Cells answered from the cache since opening.
    pub fn hits(&self) -> usize {
        self.hits
    }

    /// Lookups that were not in the cache since opening.
    pub fn misses(&self) -> usize {
        self.misses
    }

    /// New cells inserted since opening.
    pub fn inserted(&self) -> usize {
        self.inserted
    }

    /// Non-empty lines the loader could not parse when opening. A non-zero
    /// value means the backing file was partially corrupted (e.g. a killed
    /// run mid-append) and those cells will be re-routed and re-written.
    pub fn skipped_corrupt(&self) -> usize {
        self.skipped_corrupt
    }

    /// Looks up a cell, counting a hit when present and a miss otherwise.
    pub fn get(&mut self, key: &str) -> Option<CachedCell> {
        let cell = self.entries.get(key).cloned();
        if cell.is_some() {
            self.hits += 1;
            obs::counter_add("sweep_store.hits", 1);
        } else {
            self.misses += 1;
            obs::counter_add("sweep_store.misses", 1);
        }
        cell
    }

    /// Inserts (or replaces) a cell; the entry is appended to the backing
    /// file on the next [`SweepStore::flush`].
    pub fn insert(&mut self, key: String, cell: CachedCell) {
        self.pending.insert(key.clone());
        self.entries.insert(key, cell);
        self.inserted += 1;
    }

    /// Renders one `{"key": …, "report": …, "routed_digest": …,
    /// "basis_digest": …}` store line (no newline).
    fn render_line(key: &str, cell: &CachedCell) -> std::io::Result<String> {
        let digest =
            |d: &Option<String>| d.clone().map_or(serde::Value::Null, serde::Value::String);
        let line = serde::Value::Object(vec![
            ("key".into(), serde::Value::String(key.to_string())),
            ("report".into(), serde_json::to_value(&cell.report)),
            ("routed_digest".into(), digest(&cell.routed_digest)),
            ("basis_digest".into(), digest(&cell.basis_digest)),
        ]);
        serde_json::to_string(&line).map_err(std::io::Error::other)
    }

    /// Appends every entry inserted since the last flush to the backing
    /// file (one JSON line each, key-sorted), creating parent directories as
    /// needed. A no-op when nothing is pending, so warm replay runs never
    /// touch the file.
    ///
    /// The append happens in `O_APPEND` mode under an advisory file lock, so
    /// any number of handles — in this process or others — can share one
    /// store file without losing each other's entries. (The old
    /// implementation rewrote the whole file from this handle's in-memory
    /// map, silently dropping every cell another process had appended since
    /// this handle opened.)
    pub fn flush(&mut self) -> std::io::Result<()> {
        if self.pending.is_empty() {
            return Ok(());
        }
        if let Some(parent) = self.path.parent() {
            fs::create_dir_all(parent)?;
        }
        let mut out = Vec::new();
        for key in &self.pending {
            let cell = self.entries.get(key).expect("pending keys are entries");
            writeln!(out, "{}", Self::render_line(key, cell)?)?;
        }
        let lock = StoreLock::exclusive(&self.path)?;
        let mut file = fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        file.write_all(&out)?;
        drop(file);
        drop(lock);
        self.pending.clear();
        Ok(())
    }
}

/// Cache-key schema / algorithm fingerprint. The crate version is mixed into
/// every key so cells cached by an older build are never replayed after a
/// release that may have changed the router or translation counting; bump
/// the `v*` tag to force invalidation within a release. (`v2` added the
/// structural `geom=` digest so file-backed devices that merely share a
/// label cannot alias each other's cells; `v3` marks the lines that persist
/// the circuit digests, so no digest-less row is ever replayed.)
const KEY_VERSION: &str = concat!("v3-", env!("CARGO_PKG_VERSION"));

/// The cache key of one sweep cell: everything that determines its report,
/// plus the private `KEY_VERSION` code-version fingerprint.
pub fn cell_key(workload: Workload, size: usize, device: &Device, config: &SweepConfig) -> String {
    format!(
        "{KEY_VERSION}|{:?}|{}|{}|{:?}|seed={}|trials={}|ew={:?}|noise={:016x}|geom={:016x}",
        workload,
        size,
        device.label(),
        device.basis(),
        config.seed,
        config.routing_trials,
        config.error_weight,
        device.noise_digest(),
        device.structure_digest(),
    )
}

/// The cache key of one source-submitted transpile: everything that
/// determines its report — the QASM source *contents* (so edits
/// invalidate), the effective router seed, the device (label, basis,
/// calibration digest, coupling-structure digest) and the pipeline
/// configuration (layout, trials,
/// error weight) — plus the `KEY_VERSION` code-version fingerprint.
///
/// This is the single key schema shared by the batch CLI
/// (`snailqc transpile <dir> --store …`) and the `snailqc serve` daemon, so
/// a file transpiled in batch and the same source submitted to the daemon
/// with the same seed and configuration hit the same store entry. (The batch
/// CLI used to format its own `batch-v1|…` key, which — unlike
/// [`cell_key`] — omitted the crate-version fingerprint, so cells cached by
/// an older build could be replayed after a router-changing release; routing
/// that key through here closes that hole too.)
pub fn source_cell_key(source: &str, seed: u64, device: &Device, pipeline: &Pipeline) -> String {
    format!(
        "{KEY_VERSION}|src={:016x}|{}|{:?}|layout={:?}|seed={}|trials={}|ew={:?}|noise={:016x}|geom={:016x}",
        snailqc_util::fnv1a_64(source.as_bytes()),
        device.label(),
        device.basis(),
        pipeline.layout(),
        seed,
        pipeline.router().trials,
        pipeline.router().error_weight,
        device.noise_digest(),
        device.structure_digest(),
    )
}

/// Parses one stored JSON line back into `(key, cell)`. Returns `None`
/// (skipping the line) on any structural mismatch.
fn parse_line(line: &str) -> Option<(String, CachedCell)> {
    let value = serde_json::from_str(line).ok()?;
    let key = value.get("key")?.as_str()?.to_string();
    let digest = |name: &str| match value.get(name) {
        None | Some(serde::Value::Null) => Some(None),
        Some(digest) => digest.as_str().map(|d| Some(d.to_string())),
    };
    let (routed_digest, basis_digest) = (digest("routed_digest")?, digest("basis_digest")?);
    let report = value.get("report")?;
    let field = |name: &str| report.get(name)?.as_f64();
    let count = |name: &str| field(name).map(|v| v as usize);
    let basis = match report.get("basis")? {
        serde::Value::Null => None,
        value => Some(basis_from_variant(value.as_str()?)?),
    };
    let report = TranspileReport {
        logical_qubits: count("logical_qubits")?,
        physical_qubits: count("physical_qubits")?,
        input_two_qubit_gates: count("input_two_qubit_gates")?,
        swap_count: count("swap_count")?,
        swap_depth: count("swap_depth")?,
        routed_two_qubit_gates: count("routed_two_qubit_gates")?,
        routed_two_qubit_depth: count("routed_two_qubit_depth")?,
        basis,
        basis_gate_count: count("basis_gate_count")?,
        basis_gate_depth: count("basis_gate_depth")?,
        error_weight: field("error_weight")?,
        routed_edge_log_fidelity: field("routed_edge_log_fidelity")?,
        basis_edge_log_fidelity: field("basis_edge_log_fidelity")?,
    };
    Some((
        key,
        CachedCell {
            report,
            routed_digest,
            basis_digest,
        },
    ))
}

/// Inverse of the derive(Serialize) unit-variant encoding of [`BasisGate`].
fn basis_from_variant(name: &str) -> Option<BasisGate> {
    match name {
        "Cnot" => Some(BasisGate::Cnot),
        "SqrtISwap" => Some(BasisGate::SqrtISwap),
        "Syc" => Some(BasisGate::Syc),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use snailqc_transpiler::Pipeline;

    /// A fresh temp directory holding one test's store file and its
    /// `.lock` sidecar, removed with both on drop.
    struct TempStore(PathBuf);

    impl TempStore {
        fn new(name: &str) -> Self {
            let dir =
                std::env::temp_dir().join(format!("snailqc-store-{name}-{}", std::process::id()));
            let _ = fs::remove_dir_all(&dir);
            fs::create_dir_all(&dir).unwrap();
            Self(dir)
        }

        fn path(&self) -> PathBuf {
            self.0.join("store.jsonl")
        }
    }

    impl Drop for TempStore {
        fn drop(&mut self) {
            let _ = fs::remove_dir_all(&self.0);
        }
    }

    fn sample_report(basis: Option<BasisGate>) -> TranspileReport {
        let circuit = snailqc_workloads::qft(8, true);
        let mut device = Device::from_catalog("hypercube-16").unwrap();
        if let Some(basis) = basis {
            device = device.with_basis(basis);
        }
        device
            .try_transpile(&circuit, &Pipeline::default())
            .unwrap()
            .report
    }

    #[test]
    fn reports_round_trip_through_the_file_bitwise() {
        let tmp = TempStore::new("roundtrip");
        let path = tmp.path();
        let mut store = SweepStore::open(&path);
        let with_basis = sample_report(Some(BasisGate::SqrtISwap));
        let routed_only = sample_report(None);
        store.insert("a".into(), with_basis.into());
        store.insert("b".into(), routed_only.into());
        store.flush().unwrap();

        let mut reopened = SweepStore::open(&path);
        assert_eq!(reopened.len(), 2);
        assert_eq!(reopened.get("a"), Some(with_basis.into()));
        assert_eq!(reopened.get("b"), Some(routed_only.into()));
        assert_eq!(reopened.hits(), 2);
        assert_eq!(reopened.get("missing"), None);
    }

    #[test]
    fn a_store_line_round_trips_both_digests() {
        let tmp = TempStore::new("digests");
        let path = tmp.path();
        let translated = CachedCell {
            report: sample_report(Some(BasisGate::SqrtISwap)),
            routed_digest: Some("0123456789abcdef".into()),
            basis_digest: Some("fedcba9876543210".into()),
        };
        let routed_only = CachedCell {
            report: sample_report(None),
            routed_digest: Some("00000000deadbeef".into()),
            basis_digest: None,
        };
        let mut store = SweepStore::open(&path);
        store.insert("translated".into(), translated.clone());
        store.insert("routed".into(), routed_only.clone());
        store.flush().unwrap();

        let mut reopened = SweepStore::open(&path);
        assert_eq!(reopened.skipped_corrupt(), 0);
        assert_eq!(reopened.get("translated"), Some(translated));
        assert_eq!(reopened.get("routed"), Some(routed_only));
        // A digest that is not a string makes the line corrupt, not a cell
        // without digests.
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str(
            &text
                .lines()
                .next()
                .unwrap()
                .replace("\"routed_digest\":\"", "\"routed_digest\":7,\"x\":\""),
        );
        text.push('\n');
        fs::write(&path, text).unwrap();
        assert_eq!(SweepStore::open(&path).skipped_corrupt(), 1);
    }

    #[test]
    fn corrupt_lines_are_skipped_not_fatal() {
        let tmp = TempStore::new("corrupt");
        let path = tmp.path();
        let mut store = SweepStore::open(&path);
        store.insert("good".into(), sample_report(None).into());
        store.flush().unwrap();
        let mut text = fs::read_to_string(&path).unwrap();
        text.push_str("not json at all\n{\"key\": \"half\"}\n");
        fs::write(&path, text).unwrap();

        let reopened = SweepStore::open(&path);
        assert_eq!(reopened.len(), 1);
        // Both bad lines ("not json at all" and the report-less object) are
        // counted, not silently dropped.
        assert_eq!(reopened.skipped_corrupt(), 2);
    }

    #[test]
    fn hits_and_misses_are_counted_separately() {
        let tmp = TempStore::new("hit-miss");
        let path = tmp.path();
        let mut store = SweepStore::open(&path);
        store.insert("present".into(), sample_report(None).into());
        assert!(store.get("present").is_some());
        assert!(store.get("absent").is_none());
        assert!(store.get("also-absent").is_none());
        assert_eq!(store.hits(), 1);
        assert_eq!(store.misses(), 2);
        assert_eq!(store.skipped_corrupt(), 0);
    }

    #[test]
    fn interleaved_two_handle_flushes_lose_no_entries() {
        // The PR-7 lost-update regression: two handles on one file (batch
        // CLI + bench then; daemon + CLI now) both insert, both flush. The
        // old rewrite-everything flush made whichever flushed last erase the
        // other's cells.
        let tmp = TempStore::new("interleaved");
        let path = tmp.path();
        let report = sample_report(None);
        let mut a = SweepStore::open(&path);
        let mut b = SweepStore::open(&path);
        a.insert("from-a".into(), report.into());
        b.insert("from-b".into(), report.into());
        a.flush().unwrap();
        b.flush().unwrap();
        let reopened = SweepStore::open(&path);
        assert_eq!(reopened.len(), 2, "one handle's flush erased the other's");
    }

    #[test]
    fn concurrent_appenders_lose_no_entries() {
        let tmp = TempStore::new("concurrent");
        let path = tmp.path();
        let report = sample_report(None);
        std::thread::scope(|scope| {
            for writer in 0..4 {
                let path = path.clone();
                scope.spawn(move || {
                    let mut store = SweepStore::open(&path);
                    for i in 0..8 {
                        store.insert(format!("w{writer}-cell{i}"), report.into());
                        // Flush per insert to maximize interleaving.
                        store.flush().unwrap();
                    }
                });
            }
        });
        let reopened = SweepStore::open(&path);
        assert_eq!(reopened.len(), 32);
        assert_eq!(reopened.skipped_corrupt(), 0);
    }

    #[test]
    fn repeated_flushes_append_only_pending_entries() {
        let tmp = TempStore::new("append-once");
        let path = tmp.path();
        let report = sample_report(None);
        let mut store = SweepStore::open(&path);
        store.insert("first".into(), report.into());
        store.flush().unwrap();
        let after_first = fs::read_to_string(&path).unwrap();
        // A second flush with nothing pending must not touch the file; a
        // flush after one more insert must append exactly one line.
        store.flush().unwrap();
        assert_eq!(fs::read_to_string(&path).unwrap(), after_first);
        store.insert("second".into(), report.into());
        store.flush().unwrap();
        let after_second = fs::read_to_string(&path).unwrap();
        assert!(after_second.starts_with(&after_first));
        assert_eq!(after_second.lines().count(), 2);
    }

    #[test]
    fn source_cell_keys_separate_every_axis_and_carry_the_version() {
        let device = Device::from_catalog("tree-20").unwrap();
        let pipeline = Pipeline::default();
        let base = source_cell_key("OPENQASM 2.0;", 7, &device, &pipeline);
        assert!(base.starts_with(KEY_VERSION), "{base}");
        assert_ne!(
            base,
            source_cell_key("OPENQASM 3.0;", 7, &device, &pipeline)
        );
        assert_ne!(
            base,
            source_cell_key("OPENQASM 2.0;", 8, &device, &pipeline)
        );
        assert_ne!(
            base,
            source_cell_key(
                "OPENQASM 2.0;",
                7,
                &device.clone().with_basis(BasisGate::SqrtISwap),
                &pipeline
            )
        );
        let retried = Pipeline::builder().trials(9).build();
        assert_ne!(base, source_cell_key("OPENQASM 2.0;", 7, &device, &retried));
    }

    #[test]
    fn missing_file_opens_empty() {
        let tmp = TempStore::new("never-created");
        let store = SweepStore::open(tmp.path());
        assert!(store.is_empty());
        assert_eq!(store.hits(), 0);
    }

    #[test]
    fn cell_keys_separate_every_axis() {
        let config = SweepConfig::smoke();
        let tree = Device::from_catalog("tree-20").unwrap();
        let base = cell_key(Workload::Qft, 8, &tree, &config);
        // Different workload, size, device, basis, seed, or calibration ⇒
        // different key.
        assert_ne!(base, cell_key(Workload::Ghz, 8, &tree, &config));
        assert_ne!(base, cell_key(Workload::Qft, 10, &tree, &config));
        assert_ne!(
            base,
            cell_key(
                Workload::Qft,
                8,
                &Device::from_catalog("tree-84").unwrap(),
                &config
            )
        );
        assert_ne!(
            base,
            cell_key(
                Workload::Qft,
                8,
                &tree.clone().with_basis(BasisGate::SqrtISwap),
                &config
            )
        );
        assert_ne!(
            base,
            cell_key(
                Workload::Qft,
                8,
                &tree,
                &SweepConfig {
                    seed: config.seed + 1,
                    ..config.clone()
                }
            )
        );
        let recalibrated = tree
            .clone()
            .with_error_model(crate::noise::ErrorModelSpec::preset("calibrated").unwrap())
            .unwrap();
        assert_ne!(base, cell_key(Workload::Qft, 8, &recalibrated, &config));
    }
}
