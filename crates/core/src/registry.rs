//! Name → device resolution across built-in catalog topologies and on-disk
//! device-spec files.
//!
//! The registry is how every `--device <file-or-name>` argument is resolved,
//! in one fixed order:
//!
//! 1. Anything that looks like a path (contains a separator, ends in
//!    `.json`, or names an existing file) loads that spec file.
//! 2. Built-in catalog names ([`catalog::by_name`], forgiving matching).
//! 3. Spec files in the search path: every directory in
//!    [`DEVICE_PATH_ENV`] (`SNAILQC_DEVICE_PATH`, platform path-separator
//!    delimited), then the shipped `./devices` directory. Within a
//!    directory, a file matches by file stem first, then by the spec's
//!    `name` field — both via [`names_match`].
//!
//! Built-ins win over files of the same name so a stray spec file can never
//! silently change what the frozen-digest benchmarks run on.
//!
//! [`DeviceRegistry::locate`] applies that order without building anything;
//! [`DeviceRegistry::resolve`] builds what it located.

use crate::device::Device;
use snailqc_devices::DeviceSpec;
use snailqc_topology::catalog;
use snailqc_util::names_match;
use std::path::{Path, PathBuf};

/// The environment variable naming extra spec directories, delimited by the
/// platform path separator (like `PATH`). Searched before `./devices`.
pub const DEVICE_PATH_ENV: &str = "SNAILQC_DEVICE_PATH";

/// Where a resolvable device comes from.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeviceSource {
    /// One of the built-in catalog topologies.
    Builtin,
    /// A device-spec JSON file.
    File(PathBuf),
}

/// Where a device's definition lives, found without building the device
/// (see [`DeviceRegistry::locate`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LocatedDevice {
    /// A built-in catalog topology, by canonical name.
    Catalog(&'static str),
    /// Device-spec JSON text, and the file it was read from (`None` for
    /// text that came from no file, such as an inline request object).
    Spec {
        /// The spec file, when there is one.
        path: Option<PathBuf>,
        /// The spec's JSON text.
        text: String,
    },
}

impl LocatedDevice {
    /// Builds the device; spec errors are prefixed with the file's path.
    pub fn build(&self) -> Result<Device, String> {
        match self {
            LocatedDevice::Catalog(name) => Device::from_catalog(name),
            LocatedDevice::Spec { path, text } => {
                Device::from_spec_str(text).map_err(|e| match path {
                    Some(path) => format!("device spec `{}`: {e}", path.display()),
                    None => e,
                })
            }
        }
    }
}

/// A named entry the registry can enumerate and resolve.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RegistryEntry {
    /// Canonical name: the catalog name, or the spec file's `name` field
    /// (falling back to the file stem when the file does not parse).
    pub name: String,
    /// Builtin, or the backing spec file.
    pub source: DeviceSource,
}

/// Resolves device names against the built-in catalog and a list of
/// spec-file directories.
#[derive(Debug, Clone)]
pub struct DeviceRegistry {
    dirs: Vec<PathBuf>,
}

impl DeviceRegistry {
    /// The default search path: `SNAILQC_DEVICE_PATH` directories (when
    /// set), then `./devices`.
    pub fn with_default_paths() -> Self {
        let mut dirs = Vec::new();
        if let Ok(path) = std::env::var(DEVICE_PATH_ENV) {
            dirs.extend(std::env::split_paths(&path).filter(|p| !p.as_os_str().is_empty()));
        }
        dirs.push(PathBuf::from("devices"));
        Self { dirs }
    }

    /// A registry over an explicit directory list (no environment input) —
    /// what tests use for hermetic resolution.
    pub fn with_paths(dirs: Vec<PathBuf>) -> Self {
        Self { dirs }
    }

    /// The directories this registry searches, in order.
    pub fn dirs(&self) -> &[PathBuf] {
        &self.dirs
    }

    /// Resolves a `--device` argument — a spec-file path, a built-in
    /// catalog name, or the name of a spec in the search path — into a
    /// ready [`Device`].
    pub fn resolve(&self, arg: &str) -> Result<Device, String> {
        self.locate(arg)?.build()
    }

    /// Finds where a `--device` argument's definition lives, in the order
    /// the module docs give, without building the device: the canonical
    /// catalog name, or the spec file's path and text.
    pub fn locate(&self, arg: &str) -> Result<LocatedDevice, String> {
        let path = if looks_like_path(arg) {
            PathBuf::from(arg)
        } else if let Some(name) = catalog::canonical_name(arg) {
            return Ok(LocatedDevice::Catalog(name));
        } else {
            self.find_spec(arg)
                .ok_or_else(|| self.unknown_device(arg))?
        };
        let text = std::fs::read_to_string(&path)
            .map_err(|e| format!("reading device spec `{}`: {e}", path.display()))?;
        Ok(LocatedDevice::Spec {
            path: Some(path),
            text,
        })
    }

    fn unknown_device(&self, arg: &str) -> String {
        let searched: Vec<String> = self.dirs.iter().map(|d| d.display().to_string()).collect();
        format!(
            "unknown device `{arg}`; built-ins: {}; spec directories searched: {}",
            catalog::names().join(", "),
            if searched.is_empty() {
                "(none)".to_string()
            } else {
                searched.join(", ")
            }
        )
    }

    /// Finds the spec file a bare name refers to, without building the
    /// device: file stems match first (cheap), then spec `name` fields.
    pub fn find_spec(&self, name: &str) -> Option<PathBuf> {
        for dir in &self.dirs {
            let files = spec_files(dir);
            for file in &files {
                let stem = file.file_stem().and_then(|s| s.to_str()).unwrap_or("");
                if names_match(stem, name) {
                    return Some(file.clone());
                }
            }
            for file in &files {
                if let Some(spec) = read_spec(file) {
                    if names_match(&spec.name, name) {
                        return Some(file.clone());
                    }
                }
            }
        }
        None
    }

    /// Everything this registry can resolve by name: the built-in catalog,
    /// then every `.json` file in the search path (sorted per directory).
    /// Files that fail to parse still appear (named by file stem) so
    /// listings surface them instead of hiding them.
    pub fn entries(&self) -> Vec<RegistryEntry> {
        let mut out: Vec<RegistryEntry> = catalog::names()
            .into_iter()
            .map(|name| RegistryEntry {
                name: name.to_string(),
                source: DeviceSource::Builtin,
            })
            .collect();
        for dir in &self.dirs {
            for file in spec_files(dir) {
                let name = read_spec(&file).map(|s| s.name).unwrap_or_else(|| {
                    file.file_stem()
                        .and_then(|s| s.to_str())
                        .unwrap_or("?")
                        .to_string()
                });
                out.push(RegistryEntry {
                    name,
                    source: DeviceSource::File(file),
                });
            }
        }
        out
    }
}

/// A `--device` argument that should be treated as a file path rather than
/// a registry name (mirrors `ErrorModelSpec::parse`'s heuristic).
fn looks_like_path(arg: &str) -> bool {
    arg.contains(std::path::MAIN_SEPARATOR)
        || arg.contains('/')
        || arg.ends_with(".json")
        || Path::new(arg).is_file()
}

/// The sorted `.json` files directly inside `dir` (empty when the
/// directory does not exist — an unset search path is not an error).
fn spec_files(dir: &Path) -> Vec<PathBuf> {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return Vec::new();
    };
    let mut files: Vec<PathBuf> = entries
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.is_file() && p.extension().is_some_and(|x| x == "json"))
        .collect();
    files.sort();
    files
}

fn read_spec(path: &Path) -> Option<DeviceSpec> {
    let text = std::fs::read_to_string(path).ok()?;
    DeviceSpec::parse(&text).ok()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::fs;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!(
            "snailqc-registry-{tag}-{}-{:?}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn write_spec(dir: &Path, file: &str, name: &str) -> PathBuf {
        let path = dir.join(file);
        fs::write(
            &path,
            format!(
                r#"{{"snailqc_device": 1, "name": "{name}",
                    "topology": {{"generator": "ring", "params": {{"qubits": 6}}}}}}"#
            ),
        )
        .unwrap();
        path
    }

    #[test]
    fn builtins_resolve_before_files() {
        let dir = temp_dir("builtin-priority");
        // A spec file shadowing a catalog name must lose to the builtin.
        write_spec(&dir, "corral11-16.json", "corral11-16");
        let registry = DeviceRegistry::with_paths(vec![dir.clone()]);
        let device = registry.resolve("corral11-16").expect("resolves");
        assert_eq!(device.label(), "Corral1,1-16", "builtin label expected");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn files_resolve_by_stem_and_by_spec_name() {
        let dir = temp_dir("by-name");
        write_spec(&dir, "ring6.json", "my_ring_six");
        let registry = DeviceRegistry::with_paths(vec![dir.clone()]);
        // By file stem (forgiving).
        assert_eq!(registry.resolve("Ring-6").expect("stem").num_qubits(), 6);
        // By the spec's `name` field (forgiving).
        assert_eq!(
            registry.resolve("My Ring Six").expect("name").num_qubits(),
            6
        );
        // Unknown names report both sources.
        let err = registry.resolve("nope").expect_err("unknown");
        assert!(err.contains("built-ins"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn paths_load_directly_and_entries_list_both_sources() {
        let dir = temp_dir("entries");
        let path = write_spec(&dir, "ring6.json", "ring_six");
        let registry = DeviceRegistry::with_paths(vec![dir.clone()]);
        let device = registry
            .resolve(path.to_str().unwrap())
            .expect("path resolves");
        assert_eq!(device.num_qubits(), 6);

        let entries = registry.entries();
        assert!(entries
            .iter()
            .any(|e| e.name == "corral11-16" && e.source == DeviceSource::Builtin));
        assert!(entries
            .iter()
            .any(|e| e.name == "ring_six" && e.source == DeviceSource::File(path.clone())));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn missing_directories_are_not_an_error() {
        let registry =
            DeviceRegistry::with_paths(vec![PathBuf::from("/no/such/dir/anywhere-snailqc")]);
        assert!(registry.resolve("tree-20").is_ok(), "builtins still work");
        assert!(registry.find_spec("anything").is_none());
    }
}
