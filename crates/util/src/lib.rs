//! # snailqc-util
//!
//! Tiny helpers shared across the workspace.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// The largest qubit count the workspace accepts anywhere: 65,535. The
/// `u16` hop rows of `snailqc-topology` set it (the longest possible hop
/// count, `n − 1` on a line, must stay below their `u16::MAX` unreachable
/// sentinel); device specs and QASM registers are capped at the same size,
/// since no program can be larger than the device it runs on.
pub const MAX_QUBITS: usize = u16::MAX as usize;

/// Normalizes a user-facing name for forgiving matching: lowercases and
/// strips every non-alphanumeric character, so `corral11-16`, `Corral1,1-16`
/// and `CORRAL_1_1_16` all compare equal. Used by the topology catalog, the
/// workload registry and the CLI's `--basis` matcher.
pub fn normalize_name(name: &str) -> String {
    name.chars()
        .filter(char::is_ascii_alphanumeric)
        .map(|c| c.to_ascii_lowercase())
        .collect()
}

/// True when two user-facing names match after [`normalize_name`]
/// canonicalization — the single forgiving-name rule shared by the CLI's
/// `--topology`/`--device`/`--basis` flags, `catalog::by_name`, the device
/// registry and the serve daemon's warm-pool keys.
pub fn names_match(a: &str, b: &str) -> bool {
    normalize_name(a) == normalize_name(b)
}

/// 64-bit FNV-1a hash. Stable across platforms and releases, so it is safe
/// to derive persistent cache keys and per-file RNG seeds from it (unlike
/// `std::hash`, whose output is unspecified between runs).
pub fn fnv1a_64(bytes: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    bytes.iter().fold(OFFSET, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(PRIME)
    })
}

#[cfg(test)]
mod tests {
    use super::{fnv1a_64, names_match, normalize_name};

    #[test]
    fn strips_case_and_punctuation() {
        assert_eq!(normalize_name("Corral1,1-16"), "corral1116");
        assert_eq!(normalize_name("CORRAL_1_1_16"), "corral1116");
        assert_eq!(normalize_name("sqrt-iswap"), "sqrtiswap");
        assert_eq!(normalize_name(""), "");
    }

    #[test]
    fn names_match_is_forgiving_both_ways() {
        assert!(names_match("Heavy-Hex_127", "heavyhex127"));
        assert!(names_match("ibm_heavy_hex_127", "IBM Heavy Hex 127"));
        assert!(!names_match("grid-100", "grid-256"));
    }

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Published FNV-1a test vectors.
        assert_eq!(fnv1a_64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a_64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a_64(b"foobar"), 0x8594_4171_f739_67e8);
        // Distinct inputs hash apart (the property the seeds rely on).
        assert_ne!(fnv1a_64(b"adder12.qasm"), fnv1a_64(b"adder16.qasm"));
    }
}
