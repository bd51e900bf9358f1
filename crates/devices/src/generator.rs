//! Parameterized topology generators: the spec-file face of the
//! `builders::*` family.
//!
//! A spec's `"topology": {"generator": ..., "params": {...}}` block resolves
//! to a [`GeneratorSpec`], which validates its parameters up front (so the
//! builders' internal `assert!`s can never fire on user input) and then
//! builds the graph through the exact same code path the built-in catalog
//! uses — which is what makes spec-built devices bitwise-identical to their
//! builder-built twins.

use serde::Value;
use snailqc_topology::{builders, CouplingGraph, MAX_QUBITS};

/// All-to-all graphs get a tighter cap: edge count grows quadratically, and
/// real trapped-ion modules are far below this.
pub const MAX_COMPLETE_QUBITS: usize = 1_024;

/// Deepest supported 4-ary tree (level 6 is already 21 844 qubits).
pub const MAX_TREE_LEVELS: usize = 6;

/// A validated generator invocation. Every variant maps 1:1 onto a
/// `snailqc_topology::builders` function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GeneratorSpec {
    /// `builders::line(qubits)`.
    Line {
        /// Chain length.
        qubits: usize,
    },
    /// `builders::ring(qubits)`.
    Ring {
        /// Cycle length.
        qubits: usize,
    },
    /// `builders::complete(qubits)` — all-to-all (trapped-ion module).
    Complete {
        /// Module size.
        qubits: usize,
    },
    /// `builders::star(qubits)`.
    Star {
        /// Hub plus spokes.
        qubits: usize,
    },
    /// `builders::square_lattice(rows, cols)`.
    Grid {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
    },
    /// `builders::lattice_alt_diagonals(rows, cols)`.
    GridDiagonals {
        /// Lattice rows.
        rows: usize,
        /// Lattice columns.
        cols: usize,
    },
    /// `builders::hex_lattice(rows, cols)`.
    Hex {
        /// Hexagon rows.
        rows: usize,
        /// Hexagon columns.
        cols: usize,
    },
    /// `builders::heavy_hex(rows, cols)` — IBM's heavy-hex family.
    HeavyHex {
        /// Hexagon rows.
        rows: usize,
        /// Hexagon columns.
        cols: usize,
    },
    /// `builders::hypercube_sized(qubits)`.
    Hypercube {
        /// Number of qubits (any size; an induced prefix of the next
        /// power-of-two cube).
        qubits: usize,
    },
    /// `builders::tree4(levels)` / `builders::tree4_rr(levels)`.
    Tree {
        /// Module levels below the root router (1 → 20q, 2 → 84q).
        levels: usize,
        /// Round-robin child wiring (`tree-rr`).
        round_robin: bool,
    },
    /// `builders::corral(posts, stride_a, stride_b)` — the paper's SNAIL
    /// corral.
    Corral {
        /// Number of posts (half the qubit count).
        posts: usize,
        /// Fence-A stride.
        stride_a: usize,
        /// Fence-B stride.
        stride_b: usize,
    },
}

impl GeneratorSpec {
    /// The canonical spec-file name of this generator.
    pub fn spec_name(&self) -> &'static str {
        match self {
            GeneratorSpec::Line { .. } => "line",
            GeneratorSpec::Ring { .. } => "ring",
            GeneratorSpec::Complete { .. } => "complete",
            GeneratorSpec::Star { .. } => "star",
            GeneratorSpec::Grid { .. } => "grid",
            GeneratorSpec::GridDiagonals { .. } => "grid-diagonals",
            GeneratorSpec::Hex { .. } => "hex",
            GeneratorSpec::HeavyHex { .. } => "heavy-hex",
            GeneratorSpec::Hypercube { .. } => "hypercube",
            GeneratorSpec::Tree {
                round_robin: false, ..
            } => "tree",
            GeneratorSpec::Tree {
                round_robin: true, ..
            } => "tree-rr",
            GeneratorSpec::Corral { .. } => "corral",
        }
    }

    /// The `params` object for a spec file, in canonical key order.
    /// `tree-rr` carries round-robin-ness in its name, so `round_robin` is
    /// never emitted.
    pub fn params_json(&self) -> Value {
        let uint = |n: usize| Value::UInt(n as u64);
        let entries: Vec<(String, Value)> = match *self {
            GeneratorSpec::Line { qubits }
            | GeneratorSpec::Ring { qubits }
            | GeneratorSpec::Complete { qubits }
            | GeneratorSpec::Star { qubits }
            | GeneratorSpec::Hypercube { qubits } => vec![("qubits".into(), uint(qubits))],
            GeneratorSpec::Grid { rows, cols }
            | GeneratorSpec::GridDiagonals { rows, cols }
            | GeneratorSpec::Hex { rows, cols }
            | GeneratorSpec::HeavyHex { rows, cols } => {
                vec![("rows".into(), uint(rows)), ("cols".into(), uint(cols))]
            }
            GeneratorSpec::Tree { levels, .. } => vec![("levels".into(), uint(levels))],
            GeneratorSpec::Corral {
                posts,
                stride_a,
                stride_b,
            } => vec![
                ("posts".into(), uint(posts)),
                ("stride_a".into(), uint(stride_a)),
                ("stride_b".into(), uint(stride_b)),
            ],
        };
        Value::Object(entries)
    }

    /// The generator names accepted in spec files, for error messages.
    pub const KNOWN: &'static str =
        "line, ring, grid, grid-diagonals, hex, heavy-hex, hypercube, tree, tree-rr, corral, \
         complete, star";

    /// Validates the parameters and returns the qubit count of the full
    /// (untruncated) generated graph — computed analytically, so a spec
    /// naming an absurd size is rejected before anything is allocated.
    pub fn checked_qubits(&self) -> Result<usize, String> {
        let cap = |n: usize, what: &str| {
            if n == 0 {
                Err(format!("{what} must be at least 1"))
            } else if n > MAX_QUBITS {
                Err(format!(
                    "{what} {n} exceeds the supported maximum {MAX_QUBITS}"
                ))
            } else {
                Ok(n)
            }
        };
        match *self {
            GeneratorSpec::Line { qubits }
            | GeneratorSpec::Ring { qubits }
            | GeneratorSpec::Star { qubits }
            | GeneratorSpec::Hypercube { qubits } => cap(qubits, "`qubits`"),
            GeneratorSpec::Complete { qubits } => {
                cap(qubits, "`qubits`")?;
                if qubits > MAX_COMPLETE_QUBITS {
                    return Err(format!(
                        "complete graphs are capped at {MAX_COMPLETE_QUBITS} qubits \
                         (edge count grows quadratically), got {qubits}"
                    ));
                }
                Ok(qubits)
            }
            GeneratorSpec::Grid { rows, cols } | GeneratorSpec::GridDiagonals { rows, cols } => {
                cap(rows, "`rows`")?;
                cap(cols, "`cols`")?;
                cap(rows.saturating_mul(cols), "`rows * cols`")
            }
            GeneratorSpec::Hex { rows, cols } => {
                cap(rows, "`rows`")?;
                cap(cols, "`cols`")?;
                cap(hex_qubits(rows, cols), "the hex lattice size")
            }
            GeneratorSpec::HeavyHex { rows, cols } => {
                cap(rows, "`rows`")?;
                cap(cols, "`cols`")?;
                cap(
                    hex_qubits(rows, cols).saturating_add(hex_edges(rows, cols)),
                    "the heavy-hex lattice size",
                )
            }
            GeneratorSpec::Tree { levels, .. } => {
                if levels == 0 {
                    return Err("`levels` must be at least 1".into());
                }
                if levels > MAX_TREE_LEVELS {
                    return Err(format!(
                        "`levels` {levels} exceeds the supported maximum {MAX_TREE_LEVELS}"
                    ));
                }
                // 4 root qubits plus 4^(i+1) qubits per level i.
                Ok((4usize.pow(levels as u32 + 2) - 4) / 3)
            }
            GeneratorSpec::Corral {
                posts,
                stride_a,
                stride_b,
            } => {
                if posts < 3 {
                    return Err(format!("`posts` must be at least 3, got {posts}"));
                }
                if stride_a == 0 || stride_b == 0 {
                    return Err("corral strides must be at least 1".into());
                }
                if stride_a >= posts || stride_b >= posts {
                    return Err(format!(
                        "corral strides must be smaller than `posts` ({posts})"
                    ));
                }
                cap(2 * posts, "`2 * posts`")
            }
        }
    }

    /// Builds the full generated graph. Call [`checked_qubits`] first — a
    /// validated spec never panics here.
    ///
    /// [`checked_qubits`]: GeneratorSpec::checked_qubits
    pub fn build(&self) -> CouplingGraph {
        match *self {
            GeneratorSpec::Line { qubits } => builders::line(qubits),
            GeneratorSpec::Ring { qubits } => builders::ring(qubits),
            GeneratorSpec::Complete { qubits } => builders::complete(qubits),
            GeneratorSpec::Star { qubits } => builders::star(qubits),
            GeneratorSpec::Grid { rows, cols } => builders::square_lattice(rows, cols),
            GeneratorSpec::GridDiagonals { rows, cols } => {
                builders::lattice_alt_diagonals(rows, cols)
            }
            GeneratorSpec::Hex { rows, cols } => builders::hex_lattice(rows, cols),
            GeneratorSpec::HeavyHex { rows, cols } => builders::heavy_hex(rows, cols),
            GeneratorSpec::Hypercube { qubits } => builders::hypercube_sized(qubits),
            GeneratorSpec::Tree {
                levels,
                round_robin: false,
            } => builders::tree4(levels),
            GeneratorSpec::Tree {
                levels,
                round_robin: true,
            } => builders::tree4_rr(levels),
            GeneratorSpec::Corral {
                posts,
                stride_a,
                stride_b,
            } => builders::corral(posts, stride_a, stride_b),
        }
    }
}

/// Qubit count of `builders::hex_lattice(rows, cols)`.
fn hex_qubits(rows: usize, cols: usize) -> usize {
    2 * (rows + 1) * (cols + 1) - 2
}

/// Edge count of `builders::hex_lattice(rows, cols)` — each hex edge hosts
/// one extra midpoint qubit in the heavy-hex construction.
fn hex_edges(rows: usize, cols: usize) -> usize {
    3 * rows * cols + 2 * rows + 2 * cols - 1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checked_qubits_matches_built_graphs() {
        let cases = [
            GeneratorSpec::Line { qubits: 9 },
            GeneratorSpec::Ring { qubits: 12 },
            GeneratorSpec::Complete { qubits: 7 },
            GeneratorSpec::Star { qubits: 5 },
            GeneratorSpec::Grid { rows: 4, cols: 6 },
            GeneratorSpec::GridDiagonals { rows: 4, cols: 4 },
            GeneratorSpec::Hex { rows: 2, cols: 3 },
            GeneratorSpec::HeavyHex { rows: 3, cols: 4 },
            GeneratorSpec::Hypercube { qubits: 23 },
            GeneratorSpec::Tree {
                levels: 1,
                round_robin: false,
            },
            GeneratorSpec::Tree {
                levels: 2,
                round_robin: true,
            },
            GeneratorSpec::Corral {
                posts: 8,
                stride_a: 1,
                stride_b: 3,
            },
        ];
        for spec in cases {
            let expected = spec.checked_qubits().expect("valid params");
            assert_eq!(spec.build().num_qubits(), expected, "{spec:?}");
        }
    }

    #[test]
    fn out_of_range_parameters_are_rejected_before_building() {
        for bad in [
            GeneratorSpec::Line { qubits: 0 },
            GeneratorSpec::Line {
                qubits: MAX_QUBITS + 1,
            },
            GeneratorSpec::Complete { qubits: 5_000 },
            GeneratorSpec::Grid {
                rows: 1_000,
                cols: 1_000,
            },
            GeneratorSpec::Tree {
                levels: 0,
                round_robin: false,
            },
            GeneratorSpec::Tree {
                levels: 9,
                round_robin: false,
            },
            GeneratorSpec::Corral {
                posts: 2,
                stride_a: 1,
                stride_b: 1,
            },
            GeneratorSpec::Corral {
                posts: 8,
                stride_a: 0,
                stride_b: 1,
            },
            GeneratorSpec::Corral {
                posts: 8,
                stride_a: 8,
                stride_b: 1,
            },
        ] {
            assert!(bad.checked_qubits().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn spec_names_are_stable() {
        assert_eq!(
            GeneratorSpec::HeavyHex { rows: 3, cols: 7 }.spec_name(),
            "heavy-hex"
        );
        assert_eq!(
            GeneratorSpec::Tree {
                levels: 2,
                round_robin: true
            }
            .spec_name(),
            "tree-rr"
        );
    }
}
