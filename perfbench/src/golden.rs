//! The repository's golden kernel fixture, read at build time: the
//! reference MA/MP assignments of every public row and the exact sifting
//! outcome (post-sift node count, swap count, final order).

use std::collections::HashMap;

const FIXTURE: &str = include_str!("../../tests/fixtures/golden_kernel.txt");

/// Pinned search outcome of one public row under the default config.
#[derive(Debug, Clone)]
pub struct KernelRow {
    /// Min-area assignment, `+`/`-` per view output.
    pub ma_assignment: String,
    /// Min-power assignment.
    pub mp_assignment: String,
}

/// Pinned sifting outcome of one public row.
#[derive(Debug, Clone)]
pub struct ReorderRow {
    /// Shared BDD nodes after sifting.
    pub bdd_nodes: usize,
    /// Adjacent-level swaps of the sifting pass.
    pub swaps: u64,
    /// Final variable order, level 0 first.
    pub order: Vec<usize>,
}

/// The parsed fixture, keyed by circuit name.
#[derive(Debug, Clone)]
pub struct Golden {
    /// `kernel` rows.
    pub kernel: HashMap<String, KernelRow>,
    /// `reorder` rows.
    pub reorder: HashMap<String, ReorderRow>,
}

impl Golden {
    /// Parses the fixture compiled into this binary.
    ///
    /// # Panics
    ///
    /// Panics on a malformed fixture line (the fixture is repository
    /// data, not user input).
    pub fn load() -> Self {
        let mut kernel = HashMap::new();
        let mut reorder = HashMap::new();
        for line in FIXTURE.lines().map(str::trim) {
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let mut parts = line.split_whitespace();
            let tag = parts.next().expect("fixture line has a tag");
            let fields: HashMap<&str, &str> = parts.filter_map(|kv| kv.split_once('=')).collect();
            let get = |k: &str| -> &str {
                fields
                    .get(k)
                    .unwrap_or_else(|| panic!("fixture {tag} row lacks {k}"))
            };
            let name = get("name").to_string();
            match tag {
                "kernel" => {
                    kernel.insert(
                        name,
                        KernelRow {
                            ma_assignment: get("ma_assignment").to_string(),
                            mp_assignment: get("mp_assignment").to_string(),
                        },
                    );
                }
                "reorder" => {
                    reorder.insert(
                        name,
                        ReorderRow {
                            bdd_nodes: get("bdd_nodes").parse().expect("bdd_nodes is a count"),
                            swaps: get("swaps").parse().expect("swaps is a count"),
                            order: get("order")
                                .split('.')
                                .map(|v| v.parse().expect("order holds variable indices"))
                                .collect(),
                        },
                    );
                }
                _ => {}
            }
        }
        Golden { kernel, reorder }
    }
}
