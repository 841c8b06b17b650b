//! Seeded input generation. The program under test only ever receives
//! what these builders produce: inline-BLIF job specs of generated
//! circuits, and the `gateway_mix` request stream.

use domino_bdd::ReorderMode;
use domino_engine::{JobSpec, PiSpec};
use domino_workloads::{generate_giant, public_suite, table_suite, GiantSpec};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Fisher–Yates shuffle driven by `rng`.
fn shuffle<T>(rng: &mut StdRng, v: &mut [T]) {
    for i in (1..v.len()).rev() {
        v.swap(i, rng.gen_range(0..=i));
    }
}

/// How a batch job's outcome is checked.
#[derive(Debug, Clone, PartialEq)]
pub enum Check {
    /// MA/MP assignments equal the golden `kernel` row of this circuit.
    Golden(String),
    /// As [`Check::Golden`], plus swap count, node count and final order
    /// of both sides equal the golden `reorder` row.
    GoldenSift(String),
    /// Both sides' re-synthesized blocks are BDD-equivalent to the
    /// circuit's combinational view.
    Equivalence,
}

/// One job of a batch workload.
#[derive(Debug, Clone)]
pub struct BatchJob {
    /// Metric row name (`industry1`, `x3_timed`, `giant`, ...).
    pub row: String,
    /// The inline-BLIF spec an op resolves.
    pub spec: JobSpec,
    /// How its outcome is verified.
    pub check: Check,
}

fn row_name(suite_name: &str) -> String {
    suite_name.replace(' ', "").to_lowercase()
}

/// `tables_cold`'s twelve jobs in a seeded order: the seven Table 1 rows
/// untimed (Compare, p = 0.5), the four public rows timed as `table2`
/// runs them (clock at 85% of the unsized MA delay, `P_i` = 2.5), and the
/// giant sequential circuit `perf_snapshot` flows. Every spec carries its
/// circuit as inline BLIF, as `dominoc run <file.blif>` sends it.
pub fn tables_jobs(seed: u64) -> Vec<BatchJob> {
    let suite = table_suite().expect("suite generates");
    let mut jobs: Vec<BatchJob> = suite
        .iter()
        .map(|b| BatchJob {
            row: row_name(b.name),
            spec: JobSpec::for_network(b.name, &b.network),
            check: if b.description == "Public Domain" {
                Check::Golden(b.name.to_string())
            } else {
                Check::Equivalence
            },
        })
        .collect();
    for b in suite.iter().filter(|b| b.description == "Public Domain") {
        let mut spec = JobSpec::for_network(b.name, &b.network);
        spec.timing_fraction = Some(0.85);
        spec.mp_and_penalty = Some(2.5);
        jobs.push(BatchJob {
            row: format!("{}_timed", row_name(b.name)),
            spec,
            check: Check::Equivalence,
        });
    }
    let giant =
        generate_giant(&GiantSpec::giant("giant", 192, 32, 14, 2, 71)).expect("giant generates");
    let mut spec = JobSpec::for_network("giant", &giant);
    spec.sim.cycles = 1024;
    jobs.push(BatchJob {
        row: "giant".into(),
        spec,
        check: Check::Equivalence,
    });
    shuffle(&mut StdRng::seed_from_u64(seed), &mut jobs);
    jobs
}

/// `sift_compare`'s two jobs, apex7 then x1: untimed Compare at p = 0.5
/// with one final sifting pass. Fixed by the golden fixture, so the seed
/// does not enter.
pub fn sift_jobs() -> Vec<BatchJob> {
    let suite = public_suite().expect("suite generates");
    ["apex7", "x1"]
        .iter()
        .map(|&name| {
            let b = suite
                .iter()
                .find(|b| b.name == name)
                .expect("public row exists");
            let mut spec = JobSpec::for_network(name, &b.network);
            spec.flow.probability.reorder = ReorderMode::Sift;
            BatchJob {
                row: format!("{name}_sift"),
                spec,
                check: Check::GoldenSift(name.to_string()),
            }
        })
        .collect()
}

/// Repeat requests per public row (apex7, frg1, x1, x3) in each block of
/// the `gateway_mix` stream. Each block is shuffled by the seed, so any
/// window holds nearly these shares.
pub const REPEATS: usize = 9;

/// Fresh-profile requests per public row in each block.
pub const FRESH: usize = 1;

/// One `gateway_mix` request.
#[derive(Debug, Clone)]
pub struct MixRequest {
    /// Position in the stream.
    pub index: u64,
    /// Identity of the spec: `row` for a repeat, a unique id for a
    /// fresh profile.
    pub spec_id: u64,
    /// Public row index into the pool.
    pub row: usize,
    /// The spec to send.
    pub spec: JobSpec,
}

/// The seeded `gateway_mix` request stream over a pool of repeat specs.
#[derive(Debug, Clone)]
pub struct MixStream {
    seed: u64,
    pool: Vec<JobSpec>,
    inputs: Vec<usize>,
    block: Vec<(usize, bool)>,
}

/// First spec id of the fresh (never repeated) requests.
pub const FRESH_ID_BASE: u64 = 1_000;

impl MixStream {
    /// A stream over `pool`: the repeat spec of each public row with its
    /// circuit's primary-input count.
    pub fn new(seed: u64, pool: Vec<(JobSpec, usize)>) -> Self {
        let (pool, inputs): (Vec<JobSpec>, Vec<usize>) = pool.into_iter().unzip();
        let block: Vec<(usize, bool)> = (0..inputs.len())
            .flat_map(|row| {
                std::iter::repeat_n((row, false), REPEATS)
                    .chain(std::iter::repeat_n((row, true), FRESH))
            })
            .collect();
        MixStream {
            seed,
            pool,
            inputs,
            block,
        }
    }

    /// Requests per shuffled block.
    pub fn block_len(&self) -> u64 {
        self.block.len() as u64
    }

    /// The repeat specs.
    pub fn pool(&self) -> &[JobSpec] {
        &self.pool
    }

    /// Request `index` of the stream (a pure function of seed and index).
    pub fn request(&self, index: u64) -> MixRequest {
        let n = self.block_len();
        let mut order = self.block.clone();
        shuffle(
            &mut StdRng::seed_from_u64(self.seed ^ (index / n).wrapping_mul(0xA076_1D64_78BD_642F)),
            &mut order,
        );
        let (row, fresh) = order[(index % n) as usize];
        let mut spec = self.pool[row].clone();
        if !fresh {
            return MixRequest {
                index,
                spec_id: row as u64,
                row,
                spec,
            };
        }
        spec.pi = PiSpec::PerInput(fresh_profile(
            self.seed ^ index.wrapping_mul(0xE703_7ED1_A0B4_28DB),
            self.inputs[row],
        ));
        MixRequest {
            index,
            spec_id: FRESH_ID_BASE + index,
            row,
            spec,
        }
    }
}

/// A fresh PI profile: each probability is `k/64` with `k` in `4..=60`,
/// exactly representable so it survives the JSON round trip bit for bit.
pub fn fresh_profile(seed: u64, inputs: usize) -> Vec<f64> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..inputs)
        .map(|_| rng.gen_range(4..=60u32) as f64 / 64.0)
        .collect()
}
