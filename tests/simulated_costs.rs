//! Pins the simulated clock: profiles both small collections of every
//! suite on the harness device and checks a digest of the bit patterns
//! of every feature value, feature cost, variant objective and
//! constraint verdict against a recorded constant.
//!
//! The simulated GPU time is the paper's objective; host-side fast
//! paths in the kernels and in `nitro-simt` must leave it bit-identical.
//! A digest mismatch means a change moved a simulated number — if that
//! is intended (a cost-model change), record the new constants and say
//! why in the change description.

use nitro::tuner::ProfileTable;
use nitro_bench::{device, COLLECTION_SEED};

/// FNV-1a over 64-bit words.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn table(&mut self, table: &ProfileTable) {
        self.word(table.len() as u64);
        for i in 0..table.len() {
            for f in &table.features[i] {
                self.word(f.to_bits());
            }
            self.word(table.feature_cost_ns[i].to_bits());
            for c in &table.costs[i] {
                self.word(c.to_bits());
            }
            for &ok in &table.allowed[i] {
                self.word(ok as u64);
            }
        }
    }
}

/// Profile the training and test collections and digest both tables.
fn digest<I: Send + Sync>(
    cv: &nitro::core::CodeVariant<I>,
    (train, test): (Vec<I>, Vec<I>),
) -> u64 {
    let mut d = Digest::new();
    d.table(&ProfileTable::build(cv, &train));
    d.table(&ProfileTable::build(cv, &test));
    d.0
}

fn check(suite: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{suite}: simulated costs changed (digest {got:#018x}, recorded {want:#018x})"
    );
}

#[test]
fn spmv() {
    let cv = nitro::sparse::spmv::build_code_variant(&nitro::core::Context::new(), &device());
    let sets = nitro::sparse::collection::spmv_small_sets(COLLECTION_SEED);
    check("spmv", digest(&cv, sets), 0xb666_4152_d150_3e14);
}

#[test]
fn solvers() {
    let cv = nitro::solvers::variants::build_code_variant(&nitro::core::Context::new(), &device());
    let sets = nitro::solvers::collection::solver_small_sets(COLLECTION_SEED);
    check("solvers", digest(&cv, sets), 0x06d7_bb23_27e6_dd4a);
}

#[test]
fn bfs() {
    let cv = nitro::graph::bfs::build_code_variant(&nitro::core::Context::new(), &device());
    let sets = nitro::graph::collection::bfs_small_sets(COLLECTION_SEED);
    check("bfs", digest(&cv, sets), 0x5f1c_9510_6ab6_c821);
}

#[test]
fn histogram() {
    let cv =
        nitro::histogram::variants::build_code_variant(&nitro::core::Context::new(), &device());
    let sets = nitro::histogram::data::hist_small_sets(COLLECTION_SEED);
    check("histogram", digest(&cv, sets), 0x4d62_a552_d74f_99e8);
}

#[test]
fn sort() {
    let cv = nitro::sort::variants::build_code_variant(&nitro::core::Context::new(), &device());
    let sets = nitro::sort::keys::sort_small_sets(COLLECTION_SEED);
    check("sort", digest(&cv, sets), 0xd153_ae72_0612_858a);
}
