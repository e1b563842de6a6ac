//! Pins the generated collections: builds the five suites' small sets
//! and the full-scale histogram and sort training and test sets from
//! [`COLLECTION_SEED`] and checks a digest of every instance's name,
//! group, noise seed and input bit patterns against a recorded constant.
//!
//! The generators may change how they build a collection (in parallel,
//! with a different sort) but never what they build: every profile,
//! model and benchmark figure downstream depends on these exact inputs.
//! The digests are the same for any worker count; CI also runs this
//! target pinned to one core, where the parallel builders take their
//! sequential path.

use nitro::sparse::csr::CsrMatrix;
use nitro_bench::COLLECTION_SEED;

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

    fn bytes(&mut self, s: &str) {
        self.word(s.len() as u64);
        for &b in s.as_bytes() {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x100_0000_01b3);
        }
    }

    fn words(&mut self, ws: impl ExactSizeIterator<Item = u64>) {
        self.word(ws.len() as u64);
        for w in ws {
            self.word(w);
        }
    }

    /// An instance's identity: the fields every suite's inputs share.
    fn head(&mut self, name: &str, group: &str, gpu_seed: u64) {
        self.bytes(name);
        self.bytes(group);
        self.word(gpu_seed);
    }

    fn csr(&mut self, m: &CsrMatrix) {
        self.word(m.n_rows as u64);
        self.word(m.n_cols as u64);
        self.words(m.row_ptr.iter().map(|&p| p as u64));
        self.words(m.cols.iter().map(|&c| c as u64));
        self.words(m.vals.iter().map(|v| v.to_bits()));
    }
}

/// Digest a collection instance by instance.
fn digest<I>(sets: &[&[I]], each: impl Fn(&mut Digest, &I)) -> u64 {
    let mut d = Digest::new();
    for set in sets {
        d.word(set.len() as u64);
        for input in *set {
            each(&mut d, input);
        }
    }
    d.0
}

fn spmv(d: &mut Digest, i: &nitro::sparse::spmv::SpmvInput) {
    d.head(&i.name, &i.group, i.gpu_seed);
    d.csr(&i.csr);
    d.words(i.x.iter().map(|v| v.to_bits()));
}

fn solver(d: &mut Digest, i: &nitro::solvers::variants::SolverInput) {
    d.head(&i.name, &i.group, i.gpu_seed);
    d.csr(&i.a);
    d.words(i.b.iter().map(|v| v.to_bits()));
}

fn bfs(d: &mut Digest, i: &nitro::graph::bfs::BfsInput) {
    d.head(&i.name, &i.group, i.gpu_seed);
    d.word(i.graph.n as u64);
    d.words(i.graph.row_ptr.iter().map(|&p| p as u64));
    d.words(i.graph.adj.iter().map(|&v| v as u64));
    d.words(i.sources.iter().map(|&s| s as u64));
}

fn histogram(d: &mut Digest, i: &nitro::histogram::data::HistInput) {
    d.head(&i.name, &i.group, i.gpu_seed);
    d.words(i.data.iter().map(|v| v.to_bits()));
}

fn sort(d: &mut Digest, i: &nitro::sort::keys::SortInput) {
    use nitro::sort::keys::Keys;
    d.head(&i.name, &i.group, i.gpu_seed);
    d.word(i.keys.bits() as u64);
    match &i.keys {
        Keys::F32(v) => d.words(v.iter().map(|k| k.to_bits() as u64)),
        Keys::F64(v) => d.words(v.iter().map(|k| k.to_bits())),
    }
}

fn check(what: &str, got: u64, want: u64) {
    assert_eq!(
        got, want,
        "{what}: generated inputs changed (digest {got:#018x}, recorded {want:#018x})"
    );
}

#[test]
fn small_sets_of_every_suite() {
    let (train, test) = nitro::sparse::collection::spmv_small_sets(COLLECTION_SEED);
    check(
        "spmv small",
        digest(&[&train, &test], spmv),
        0x5dfb_c6eb_e8d3_ffc6,
    );
    let (train, test) = nitro::solvers::collection::solver_small_sets(COLLECTION_SEED);
    check(
        "solvers small",
        digest(&[&train, &test], solver),
        0xeb18_d31f_0425_7938,
    );
    let (train, test) = nitro::graph::collection::bfs_small_sets(COLLECTION_SEED);
    check(
        "bfs small",
        digest(&[&train, &test], bfs),
        0xf412_83ac_7696_d5a1,
    );
    let (train, test) = nitro::histogram::data::hist_small_sets(COLLECTION_SEED);
    check(
        "histogram small",
        digest(&[&train, &test], histogram),
        0x95f2_5724_db86_34f7,
    );
    let (train, test) = nitro::sort::keys::sort_small_sets(COLLECTION_SEED);
    check(
        "sort small",
        digest(&[&train, &test], sort),
        0xa9c2_5a63_d2ad_1a6c,
    );
}

#[test]
fn full_scale_histogram_sets() {
    use nitro::histogram::data::*;
    let train = hist_training_set(COLLECTION_SEED);
    check(
        "histogram train",
        digest(&[&train], histogram),
        0x7833_05e1_04b4_c00f,
    );
    drop(train);
    let test = hist_test_set(COLLECTION_SEED);
    check(
        "histogram test",
        digest(&[&test], histogram),
        0xbdad_4784_3600_deeb,
    );
}

#[test]
fn full_scale_sort_sets() {
    use nitro::sort::keys::*;
    let train = sort_training_set(COLLECTION_SEED);
    check("sort train", digest(&[&train], sort), 0xa780_59b8_7ee6_51df);
    drop(train);
    let test = sort_test_set(COLLECTION_SEED);
    check("sort test", digest(&[&test], sort), 0x5b08_09ce_7ec4_f0f6);
}
