//! The compiled prediction engine: one-vs-one SVM inference flattened
//! into a cache-friendly, zero-allocation form.
//!
//! [`CompiledSvm`] is built from a trained [`SvmModel`] at install time
//! (or lazily on first use after deserialization — the serde artifact
//! keeps `SvmModel` as the source of truth). Compilation deduplicates
//! the support vectors shared across pair machines into one contiguous
//! row-major matrix with precomputed per-row squared norms; each machine
//! reduces to `(pos, neg, rho, platt, sparse coefficient slice over
//! unique-SV indices)`. A single predict computes each unique kernel
//! value exactly once, then every decision value is a short sparse dot
//! product. Decisions are computed once per point and shared by voting,
//! tie-breaking, [`CompiledSvm::probabilities_with`] and ranking, with
//! all intermediates living in a caller-provided [`SvmScratch`] so
//! steady-state prediction performs zero allocations.
//!
//! **Determinism contract.** Kernel values are evaluated with the same
//! [`Kernel::eval`] routine the reference path uses, over rows of the
//! flat matrix, and per-machine decision sums visit support vectors in
//! the reference order — so decisions, posteriors (via the shared
//! [`couple_into`] core) and rankings are bit-identical to `SvmModel`'s.
//! The precomputed squared norms would permit the classic
//! `‖x‖² + ‖sv‖² − 2·x·sv` RBF expansion, but that expansion rounds
//! differently at the ulp level and would break the bit-equality
//! guarantee the equivalence tests pin down; with Nitro's low-dimensional
//! feature vectors the `exp` dominates the distance loop anyway. The
//! norms are retained (see [`CompiledSvm::sq_norms`]) for audit
//! invariants and for kernels that may exploit them later.

use std::collections::HashMap;
use std::sync::OnceLock;

use crate::kernel::Kernel;
use crate::svm::coupling::{couple_into, CoupleWork};
use crate::svm::multiclass::SvmModel;
use crate::svm::platt::Platt;

/// One pair machine in compiled form: metadata plus a sparse coefficient
/// slice over the shared unique-SV matrix.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledMachine {
    /// Class mapped to the machine's `+1` label.
    pub pos: usize,
    /// Class mapped to the machine's `−1` label.
    pub neg: usize,
    /// Bias term.
    pub rho: f64,
    /// Platt calibration mapping decision values to probabilities.
    pub platt: Platt,
    /// Row indices into the unique-SV matrix, in reference SV order.
    pub sv_idx: Vec<u32>,
    /// `α_s y_s` for each referenced support vector.
    pub coef: Vec<f64>,
}

/// Caller-provided scratch for compiled prediction. All buffers grow to
/// the model's working size on first use and are reused afterwards;
/// steady-state calls allocate nothing.
#[derive(Debug, Clone, Default)]
pub struct SvmScratch {
    /// Kernel values against each unique support vector.
    kvals: Vec<f64>,
    /// Per-machine decision values for the current point.
    decisions: Vec<f64>,
    /// Per-class vote counts.
    votes: Vec<usize>,
    /// Flat `ka × ka` pairwise probability matrix.
    r: Vec<f64>,
    /// Coupled posterior over present classes.
    p_active: Vec<f64>,
    /// Posterior scattered over all classes.
    probs: Vec<f64>,
    /// Wu–Lin–Weng iteration buffers.
    couple_work: CoupleWork,
    /// Cumulative kernel evaluations across calls; the dispatch path
    /// drains this into the `ml.predict.kernel_evals` counter.
    pub kernel_evals: u64,
}

impl SvmScratch {
    /// Posterior from the most recent `probabilities_with`/`predict_with`
    /// call that computed one (length `n_classes`).
    pub fn probabilities(&self) -> &[f64] {
        &self.probs
    }
}

/// A compiled one-vs-one SVM: deduplicated flat support vectors plus
/// sparse per-machine coefficient slices. See the module docs for the
/// layout and determinism contract.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledSvm {
    n_classes: usize,
    fallback: usize,
    dim: usize,
    kernel: Kernel,
    /// Unique support vectors, row-major `n_unique × dim`.
    sv: Vec<f64>,
    /// Squared L2 norm of each unique support vector.
    sq_norms: Vec<f64>,
    machines: Vec<CompiledMachine>,
    /// Classes present in training, ascending.
    active: Vec<usize>,
    /// Class → index into `active` (or `usize::MAX` if absent).
    idx_of: Vec<usize>,
}

impl CompiledSvm {
    /// Compile a trained model. Support vectors appearing in several pair
    /// machines (bit-identical rows) are stored once.
    pub fn compile(model: &SvmModel) -> Self {
        let src = model.machines();
        let n_classes = model.n_classes();
        let kernel = src.first().map(|m| m.svm.kernel).unwrap_or(Kernel::Linear);
        let dim = src
            .iter()
            .flat_map(|m| m.svm.support_vectors.first())
            .map(|sv| sv.len())
            .next()
            .unwrap_or(0);

        let mut index: HashMap<Vec<u64>, u32> = HashMap::new();
        let mut sv = Vec::new();
        let mut sq_norms: Vec<f64> = Vec::new();
        let mut machines = Vec::with_capacity(src.len());
        for pm in src {
            let mut sv_idx = Vec::with_capacity(pm.svm.support_vectors.len());
            for row in &pm.svm.support_vectors {
                // Key on the exact bit pattern: dedup must never merge
                // rows that differ even in the last ulp.
                let key: Vec<u64> = row.iter().map(|v| v.to_bits()).collect();
                let next_id = sq_norms.len() as u32;
                let id = *index.entry(key).or_insert_with(|| {
                    sv.extend_from_slice(row);
                    sq_norms.push(row.iter().map(|v| v * v).sum());
                    next_id
                });
                sv_idx.push(id);
            }
            machines.push(CompiledMachine {
                pos: pm.pos,
                neg: pm.neg,
                rho: pm.svm.rho,
                platt: pm.platt,
                sv_idx,
                coef: pm.svm.coef.clone(),
            });
        }

        let present = model.present();
        let active: Vec<usize> = (0..n_classes).filter(|&c| present[c]).collect();
        let mut idx_of = vec![usize::MAX; n_classes];
        for (i, &c) in active.iter().enumerate() {
            idx_of[c] = i;
        }

        Self {
            n_classes,
            fallback: model.fallback(),
            dim,
            kernel,
            sv,
            sq_norms,
            machines,
            active,
            idx_of,
        }
    }

    /// Number of unique support vectors in the flat matrix.
    pub fn n_unique_svs(&self) -> usize {
        self.sq_norms.len()
    }

    /// Total support-vector references across machines (what the
    /// reference path stores — and evaluates — per prediction).
    pub fn total_sv_refs(&self) -> usize {
        self.machines.iter().map(|m| m.sv_idx.len()).sum()
    }

    /// Number of classes.
    pub fn n_classes(&self) -> usize {
        self.n_classes
    }

    /// Feature dimensionality of the support vectors.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Kernel the machines were trained with.
    pub fn kernel(&self) -> Kernel {
        self.kernel
    }

    /// The compiled pair machines.
    pub fn machines(&self) -> &[CompiledMachine] {
        &self.machines
    }

    /// Precomputed squared norms of the unique support vectors.
    pub fn sq_norms(&self) -> &[f64] {
        &self.sq_norms
    }

    /// A unique support-vector row.
    pub fn sv_row(&self, r: usize) -> &[f64] {
        &self.sv[r * self.dim..(r + 1) * self.dim]
    }

    /// Evaluate each unique kernel value once, then every machine's
    /// decision as a sparse dot product (reference summation order).
    fn compute_decisions(&self, x: &[f64], s: &mut SvmScratch) {
        s.kvals.clear();
        for r in 0..self.sq_norms.len() {
            s.kvals.push(self.kernel.eval(self.sv_row(r), x));
        }
        s.kernel_evals += self.sq_norms.len() as u64;
        s.decisions.clear();
        for m in &self.machines {
            let mut f = -m.rho;
            for (&idx, &c) in m.sv_idx.iter().zip(&m.coef) {
                f += c * s.kvals[idx as usize];
            }
            s.decisions.push(f);
        }
    }

    /// Posterior from already-computed decisions (mirrors the reference
    /// `SvmModel::probabilities` exactly, through the shared coupling
    /// core). Leaves the result in `s.probs`.
    fn probabilities_from_decisions(&self, s: &mut SvmScratch) {
        let ka = self.active.len();
        s.probs.clear();
        s.probs.resize(self.n_classes, 0.0);
        if ka == 0 {
            return;
        }
        if ka == 1 {
            s.probs[self.active[0]] = 1.0;
            return;
        }
        s.r.clear();
        s.r.resize(ka * ka, 0.5);
        for i in 0..ka {
            s.r[i * ka + i] = 0.0;
        }
        for (m, &d) in self.machines.iter().zip(&s.decisions) {
            // Clamp away from 0/1 as libSVM does, to keep coupling stable.
            let p = m.platt.prob(d).clamp(1e-7, 1.0 - 1e-7);
            let (i, j) = (self.idx_of[m.pos], self.idx_of[m.neg]);
            s.r[i * ka + j] = p;
            s.r[j * ka + i] = 1.0 - p;
        }
        couple_into(&s.r, ka, &mut s.p_active, &mut s.couple_work);
        for (i, &c) in self.active.iter().enumerate() {
            s.probs[c] = s.p_active[i];
        }
    }

    /// Predict the class of a (pre-scaled) point: pairwise voting with
    /// posterior tie-breaking, decisions computed once. Bit-identical to
    /// [`SvmModel::predict`]; zero allocations at steady state.
    pub fn predict_with(&self, x: &[f64], s: &mut SvmScratch) -> usize {
        if self.machines.is_empty() {
            return self.fallback;
        }
        self.compute_decisions(x, s);
        self.tally_votes(s);
        if let Some(winner) = unique_winner(&s.votes) {
            return winner;
        }
        // Only a tie needs the coupled posterior.
        self.probabilities_from_decisions(s);
        self.elect(s)
    }

    /// Count each machine's vote for the current decisions.
    fn tally_votes(&self, s: &mut SvmScratch) {
        s.votes.clear();
        s.votes.resize(self.n_classes, 0);
        for (m, &d) in self.machines.iter().zip(&s.decisions) {
            if d >= 0.0 {
                s.votes[m.pos] += 1;
            } else {
                s.votes[m.neg] += 1;
            }
        }
    }

    /// The most-voted class, ties broken by the posterior in `s.probs`.
    fn elect(&self, s: &SvmScratch) -> usize {
        let max_votes = s.votes.iter().copied().max().unwrap_or(0);
        // `>=` on an ascending scan reproduces `Iterator::max_by`, which
        // keeps the last of equally-maximal elements.
        let mut best = self.fallback;
        let mut best_p = f64::NEG_INFINITY;
        let mut seen = false;
        for (c, &v) in s.votes.iter().enumerate() {
            if v == max_votes {
                let pc = s.probs[c];
                if !seen || pc >= best_p {
                    best = c;
                    best_p = pc;
                    seen = true;
                }
            }
        }
        best
    }

    /// Class posterior for a (pre-scaled) point, length `n_classes`.
    /// Classes absent from training receive probability 0. Bit-identical
    /// to [`SvmModel::probabilities`]; zero allocations at steady state.
    pub fn probabilities_with<'s>(&self, x: &[f64], s: &'s mut SvmScratch) -> &'s [f64] {
        self.compute_decisions(x, s);
        self.probabilities_from_decisions(s);
        &s.probs
    }

    /// Classes ordered from most to least probable (ties toward the lower
    /// class index), written into `out`. Matches the reference
    /// `TrainedModel::rank` ordering bit-for-bit.
    pub fn rank_into(&self, x: &[f64], s: &mut SvmScratch, out: &mut Vec<usize>) {
        self.probabilities_with(x, s);
        rank_by_posterior(&s.probs, out);
    }

    /// Predict and rank from one decision pass: the vote winner (as
    /// [`CompiledSvm::predict_with`] returns it) and the posterior
    /// ranking (as [`CompiledSvm::rank_into`] writes it into `out`),
    /// bit-identical to calling both, with each unique kernel value
    /// evaluated once instead of twice. Zero allocations at steady state.
    pub fn predict_rank_with(&self, x: &[f64], s: &mut SvmScratch, out: &mut Vec<usize>) -> usize {
        self.compute_decisions(x, s);
        self.probabilities_from_decisions(s);
        rank_by_posterior(&s.probs, out);
        if self.machines.is_empty() {
            return self.fallback;
        }
        self.tally_votes(s);
        self.elect(s)
    }

    /// Allocating convenience wrapper over [`CompiledSvm::predict_with`].
    pub fn predict(&self, x: &[f64]) -> usize {
        self.predict_with(x, &mut SvmScratch::default())
    }

    /// Allocating convenience wrapper over
    /// [`CompiledSvm::probabilities_with`].
    pub fn probabilities(&self, x: &[f64]) -> Vec<f64> {
        let mut s = SvmScratch::default();
        self.probabilities_with(x, &mut s);
        s.probs
    }
}

/// The class with the most votes, or `None` when several tie.
fn unique_winner(votes: &[usize]) -> Option<usize> {
    let max_votes = votes.iter().copied().max()?;
    let mut tied = (0..votes.len()).filter(|&c| votes[c] == max_votes);
    let first = tied.next()?;
    tied.next().is_none().then_some(first)
}

/// Write the classes of posterior `p` into `out`, most probable first,
/// ties toward the lower class index. The one ordering every ranking
/// path shares.
pub(crate) fn rank_by_posterior(p: &[f64], out: &mut Vec<usize>) {
    out.clear();
    out.extend(0..p.len());
    out.sort_by(|&a, &b| {
        p[b].partial_cmp(&p[a])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
}

/// Interior cell holding the lazily-compiled engine inside [`SvmModel`].
///
/// Excluded from serialization (the `SvmModel` fields are the source of
/// truth); deserialized models recompile on first use. Cloning clones
/// any already-compiled engine; equality is vacuous because the cell is
/// a pure cache of the surrounding model's fields.
#[derive(Debug, Default)]
pub struct CompiledCell(pub(crate) OnceLock<CompiledSvm>);

impl CompiledCell {
    /// The compiled engine, building it on first call.
    pub fn get_or_compile(&self, model: &SvmModel) -> &CompiledSvm {
        self.0.get_or_init(|| CompiledSvm::compile(model))
    }
}

impl Clone for CompiledCell {
    fn clone(&self) -> Self {
        let cell = OnceLock::new();
        if let Some(compiled) = self.0.get() {
            let _ = cell.set(compiled.clone());
        }
        Self(cell)
    }
}

impl PartialEq for CompiledCell {
    fn eq(&self, _other: &Self) -> bool {
        // A cache derived from the model's own fields carries no identity
        // of its own.
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::svm::smo::SmoParams;

    fn blob_dataset() -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..10 {
            let t = i as f64 / 10.0;
            d.push(vec![-1.0 + t * 0.1, -1.0 - t * 0.1], 0);
            d.push(vec![1.0 + t * 0.1, -1.0 + t * 0.1], 1);
            d.push(vec![0.0 + t * 0.1, 1.0 + t * 0.1], 2);
        }
        d
    }

    fn trained() -> SvmModel {
        SvmModel::train(
            &blob_dataset(),
            Kernel::Rbf { gamma: 1.0 },
            &SmoParams::default(),
        )
    }

    #[test]
    fn dedup_shrinks_storage_below_total_references() {
        let model = trained();
        let compiled = CompiledSvm::compile(&model);
        let total: usize = model
            .machines()
            .iter()
            .map(|m| m.svm.support_vectors.len())
            .sum();
        assert_eq!(compiled.total_sv_refs(), total);
        assert!(
            compiled.n_unique_svs() <= total,
            "dedup can never grow the matrix"
        );
        // Every training row sits in two of the three pair machines, so
        // real sharing must occur on this dataset.
        assert!(
            compiled.n_unique_svs() < total,
            "expected shared support vectors across machines"
        );
    }

    #[test]
    fn sq_norms_match_rows() {
        let compiled = CompiledSvm::compile(&trained());
        for r in 0..compiled.n_unique_svs() {
            let row = compiled.sv_row(r);
            let expect: f64 = row.iter().map(|v| v * v).sum();
            assert_eq!(compiled.sq_norms()[r].to_bits(), expect.to_bits());
        }
    }

    #[test]
    fn predictions_match_reference_bitwise() {
        let d = blob_dataset();
        let model = trained();
        let compiled = CompiledSvm::compile(&model);
        let mut s = SvmScratch::default();
        let probe = [
            vec![0.0, 0.0],
            vec![-1.0, -1.0],
            vec![1.0, -1.0],
            vec![0.05, 0.95],
            vec![0.5, -0.5],
        ];
        for x in d.x.iter().chain(probe.iter()) {
            assert_eq!(compiled.predict_with(x, &mut s), model.predict(x));
            let p_ref = model.probabilities(x);
            let p_new = compiled.probabilities_with(x, &mut s);
            for (a, b) in p_new.iter().zip(&p_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "posterior drift at {x:?}");
            }
        }
    }

    #[test]
    fn kernel_eval_counter_accumulates() {
        let compiled = CompiledSvm::compile(&trained());
        let mut s = SvmScratch::default();
        compiled.predict_with(&[0.1, 0.2], &mut s);
        let once = s.kernel_evals;
        assert_eq!(once, compiled.n_unique_svs() as u64);
        compiled.predict_with(&[0.3, -0.2], &mut s);
        assert_eq!(s.kernel_evals, 2 * once);
    }

    #[test]
    fn single_class_model_compiles_to_fallback() {
        let mut d = Dataset::new(4);
        d.push(vec![1.0], 2);
        d.push(vec![2.0], 2);
        let model = SvmModel::train(&d, Kernel::Linear, &SmoParams::default());
        let compiled = CompiledSvm::compile(&model);
        let mut s = SvmScratch::default();
        assert_eq!(compiled.predict_with(&[5.0], &mut s), 2);
        assert_eq!(compiled.probabilities_with(&[5.0], &mut s)[2], 1.0);
    }

    #[test]
    fn rank_matches_reference_order() {
        let d = blob_dataset();
        let model = trained();
        let compiled = CompiledSvm::compile(&model);
        let mut s = SvmScratch::default();
        let mut order = Vec::new();
        for x in &d.x {
            compiled.rank_into(x, &mut s, &mut order);
            let p = model.probabilities(x);
            let mut expect: Vec<usize> = (0..p.len()).collect();
            expect.sort_by(|&a, &b| {
                p[b].partial_cmp(&p[a])
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.cmp(&b))
            });
            assert_eq!(order, expect);
        }
    }

    #[test]
    fn compiled_cell_clone_preserves_compiled_state() {
        let model = trained();
        let _ = model.compiled(); // force compile
        let cloned = model.clone();
        // The clone either carried the compiled engine or recompiles to
        // an equal one; both must predict identically.
        assert_eq!(
            cloned.compiled().n_unique_svs(),
            model.compiled().n_unique_svs()
        );
        assert_eq!(model.predict(&[0.2, 0.1]), cloned.predict(&[0.2, 0.1]));
    }
}
