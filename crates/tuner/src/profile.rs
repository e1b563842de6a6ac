//! Exhaustive profiling: the ground truth the autotuner learns from.
//!
//! For each training input the autotuner "performs exhaustive search over
//! the code variants and assigns to label y_i the integer designating the
//! variant that leads to the best performance" (paper §III-A). The
//! [`ProfileTable`] materializes that search — per-input feature vectors,
//! per-variant objective values and constraint verdicts — and is reused by
//! every experiment harness (Figures 5–8 all derive from it).

use nitro_core::{CodeVariant, Objective};
use nitro_ml::Dataset;
use rayon::prelude::*;

/// Ground-truth profiling data for a set of inputs.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileTable {
    /// Objective direction the costs were recorded under.
    pub objective: Objective,
    /// Variant names, in index order.
    pub variant_names: Vec<String>,
    /// Active feature names, in vector order.
    pub feature_names: Vec<String>,
    /// `costs[input][variant]`: objective value; `objective.worst()` for
    /// constraint-vetoed variants.
    pub costs: Vec<Vec<f64>>,
    /// `features[input]`: the active feature vector.
    pub features: Vec<Vec<f64>>,
    /// Simulated feature-evaluation cost per input (ns).
    pub feature_cost_ns: Vec<f64>,
    /// `allowed[input][variant]`: constraint verdicts (all true when the
    /// policy disables constraints).
    pub allowed: Vec<Vec<bool>>,
}

/// One profiled input: `(features, feature_cost_ns, costs, allowed)`.
pub type ProfileRow = (Vec<f64>, f64, Vec<f64>, Vec<bool>);

impl ProfileTable {
    /// Exhaustively profile `inputs` under the code variant's policy.
    ///
    /// Inputs are profiled in parallel; determinism is preserved as long
    /// as each variant execution is deterministic for a given input
    /// (which the simulated benchmark substrates guarantee).
    pub fn build<I>(cv: &CodeVariant<I>, inputs: &[I]) -> Self
    where
        I: Send + Sync,
    {
        let objective = cv.policy().objective;
        let rows: Vec<ProfileRow> = inputs
            .par_iter()
            .map(|input| Self::profile_one(cv, input))
            .collect();

        let mut table = Self {
            objective,
            variant_names: cv.variant_names(),
            feature_names: cv.active_feature_names(),
            costs: Vec::with_capacity(rows.len()),
            features: Vec::with_capacity(rows.len()),
            feature_cost_ns: Vec::with_capacity(rows.len()),
            allowed: Vec::with_capacity(rows.len()),
        };
        for (features, fcost, costs, allowed) in rows {
            table.features.push(features);
            table.feature_cost_ns.push(fcost);
            table.costs.push(costs);
            table.allowed.push(allowed);
        }
        table
    }

    /// Profile a single input: features plus every variant's objective.
    pub fn profile_one<I>(cv: &CodeVariant<I>, input: &I) -> ProfileRow
    where
        I: ?Sized + Send + Sync,
    {
        let (features, fcost) = cv.evaluate_features(input);
        let objective = cv.policy().objective;
        let mut costs = Vec::with_capacity(cv.n_variants());
        let mut allowed = Vec::with_capacity(cv.n_variants());
        let mut failures = 0u64;
        for v in 0..cv.n_variants() {
            let ok = cv.constraints_satisfied(v, input);
            if !ok {
                // Paper §II-B: constraints "force the variant to return an
                // ∞ value during the offline training phase".
                allowed.push(false);
                costs.push(objective.worst());
                continue;
            }
            // Failure-isolated execution: a variant that panics (or
            // reports a non-finite objective) on this input is recorded
            // like a vetoed one — worst cost, not allowed — so labels
            // come from the surviving variants and an input where every
            // variant fails simply drops out of the training set
            // (see [`ProfileTable::labels`]).
            match cv.try_run_variant(v, input) {
                Ok(c) => {
                    allowed.push(true);
                    costs.push(c);
                }
                Err(_) => {
                    failures += 1;
                    allowed.push(false);
                    costs.push(objective.worst());
                }
            }
        }
        if let Some(tracer) = cv.context().tracer() {
            if failures > 0 {
                tracer
                    .metrics()
                    .counter(&format!("profile.{}.failures", cv.name()))
                    .add(failures);
            }
            // One instant per profiled input carrying the full ground
            // truth — vetoed variants show as null (∞ has no JSON form).
            tracer.instant(
                &format!("profile:{}", cv.name()),
                "profile",
                vec![
                    nitro_trace::arg("features", &features),
                    nitro_trace::arg("feature_cost_ns", &fcost),
                    nitro_trace::arg("costs", &costs),
                    nitro_trace::arg("allowed", &allowed),
                ],
            );
            tracer
                .metrics()
                .counter(&format!("profile.{}.inputs", cv.name()))
                .inc();
        }
        (features, fcost, costs, allowed)
    }

    /// Number of profiled inputs.
    pub fn len(&self) -> usize {
        self.costs.len()
    }

    /// True when the table holds no inputs.
    pub fn is_empty(&self) -> bool {
        self.costs.is_empty()
    }

    /// Number of variants profiled.
    pub fn n_variants(&self) -> usize {
        self.variant_names.len()
    }

    /// The best variant for one input, or `None` if every variant was
    /// vetoed / failed (e.g. no solver converged).
    pub fn best_variant(&self, input: usize) -> Option<usize> {
        let worst = self.objective.worst();
        let mut best: Option<(usize, f64)> = None;
        for (v, &c) in self.costs[input].iter().enumerate() {
            if c == worst || c.is_nan() {
                continue;
            }
            if best.is_none_or(|(_, bc)| self.objective.better(c, bc)) {
                best = Some((v, c));
            }
        }
        best.map(|(v, _)| v)
    }

    /// The best achievable objective value for one input.
    pub fn best_cost(&self, input: usize) -> Option<f64> {
        self.best_variant(input).map(|v| self.costs[input][v])
    }

    /// Exhaustive-search labels for all inputs (inputs where no variant
    /// succeeded are dropped; the returned pairs are `(input, label)`).
    pub fn labels(&self) -> Vec<(usize, usize)> {
        (0..self.len())
            .filter_map(|i| self.best_variant(i).map(|v| (i, v)))
            .collect()
    }

    /// Relative performance (paper's "% of best") of running `variant` on
    /// `input`: 1.0 = matched exhaustive search, 0.0 = failed/vetoed.
    pub fn relative_perf(&self, input: usize, variant: usize) -> f64 {
        let Some(best) = self.best_cost(input) else {
            return 0.0;
        };
        let c = self.costs[input][variant];
        if c == self.objective.worst() || c.is_nan() {
            return 0.0;
        }
        self.objective.relative(c, best)
    }

    /// The labeled dataset for model training: one example per input that
    /// has a well-defined best variant.
    pub fn dataset(&self) -> Dataset {
        let mut d = Dataset::new(self.n_variants());
        for (i, label) in self.labels() {
            d.push(self.features[i].clone(), label);
        }
        d
    }

    /// A copy of this table restricted to the given feature columns (by
    /// index into `feature_names`). Variant costs are untouched, so the
    /// Figure-8 feature-pruning study can retrain on subsets without
    /// paying for profiling again.
    ///
    /// # Panics
    /// Panics if any index is out of range.
    pub fn with_feature_subset(&self, indices: &[usize]) -> ProfileTable {
        let mut out = self.clone();
        out.feature_names = indices
            .iter()
            .map(|&i| self.feature_names[i].clone())
            .collect();
        out.features = self
            .features
            .iter()
            .map(|row| indices.iter().map(|&i| row[i]).collect())
            .collect();
        out
    }

    /// Borrow this table as a [`nitro_audit::ProfileView`] for the
    /// profile analyzer. `function` names the diagnostics' subject (the
    /// table itself doesn't record which function it profiled).
    pub fn audit_view<'a>(&'a self, function: &'a str) -> nitro_audit::ProfileView<'a> {
        nitro_audit::ProfileView {
            function,
            objective: self.objective,
            variant_names: &self.variant_names,
            feature_names: &self.feature_names,
            costs: &self.costs,
            features: &self.features,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nitro_core::{Context, FnConstraint, FnFeature, FnVariant};

    /// Toy function: variant 0 costs x, variant 1 costs 10 − x.
    fn toy() -> CodeVariant<f64> {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("toy", &ctx);
        cv.add_variant(FnVariant::new("rising", |&x: &f64| x));
        cv.add_variant(FnVariant::new("falling", |&x: &f64| 10.0 - x));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));
        cv
    }

    #[test]
    fn builds_costs_and_labels() {
        let cv = toy();
        let inputs = vec![1.0, 4.0, 6.0, 9.0];
        let t = ProfileTable::build(&cv, &inputs);
        assert_eq!(t.len(), 4);
        assert_eq!(t.best_variant(0), Some(0)); // cost 1 vs 9
        assert_eq!(t.best_variant(3), Some(1)); // cost 9 vs 1
        let labels: Vec<usize> = t.labels().into_iter().map(|(_, l)| l).collect();
        assert_eq!(labels, vec![0, 0, 1, 1]);
    }

    #[test]
    fn constraint_veto_maps_to_worst_cost() {
        let mut cv = toy();
        cv.add_constraint(1, FnConstraint::new("never", |_: &f64| false))
            .unwrap();
        let t = ProfileTable::build(&cv, &[9.0]);
        assert_eq!(t.costs[0][1], f64::INFINITY);
        assert!(!t.allowed[0][1]);
        assert_eq!(t.best_variant(0), Some(0));
    }

    #[test]
    fn failing_variant_is_labeled_from_survivors() {
        // Variant 1 panics for x > 5 (a "crashes on large inputs" bug):
        // profiling must survive and label those inputs from variant 0.
        let ctx = Context::new();
        let mut cv = CodeVariant::new("fragile", &ctx);
        cv.add_variant(FnVariant::new("steady", |&x: &f64| x));
        cv.add_variant(FnVariant::new("crashy", |&x: &f64| {
            if x > 5.0 {
                panic!("injected variant failure: 'crashy'");
            }
            x * 0.5
        }));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));

        let t = ProfileTable::build(&cv, &[2.0, 4.0, 8.0, 9.0]);
        // Small inputs: crashy executed and won.
        assert!(t.allowed[0][1] && t.allowed[1][1]);
        assert_eq!(t.best_variant(0), Some(1));
        // Large inputs: crashy failed — worst cost, not allowed, label
        // comes from the surviving variant.
        assert_eq!(t.costs[2][1], f64::INFINITY);
        assert!(!t.allowed[2][1]);
        assert_eq!(t.best_variant(2), Some(0));
        let labels: Vec<usize> = t.labels().into_iter().map(|(_, l)| l).collect();
        assert_eq!(labels, vec![1, 1, 0, 0]);
    }

    #[test]
    fn input_where_every_variant_fails_is_dropped() {
        let ctx = Context::new();
        let mut cv = CodeVariant::new("doomed", &ctx);
        cv.add_variant(FnVariant::new("a", |&x: &f64| {
            if x > 5.0 {
                panic!("injected variant failure: 'a'");
            }
            x
        }));
        cv.add_variant(FnVariant::new("b", |&_x: &f64| f64::NAN));
        cv.set_default(0);
        cv.add_input_feature(FnFeature::new("x", |&x: &f64| x));

        let t = ProfileTable::build(&cv, &[1.0, 9.0]);
        assert_eq!(t.best_variant(1), None, "no survivor on input 1");
        assert_eq!(t.labels(), vec![(0, 0)]);
        // The failure counter reaches the tracer when one is installed.
        let tracer = nitro_trace::Tracer::new(std::sync::Arc::new(nitro_trace::RingSink::new(64)));
        cv.context().install_tracer(tracer.clone());
        ProfileTable::profile_one(&cv, &9.0);
        assert_eq!(
            tracer.metrics().counter_value("profile.doomed.failures"),
            Some(2)
        );
        cv.context().clear_tracer();
    }

    #[test]
    fn all_vetoed_input_has_no_label() {
        let mut cv = toy();
        cv.add_constraint(0, FnConstraint::new("no0", |_: &f64| false))
            .unwrap();
        cv.add_constraint(1, FnConstraint::new("no1", |_: &f64| false))
            .unwrap();
        let t = ProfileTable::build(&cv, &[5.0]);
        assert_eq!(t.best_variant(0), None);
        assert!(t.labels().is_empty());
        assert_eq!(t.relative_perf(0, 0), 0.0);
    }

    #[test]
    fn relative_perf_matches_cost_ratio() {
        let cv = toy();
        let t = ProfileTable::build(&cv, &[2.0]); // costs [2, 8]
        assert_eq!(t.relative_perf(0, 0), 1.0);
        assert_eq!(t.relative_perf(0, 1), 0.25);
    }

    #[test]
    fn dataset_has_one_row_per_labeled_input() {
        let cv = toy();
        let t = ProfileTable::build(&cv, &[1.0, 9.0]);
        let d = t.dataset();
        assert_eq!(d.len(), 2);
        assert_eq!(d.n_classes, 2);
        assert_eq!(d.x[0], vec![1.0]);
    }

    #[test]
    fn feature_subset_slices_columns_only() {
        let mut cv = toy();
        cv.add_input_feature(FnFeature::new("x2", |&x: &f64| x * x));
        let t = ProfileTable::build(&cv, &[2.0, 3.0]);
        let s = t.with_feature_subset(&[1]);
        assert_eq!(s.feature_names, vec!["x2".to_string()]);
        assert_eq!(s.features, vec![vec![4.0], vec![9.0]]);
        assert_eq!(s.costs, t.costs);
    }

    #[test]
    fn maximize_objective_flips_best() {
        let mut cv = toy();
        cv.policy_mut().objective = Objective::Maximize;
        let t = ProfileTable::build(&cv, &[1.0]); // values [1, 9]
        assert_eq!(t.best_variant(0), Some(1));
        assert!((t.relative_perf(0, 0) - 1.0 / 9.0).abs() < 1e-12);
    }
}
