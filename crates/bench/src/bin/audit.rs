//! Audit every benchmark suite: registration lint, tuned-artifact audit
//! and profile-table analysis, emitted as one JSON diagnostics report
//! plus one SARIF 2.1.0 log per suite.
//!
//! ```text
//! NITRO_SCALE=small cargo run -p nitro-bench --bin audit
//! NITRO_SCALE=small cargo run -p nitro-bench --bin audit -- --deep
//! ```
//!
//! Writes the report to stdout and `target/nitro-audit.json`, and SARIF
//! logs to `target/nitro-audit/<suite>.sarif`. Exits non-zero when any
//! error-severity finding survives — which, for the in-tree suites,
//! means a regression in either a benchmark registration or the audit
//! subsystem itself.
//!
//! `--deep` additionally runs the whole-configuration tuning-graph
//! analyses (`NITRO080`–`NITRO086`) over each suite, and self-tests the
//! analyzer against a deliberately-broken fixture: a registration whose
//! variant carries unsatisfiable predicate constraints **must** be
//! flagged `NITRO080`, otherwise the run fails. The fixture's expected
//! findings never count toward the exit code.

use nitro_audit::{
    analyze_graph, analyze_profile, audit_artifact_against, lint_registration, render_sarif,
    render_text, ProfileAuditConfig, Severity, TuningGraph,
};
use nitro_bench::error::{ensure_dir, exit_on_error, to_json_pretty, write_file, BenchResult};
use nitro_bench::{cached_table, for_each_suite, Suite, SuiteSpec, SuiteVisitor};
use nitro_core::diag::registry::codes;
use nitro_core::{CodeVariant, Context, Diagnostic, FnFeature, FnVariant, Predicate};
use nitro_tuner::Autotuner;
use serde::Serialize;

/// One suite's combined findings.
#[derive(Serialize)]
struct SuiteAudit {
    suite: String,
    errors: usize,
    warnings: usize,
    infos: usize,
    diagnostics: Vec<Diagnostic>,
}

/// Lint the registration, tune an artifact off the (cached) training
/// table, audit the artifact against the registration, analyze the
/// profile table, and — with `--deep` — run the whole-configuration
/// tuning-graph passes with the profile attached.
fn audit_suite<I: Send + Sync>(
    name: &str,
    cv: &mut CodeVariant<I>,
    train: &[I],
    spec: SuiteSpec,
    deep: bool,
) -> SuiteAudit {
    let mut diagnostics = lint_registration(cv, Some(train.len()));

    let table = cached_table(&spec.tag(name, "train"), cv, train, spec.cache);
    diagnostics.extend(analyze_profile(
        &table.audit_view(name),
        &ProfileAuditConfig::default(),
    ));

    match Autotuner::new().tune_from_table(cv, &table) {
        Ok(report) => {
            // The tuner re-runs the registration lint internally; keep
            // only the post-tune artifact findings it adds on top.
            match cv.export_artifact() {
                Ok(artifact) => diagnostics.extend(audit_artifact_against(&artifact, cv)),
                Err(e) => diagnostics.push(Diagnostic::error(
                    codes::NITRO001,
                    name,
                    format!("tuned model could not be exported: {e}"),
                )),
            }
            drop(report);
        }
        Err(e) => {
            // A refused tune carries its findings; surface them directly.
            let carried = e.diagnostics().to_vec();
            if carried.is_empty() {
                diagnostics.push(Diagnostic::error(
                    codes::NITRO001,
                    name,
                    format!("tuning failed: {e}"),
                ));
            } else {
                diagnostics.extend(carried);
            }
        }
    }

    if deep {
        let columns = cv.policy().active_features(cv.n_features());
        let rows = table.audit_view(name).features.to_vec();
        let graph = TuningGraph::from_code_variant(cv).with_profile(columns, rows);
        diagnostics.extend(analyze_graph(&graph));
    }

    // Overlapping analyzers may re-derive a finding; de-duplicate.
    diagnostics.dedup();
    let count = |s: Severity| diagnostics.iter().filter(|d| d.severity == s).count();
    SuiteAudit {
        suite: name.to_string(),
        errors: count(Severity::Error),
        warnings: count(Severity::Warning),
        infos: count(Severity::Info),
        diagnostics,
    }
}

struct Auditor {
    spec: SuiteSpec,
    deep: bool,
}

impl SuiteVisitor for Auditor {
    type Output = SuiteAudit;
    fn visit<I: Send + Sync + 'static>(
        &mut self,
        suite: Suite<'_, I>,
    ) -> BenchResult<Self::Output> {
        let mut cv = (suite.build)(&Context::new());
        Ok(audit_suite(
            suite.name,
            &mut cv,
            suite.train,
            self.spec,
            self.deep,
        ))
    }
}

/// A deliberately-broken registration: variant 1's predicate constraints
/// are jointly unsatisfiable, so the deep pass must prove it statically
/// dead (`NITRO080`). Exercising the analyzer against a known-bad input
/// guards the audit run itself against silent analyzer regressions.
fn dead_variant_fixture() -> SuiteAudit {
    let ctx = Context::new();
    let mut cv = CodeVariant::<f64>::new("dead-variant-fixture", &ctx);
    cv.add_variant(FnVariant::new("live", |&x: &f64| x));
    cv.add_variant(FnVariant::new("dead", |&x: &f64| x * 2.0));
    cv.set_default(0);
    cv.add_input_feature(FnFeature::new("n", |&x: &f64| x));
    cv.add_predicate_constraint(1, "needs_small", Predicate::le(0, 10.0))
        .expect("variant 1 exists");
    cv.add_predicate_constraint(1, "needs_large", Predicate::gt(0, 20.0))
        .expect("variant 1 exists");

    let graph = TuningGraph::from_code_variant(&cv);
    let diagnostics = analyze_graph(&graph);
    let count = |s: Severity| diagnostics.iter().filter(|d| d.severity == s).count();
    SuiteAudit {
        suite: "dead-variant-fixture".to_string(),
        errors: count(Severity::Error),
        warnings: count(Severity::Warning),
        infos: count(Severity::Info),
        diagnostics,
    }
}

fn main() {
    exit_on_error(run());
}

fn run() -> BenchResult<()> {
    let deep = std::env::args().any(|a| a == "--deep");
    let spec = SuiteSpec::from_env()?;
    let audits = for_each_suite(spec, &mut Auditor { spec, deep })?;

    // The analyzer self-test rides along in --deep runs. Its findings are
    // *expected* (that is the point) and excluded from the exit code; the
    // run instead fails when NITRO080 does NOT fire.
    let fixture = deep.then(dead_variant_fixture);

    let json = to_json_pretty("audit report", &audits)?;
    println!("{json}");

    let out = nitro_bench::cache_dir().join("../nitro-audit.json");
    write_file(&out, &json)?;
    eprintln!("report written to {}", out.display());

    // One SARIF 2.1.0 log per suite (CI uploads these as artifacts).
    let sarif_dir = nitro_bench::cache_dir().join("../nitro-audit");
    ensure_dir(&sarif_dir)?;
    let version = env!("CARGO_PKG_VERSION");
    for audit in audits.iter().chain(fixture.as_ref()) {
        let path = sarif_dir.join(format!("{}.sarif", audit.suite));
        write_file(&path, &render_sarif(&audit.diagnostics, version))?;
        eprintln!("SARIF log written to {}", path.display());
    }

    let mut total_errors = 0;
    for audit in &audits {
        eprintln!(
            "\n== {} ({} error(s), {} warning(s), {} info(s)) ==",
            audit.suite, audit.errors, audit.warnings, audit.infos
        );
        eprintln!("{}", render_text(&audit.diagnostics));
        total_errors += audit.errors;
    }
    if let Some(fixture) = &fixture {
        eprintln!(
            "\n== {} (analyzer self-test; findings expected) ==",
            fixture.suite
        );
        eprintln!("{}", render_text(&fixture.diagnostics));
        if !fixture.diagnostics.iter().any(|d| d.code == "NITRO080") {
            eprintln!(
                "\naudit failed: the deep pass did not flag the deliberately \
                 dead fixture variant with NITRO080"
            );
            std::process::exit(1);
        }
    }
    if total_errors > 0 {
        eprintln!("\naudit failed: {total_errors} error-severity finding(s)");
        std::process::exit(1);
    }
    Ok(())
}
