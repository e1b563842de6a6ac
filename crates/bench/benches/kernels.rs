//! Criterion benches of the simulated benchmark kernels: wall time here
//! is host simulation cost, and the reported simulated nanoseconds per
//! variant are printed by the figure binaries instead. These benches
//! guard against regressions in simulator throughput.

use criterion::{criterion_group, criterion_main, Criterion};
use nitro_simt::{DeviceConfig, Gpu};
use std::hint::black_box;

fn bench_spmv_kernels(c: &mut Criterion) {
    let csr = nitro_sparse::gen::banded(4_000, 4, 1.0, 7);
    let dia = nitro_sparse::dia::DiaMatrix::from_csr(&csr, 512).unwrap();
    let ell = nitro_sparse::ell::EllMatrix::from_csr(&csr, 8.0).unwrap();
    let x: Vec<f64> = (0..4_000).map(|i| (i as f64).cos() + 2.0).collect();
    let gpu = Gpu::new(DeviceConfig::fermi_c2050().noiseless());

    let mut g = c.benchmark_group("spmv_simulation");
    g.sample_size(30);
    g.bench_function("csr_vector_banded_4k", |b| {
        b.iter(|| nitro_sparse::spmv::spmv_csr_vector(black_box(&csr), &x, &gpu, false))
    });
    g.bench_function("dia_banded_4k", |b| {
        b.iter(|| nitro_sparse::spmv::spmv_dia(black_box(&dia), &x, &gpu, false))
    });
    g.bench_function("ell_banded_4k", |b| {
        b.iter(|| nitro_sparse::spmv::spmv_ell(black_box(&ell), &x, &gpu, false))
    });
    g.bench_function("csr_vector_tx_banded_4k", |b| {
        b.iter(|| nitro_sparse::spmv::spmv_csr_vector(black_box(&csr), &x, &gpu, true))
    });
    g.finish();
}

fn bench_bfs_kernels(c: &mut Criterion) {
    let grid = nitro_graph::gen::grid_2d(50, 50);
    let rmat = nitro_graph::gen::rmat(10, 16, 3);
    let cfg = DeviceConfig::fermi_c2050().noiseless();

    let mut g = c.benchmark_group("bfs_simulation");
    g.sample_size(30);
    g.bench_function("ce_fused_grid_2500", |b| {
        b.iter(|| {
            nitro_graph::run_bfs(
                black_box(&grid),
                0,
                nitro_graph::Strategy::ContractExpand,
                true,
                &cfg,
                1,
            )
        })
    });
    g.bench_function("two_phase_rmat_1024", |b| {
        b.iter(|| {
            nitro_graph::run_bfs(
                black_box(&rmat),
                1,
                nitro_graph::Strategy::TwoPhase,
                true,
                &cfg,
                1,
            )
        })
    });
    g.finish();
}

fn bench_histogram_kernels(c: &mut Criterion) {
    use nitro_histogram::{Mapping, Method};
    let uniform = nitro_histogram::data::generate("uniform", 100_000, 3, "b");
    let cfg = DeviceConfig::fermi_c2050().noiseless();

    let mut g = c.benchmark_group("histogram_simulation");
    g.sample_size(20);
    for (method, name) in [
        (Method::SharedAtomic, "shared_atomic"),
        (Method::GlobalAtomic, "global_atomic"),
        (Method::Sort, "sort_based"),
    ] {
        g.bench_function(&format!("{name}_uniform_100k"), |b| {
            b.iter(|| {
                nitro_histogram::run_variant(method, Mapping::EvenShare, black_box(&uniform), &cfg)
            })
        });
    }
    g.finish();
}

fn bench_sort_kernels(c: &mut Criterion) {
    use nitro_sort::Method;
    let cfg = DeviceConfig::fermi_c2050().noiseless();

    let mut g = c.benchmark_group("sort_simulation");
    g.sample_size(20);
    for category in ["uniform", "almost_sorted"] {
        for wide in [false, true] {
            let width = if wide { 64 } else { 32 };
            let keys = nitro_sort::keys::generate(category, 100_000, wide, 5, "b");
            for (method, name) in [
                (Method::Merge, "merge"),
                (Method::Locality, "locality"),
                (Method::Radix, "radix"),
            ] {
                g.bench_function(&format!("{name}_{category}_f{width}_100k"), |b| {
                    b.iter(|| nitro_sort::run_variant(method, black_box(&keys), &cfg))
                });
            }
        }
    }
    g.finish();
}

fn bench_solver(c: &mut Criterion) {
    let a = nitro_sparse::gen::make_spd(&nitro_sparse::gen::random_uniform(500, 5, 11), 1.3);
    let input = nitro_solvers::SolverInput::new("bench", "spd", a);
    let cfg = DeviceConfig::fermi_c2050().noiseless();

    let mut g = c.benchmark_group("solver_simulation");
    g.sample_size(20);
    g.bench_function("cg_jacobi_spd_500", |b| {
        b.iter(|| {
            nitro_solvers::run_variant(
                nitro_solvers::Method::Cg,
                nitro_solvers::Precond::Jacobi,
                black_box(&input),
                &cfg,
            )
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_spmv_kernels,
    bench_bfs_kernels,
    bench_histogram_kernels,
    bench_sort_kernels,
    bench_solver
);
criterion_main!(benches);
