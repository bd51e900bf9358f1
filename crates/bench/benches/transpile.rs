//! Criterion benchmarks for the transpilation pipeline (layout → routing →
//! basis translation) on representative (workload, topology, basis) points.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use snailqc_decompose::BasisGate;
use snailqc_topology::catalog;
use snailqc_transpiler::{Pipeline, RoutingCache};
use snailqc_workloads::Workload;

fn bench_routing_16q(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile_16q");
    group.sample_size(20);
    let circuit = Workload::Qft.generate(16, 7);
    let cases = vec![
        ("heavy_hex_20", catalog::heavy_hex_20(), BasisGate::Cnot),
        (
            "square_lattice_16",
            catalog::square_lattice_16(),
            BasisGate::Syc,
        ),
        ("tree_20", catalog::tree_20(), BasisGate::SqrtISwap),
        ("corral12_16", catalog::corral12_16(), BasisGate::SqrtISwap),
        (
            "hypercube_16",
            catalog::hypercube_16(),
            BasisGate::SqrtISwap,
        ),
    ];
    for (name, graph, basis) in cases {
        let pipeline = Pipeline::builder().trials(2).translate_to(basis).build();
        group.bench_with_input(BenchmarkId::new("qft16", name), &graph, |b, g| {
            b.iter(|| {
                pipeline
                    .run(&circuit, g, None, &RoutingCache::new())
                    .unwrap()
            })
        });
    }
    group.finish();
}

fn bench_routing_large(c: &mut Criterion) {
    let mut group = c.benchmark_group("transpile_84q");
    group.sample_size(10);
    let circuit = Workload::QuantumVolume.generate(32, 7);
    let cases = vec![
        ("heavy_hex_84", catalog::heavy_hex_84()),
        ("tree_84", catalog::tree_84()),
        ("hypercube_84", catalog::hypercube_84()),
    ];
    for (name, graph) in cases {
        let pipeline = Pipeline::builder()
            .trials(1)
            .translate_to(BasisGate::SqrtISwap)
            .build();
        group.bench_with_input(BenchmarkId::new("qv32", name), &graph, |b, g| {
            b.iter(|| {
                pipeline
                    .run(&circuit, g, None, &RoutingCache::new())
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_routing_16q, bench_routing_large);
criterion_main!(benches);
