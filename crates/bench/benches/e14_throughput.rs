//! E14 bench target: checks the cells' virtual-time invariants, prints
//! the kernel-throughput table, writes the `BENCH_e14.json` artifact, and
//! micro-measures the routing primitives — a cache-hit resolve vs a fresh
//! Dijkstra on the sparse topology.

use aas_sim::network::{RouteCache, RouteScratch, Topology};
use aas_sim::node::NodeId;
use aas_sim::time::SimDuration;
use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn bench(c: &mut Criterion) {
    let cells = aas_bench::e14::cells();
    // Virtual-time facts of the serial kernel that hold on any host: a
    // rerun reproduces every count, and without faults every send is
    // delivered and the route cache is never flushed.
    for (c, again) in cells.iter().zip(aas_bench::e14::cells()) {
        let w = c.workload;
        assert_eq!(c.events, again.events, "{w}: rerun changed the events");
        assert_eq!(c.invalidations, again.invalidations, "{w}: rerun");
        if !c.faults {
            assert_eq!(c.events, 2 * c.msgs, "{w}: every send delivered");
            assert_eq!(c.invalidations, 0, "{w}: no faults, no flush");
        }
    }
    println!("{}", aas_bench::e14::run());
    // Cargo runs bench binaries with cwd = the package root, so the
    // artifact lands at crates/bench/BENCH_e14.json.
    let json = aas_bench::e14::to_json(&cells);
    if let Err(e) = std::fs::write("BENCH_e14.json", &json) {
        eprintln!("could not write BENCH_e14.json: {e}");
    }

    let topo = Topology::clique(16, 100.0, SimDuration::from_millis(2), 1e7);
    let (src, dst) = (NodeId(0), NodeId(9));

    let mut cache = RouteCache::new(&topo);
    cache.resolve(&topo, src, dst, 256);
    c.bench_function("e14/route_cache_hit", |b| {
        b.iter(|| black_box(cache.resolve(&topo, black_box(src), black_box(dst), 256)))
    });

    let mut scratch = RouteScratch::default();
    c.bench_function("e14/dijkstra_scratch_clique16", |b| {
        b.iter(|| black_box(topo.route_with(black_box(src), black_box(dst), 256, &mut scratch)))
    });

    c.bench_function("e14/dijkstra_alloc_clique16", |b| {
        b.iter(|| black_box(topo.route(black_box(src), black_box(dst), 256)))
    });
}

criterion_group!(benches, bench);
criterion_main!(benches);
