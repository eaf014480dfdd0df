//! Benchmarks of the dataflow discrete-event simulator and its analytic
//! shortcut — the substrate behind the Fig 5 timing numbers.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use fem_mesh::{PartitionStrategy, ShardPlan};
use fem_solver::engine::{emulate_plan_banked, shard_streams};
use fem_solver::Scenario;
use fpga_platform::{BankAssignment, MemorySystem};
use hls_dataflow::analytic::analytic_makespan;
use hls_dataflow::network::{ChannelKind, Network, NetworkBuilder};
use hls_dataflow::sim::simulate;

fn rkl_like_network(tokens: u64) -> Network {
    let mut b = NetworkBuilder::new();
    let c1 = b.channel("load_compute", 8, ChannelKind::Fifo);
    let c2 = b.channel("compute_store", 8, ChannelKind::Fifo);
    b.task("load", 8, 21, vec![], vec![c1]);
    b.task("compute", 32, 96, vec![c1], vec![c2]);
    b.task("store", 8, 21, vec![c2], vec![]);
    b.build(tokens).unwrap()
}

fn bench_des(c: &mut Criterion) {
    let mut group = c.benchmark_group("dataflow_des");
    for tokens in [1_000u64, 10_000, 100_000] {
        let net = rkl_like_network(tokens);
        group.throughput(Throughput::Elements(tokens));
        group.bench_with_input(BenchmarkId::from_parameter(tokens), &net, |b, net| {
            b.iter(|| simulate(net).unwrap().makespan);
        });
    }

    // The contended banked network of the accelerator model: the TGV
    // edge-16 mesh in 32 shards, each a 20-task pipeline issuing its 18
    // streams round-robin over the 32 HBM2 pseudo-channels (640 tasks;
    // the time includes building the network, the throughput counts the
    // banked tokens).
    let mesh = Scenario::taylor_green().mesh(16).unwrap();
    let npe = mesh.nodes_per_element() as u64;
    let plan = ShardPlan::with_strategy(&mesh, 32, 4096, PartitionStrategy::Partitioned).unwrap();
    let hbm = MemorySystem::u280_hbm2();
    let rr = BankAssignment::round_robin(&shard_streams(&plan, npe), &hbm);
    let tokens: u64 = emulate_plan_banked(&plan, npe, &hbm, &rr)
        .unwrap()
        .bank_stats
        .iter()
        .map(|b| b.tokens)
        .sum();
    group.throughput(Throughput::Elements(tokens));
    group.bench_function("banked_hbm_rr_32_shards", |b| {
        b.iter(|| {
            emulate_plan_banked(&plan, npe, &hbm, &rr)
                .unwrap()
                .makespan_cycles
        });
    });
    group.finish();

    let net = rkl_like_network(4_200_000);
    c.bench_function("analytic_makespan_4.2M", |b| {
        b.iter(|| analytic_makespan(&net));
    });
}

criterion_group!(benches, bench_des);
criterion_main!(benches);
