//! Criterion bench: the fluid-fabric kernels — max-min progressive filling
//! and Varys SEBF allocation — at realistic flow counts, plus end-to-end
//! fabric drain throughput.

use corral_model::{Bytes, ClusterConfig, MachineId};
use corral_simnet::allocator::{AllocScratch, FlowTable, RateAllocator};
use corral_simnet::{CoflowId, LinkId, Topology};
use corral_simnet::{Fabric, FairShare, FlowKind, FlowSpec, FlowTag, VarysSebf};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

/// A deterministic set of `n` flows on the testbed topology in the CSR
/// form the fabric hands its allocators.
struct FlowSet {
    flow_off: Vec<u32>,
    flow_links: Vec<LinkId>,
    remaining: Vec<f64>,
    coflow: Vec<Option<CoflowId>>,
}

impl FlowSet {
    fn new(topo: &Topology, n: usize) -> Self {
        let m = topo.config().total_machines();
        let mut set = FlowSet {
            flow_off: vec![0],
            flow_links: Vec::new(),
            remaining: Vec::with_capacity(n),
            coflow: Vec::with_capacity(n),
        };
        for i in 0..n {
            let src = MachineId(((i * 37) % m) as u32);
            let dst = MachineId(((i * 101 + 13) % m) as u32);
            if src == dst {
                continue;
            }
            set.flow_links
                .extend_from_slice(topo.path(src, dst).as_slice());
            set.flow_off.push(set.flow_links.len() as u32);
            set.remaining.push(Bytes::mb(64.0 + (i % 100) as f64).0);
            set.coflow.push(Some(CoflowId((i % 24) as u64)));
        }
        set
    }

    fn table(&self) -> FlowTable<'_> {
        FlowTable {
            flow_off: &self.flow_off,
            flow_links: &self.flow_links,
            remaining: &self.remaining,
            coflow: &self.coflow,
        }
    }
}

/// Times the two solves the simulator runs: the CSR max-min kernel over
/// the whole testbed graph as one component (the fair-share path's worst
/// case), and the from-scratch Varys SEBF + MADD + backfill solve (the
/// coflow path's cold-cache / oracle solve).
fn bench_allocators(c: &mut Criterion) {
    let topo = Topology::new(ClusterConfig::testbed_210());
    let caps: Vec<f64> = topo
        .links()
        .iter()
        .map(|l| l.effective_capacity().0)
        .collect();
    let mut group = c.benchmark_group("rate_allocation");
    for &n in &[500usize, 2000] {
        let set = FlowSet::new(&topo, n);
        let table = set.table();
        let mut rates = vec![0.0; table.len()];
        let mut scratch = AllocScratch::new();

        group.bench_with_input(BenchmarkId::new("maxmin", n), &table, |b, table| {
            let mut alloc = FairShare;
            b.iter(|| alloc.allocate_component(&caps, table, &mut rates, &mut scratch));
        });
        group.bench_with_input(BenchmarkId::new("varys_sebf", n), &table, |b, table| {
            let mut alloc = VarysSebf;
            b.iter(|| alloc.allocate_from_scratch(topo.links(), table, &mut rates, &mut scratch));
        });
    }
    group.finish();
}

fn bench_fabric_drain(c: &mut Criterion) {
    c.bench_function("fabric_drain_1000_flows", |b| {
        b.iter(|| {
            let mut fabric = Fabric::new(ClusterConfig::testbed_210(), Box::new(FairShare));
            let m = fabric.topology().config().total_machines();
            for i in 0..1000u32 {
                fabric.start_flow(FlowSpec {
                    src: MachineId((i as usize * 29 % m) as u32),
                    dst: MachineId((i as usize * 53 + 7) as u32 % m as u32),
                    bytes: Bytes::mb(32.0),
                    tag: FlowTag::infrastructure(FlowKind::Shuffle),
                    coflow: None,
                });
            }
            let done = fabric.drain();
            assert_eq!(done.len(), 1000);
            done.len()
        })
    });
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(10);
    targets = bench_allocators, bench_fabric_drain
}
criterion_main!(benches);
