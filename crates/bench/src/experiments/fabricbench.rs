//! Fabric hot-path microbenchmark: times the event loop of the flow-level
//! simulator under synthetic arrival/completion churn at several cluster
//! scales, comparing the optimized CSR max-min path
//! ([`corral_simnet::FairShare`]) against the pre-optimization reference
//! ([`corral_simnet::ReferenceFairShare`]), plus one interleaved Varys
//! cell pair — the coflow-incremental fabric with the from-scratch shadow
//! oracle armed ([`Fabric::set_full_oracle`]) against the same fabric
//! with it off — and one real fig6-shaped scheduling cell (Corral on the
//! W1 smoke workload, `Tcp` vs `TcpReference`). Writes `BENCH_fabric.json` in the working
//! directory (each synthetic cell carries a `policy` field).
//!
//! Not part of `repro all` (it times the simulator, not a paper artifact);
//! CI runs `repro fabricbench` as a perf-smoke step. Because both
//! allocators are bit-identical by construction, the *recompute counts* of
//! every cell are deterministic; they are embedded below as golden values
//! and any drift fails the run — a cheap end-to-end tripwire for
//! accidental changes to event ordering or rate arithmetic. Wall-clock
//! numbers are recorded but never asserted (CI timing is noisy).
//!
//! Regenerate the golden table after an *intentional* event-order change
//! by running with `CORRAL_FABRICBENCH_BLESS=1` and pasting the printed
//! constants.

use crate::runner::{run_variant, RunConfig, Variant};
use crate::table;
use corral_cluster::config::NetPolicy;
use corral_core::Objective;
use corral_model::{Bytes, ClusterConfig, MachineId, SimTime};
use corral_simnet::{
    CoflowId, Fabric, FairShare, FlowKind, FlowSpec, FlowTag, RateAllocator, ReferenceFairShare,
    VarysSebf,
};
use corral_trace::CounterSet;
use corral_workloads::{assign_uniform_arrivals, w1};
use std::time::Instant;

/// One synthetic churn scale.
struct ScaleSpec {
    name: &'static str,
    racks: usize,
    machines_per_rack: usize,
    /// Concurrent flows maintained throughout the run.
    concurrency: usize,
    /// Flow completions to process before stopping the clock.
    completions: u64,
    seed: u64,
}

/// Small / medium / large synthetic fabrics. The large scale (20 racks ×
/// 16 machines, 640 concurrent flows) was the original acceptance cell
/// (CSR ≥ 2× over reference). Since the incremental fabric landed, both
/// allocators share the component decomposition and only the per-component
/// kernel differs, so the gap here is structurally smaller; the scale-out
/// story lives in fig14-xl (`BENCH_scale.json`) instead.
const SCALES: [ScaleSpec; 3] = [
    ScaleSpec {
        name: "small",
        racks: 3,
        machines_per_rack: 4,
        concurrency: 48,
        completions: 4000,
        seed: 0xFAB_0001,
    },
    ScaleSpec {
        name: "medium",
        racks: 10,
        machines_per_rack: 16,
        concurrency: 512,
        completions: 6000,
        seed: 0xFAB_0002,
    },
    ScaleSpec {
        name: "large",
        racks: 20,
        machines_per_rack: 16,
        concurrency: 640,
        completions: 12000,
        seed: 0xFAB_0003,
    },
];

/// Golden recompute counts per synthetic scale (identical for both
/// allocators — that identity is itself asserted). Drift here means the
/// fabric's event ordering or rate arithmetic changed; bless deliberately
/// (see module docs) or find the regression.
const GOLDEN_RECOMPUTES: [(&str, u64); 3] = [("small", 7996), ("medium", 11954), ("large", 23940)];

/// Golden recompute counts of the coflow-incremental Varys pass (identical
/// with the oracle armed or not — that identity is itself asserted).
/// `varys-small` backs the perfreport tripwire, `varys-medium` the
/// interleaved bench cell.
const GOLDEN_VARYS_RECOMPUTES: [(&str, u64); 2] = [("varys-small", 7913), ("varys-medium", 11904)];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Starts one flow: sources cycle round-robin over the machines and every
/// flow goes to the same position in the next rack, so per-link flow
/// counts stay near-uniform (the balanced all-to-all traffic of a large
/// shuffle) and every flow crosses the oversubscribed core — the regime
/// the paper's fluid simulations exercise hardest. Sizes are random
/// (8–263 MB), so completion *order* — and with it the churn the
/// allocator sees — stays irregular. Roughly half the flows are grouped
/// into one of 24 coflows.
fn spawn_flow(
    fab: &mut Fabric,
    total_machines: u64,
    machines_per_rack: u64,
    seq: &mut u64,
    rng: &mut u64,
) {
    let src = *seq % total_machines;
    *seq += 1;
    let dst = (src + machines_per_rack) % total_machines;
    let bytes = Bytes::mb(8.0 + (splitmix64(rng) % 256) as f64);
    let group = splitmix64(rng) % 48;
    let coflow = (group < 24).then_some(CoflowId(group));
    fab.start_flow(FlowSpec {
        src: MachineId::from_index(src as usize),
        dst: MachineId::from_index(dst as usize),
        bytes,
        tag: FlowTag::infrastructure(FlowKind::Shuffle),
        coflow,
    });
}

/// Result of one (scale, allocator) churn cell.
struct CellResult {
    wall_s: f64,
    events: u64,
    recomputes: u64,
    maxmin_rounds: u64,
    scratch_grows: u64,
}

impl CellResult {
    fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall_s.max(1e-9)
    }

    /// Mean waterfilling rounds per recompute — the per-event cost the
    /// incremental fabric is supposed to hold flat as scale grows.
    fn rounds_per_recompute(&self) -> f64 {
        self.maxmin_rounds as f64 / self.recomputes.max(1) as f64
    }
}

/// Wall-clock repetitions per cell. Reference and CSR passes are
/// interleaved (one pair per repeat) so both see the same host
/// conditions; the reported speedup is the *median of per-pair ratios*,
/// which is robust to load bursts that would skew a ratio of two
/// independently-taken minima. Per-allocator walls report the minimum.
const REPEATS: usize = 7;

/// Runs one churn pass: fill the fabric to `concurrency` flows, then
/// replace every completed flow with a fresh one until `completions`
/// events have been processed, timing the whole event loop.
fn run_once(sc: &ScaleSpec, allocator: Box<dyn RateAllocator>) -> CellResult {
    run_once_with(sc, allocator, false)
}

/// [`run_once`] with the shadow oracle selectable: `oracle` re-solves the
/// whole alive flow set from scratch after every recompute (asserting
/// rate-bit equality) — the full-solve side of the Varys pair.
fn run_once_with(sc: &ScaleSpec, allocator: Box<dyn RateAllocator>, oracle: bool) -> CellResult {
    let cfg = ClusterConfig {
        racks: sc.racks,
        machines_per_rack: sc.machines_per_rack,
        ..ClusterConfig::tiny_test()
    };
    let nm = cfg.total_machines() as u64;
    let mpr = cfg.machines_per_rack as u64;
    let mut fab = Fabric::new(cfg, allocator);
    fab.set_full_oracle(oracle);
    let mut rng = sc.seed;
    let mut seq = 0u64;
    for _ in 0..sc.concurrency {
        spawn_flow(&mut fab, nm, mpr, &mut seq, &mut rng);
    }
    let mut done = Vec::new();
    let mut events = 0u64;
    let t0 = Instant::now();
    while events < sc.completions {
        let Some(tc) = fab.next_completion() else {
            break;
        };
        done.clear();
        fab.advance_collect(tc, &mut done);
        events += done.len() as u64;
        for _ in 0..done.len() {
            spawn_flow(&mut fab, nm, mpr, &mut seq, &mut rng);
        }
    }
    let wall_s = t0.elapsed().as_secs_f64();
    let st = fab.stats();
    CellResult {
        wall_s,
        events,
        recomputes: st.recomputes,
        maxmin_rounds: st.maxmin_rounds,
        scratch_grows: st.scratch_grows,
    }
}

/// Runs one scale [`REPEATS`] times as back-to-back (reference, CSR)
/// pairs with a fresh fabric each pass. Every pass is deterministic, so
/// the event/recompute counters must agree across repeats *and* across
/// allocators (asserted — the runtime form of the bit-identity claim).
/// Returns (reference best, CSR best, median paired speedup).
fn run_pair(sc: &ScaleSpec) -> (CellResult, CellResult, f64) {
    let mut best_ref: Option<CellResult> = None;
    let mut best_csr: Option<CellResult> = None;
    let mut ratios = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let r = run_once(sc, Box::new(ReferenceFairShare));
        let c = run_once(sc, Box::new(FairShare));
        assert_eq!(
            r.events, c.events,
            "{}: allocators disagree on completion count",
            sc.name
        );
        assert_eq!(
            r.recomputes, c.recomputes,
            "{}: allocators disagree on recompute count (bit-identity broken?)",
            sc.name
        );
        if let Some(b) = &best_ref {
            assert_eq!(b.events, r.events, "{}: non-deterministic repeat", sc.name);
            assert_eq!(
                b.recomputes, r.recomputes,
                "{}: non-deterministic repeat",
                sc.name
            );
        }
        ratios.push(r.wall_s / c.wall_s.max(1e-9));
        if best_ref.as_ref().is_none_or(|b| r.wall_s < b.wall_s) {
            best_ref = Some(r);
        }
        if best_csr.as_ref().is_none_or(|b| c.wall_s < b.wall_s) {
            best_csr = Some(c);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    (best_ref.unwrap(), best_csr.unwrap(), speedup)
}

/// Runs one scale as interleaved (oracle-armed, plain) Varys pairs —
/// same churn script, same coflow tagging, the from-scratch oracle on
/// one side only. The oracle is observation-only, so both sides must
/// agree on events and recomputes, within each pair and across repeats
/// (asserted). Returns (oracle-armed best, plain best, median paired
/// speedup).
fn run_varys_pair(sc: &ScaleSpec) -> (CellResult, CellResult, f64) {
    let mut best_full: Option<CellResult> = None;
    let mut best_inc: Option<CellResult> = None;
    let mut ratios = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let f = run_once_with(sc, Box::new(VarysSebf), true);
        let c = run_once_with(sc, Box::new(VarysSebf), false);
        assert_eq!(
            (f.events, f.recomputes),
            (c.events, c.recomputes),
            "{}: oracle-armed Varys pass diverged from the plain pass",
            sc.name
        );
        if let Some(b) = &best_inc {
            assert_eq!(b.events, c.events, "{}: non-deterministic repeat", sc.name);
            assert_eq!(
                b.recomputes, c.recomputes,
                "{}: non-deterministic repeat",
                sc.name
            );
        }
        ratios.push(f.wall_s / c.wall_s.max(1e-9));
        if best_full.as_ref().is_none_or(|b| f.wall_s < b.wall_s) {
            best_full = Some(f);
        }
        if best_inc.as_ref().is_none_or(|b| c.wall_s < b.wall_s) {
            best_inc = Some(c);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    (best_full.unwrap(), best_inc.unwrap(), speedup)
}

/// One small-scale churn pass on the CSR allocator, for `repro
/// perfreport`: populates the fabric probe spans and counters with live
/// data. Returns `(recomputes, golden_recomputes)` so the report can
/// re-check the small-cell tripwire without re-running the full bench.
pub(crate) fn probe_cell_small() -> (u64, u64) {
    let c = run_once(&SCALES[0], Box::new(FairShare));
    (c.recomputes, GOLDEN_RECOMPUTES[0].1)
}

/// The Varys companion to [`probe_cell_small`]: one oracle-armed and one
/// plain coflow-incremental churn pass at the small scale, so the probe
/// report sees the split recompute counters
/// (`fabric.recompute_full_boundary` / `fabric.recompute_incremental`)
/// and the `fabric.varys_scratch_elems` gauge. The two passes must agree
/// on recomputes (asserted — the oracle is observation-only). Returns the
/// plain pass's `(recomputes, golden_recomputes)` tripwire pair.
pub(crate) fn probe_cell_varys() -> (u64, u64) {
    let f = run_once_with(&SCALES[0], Box::new(VarysSebf), true);
    let c = run_once_with(&SCALES[0], Box::new(VarysSebf), false);
    assert_eq!(
        f.recomputes, c.recomputes,
        "varys-small: oracle-armed pass diverged from the plain pass"
    );
    (c.recomputes, GOLDEN_VARYS_RECOMPUTES[0].1)
}

/// The fig6-shaped real cell: Corral on the W1 smoke workload (same jobset
/// family sweepbench uses), timed under `Tcp` and `TcpReference`. Returns
/// (tcp_s, reference_s, summaries_identical).
fn run_fig6_cell() -> (f64, f64, bool) {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 40,
            bytes_per_task: 512e6,
            ..w1::W1Params::with_seed(0xA001)
        },
        crate::experiments::bench_scale(),
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(20.0), 0x1);
    let time_with = |net: NetPolicy| {
        let mut rc = RunConfig::testbed(Objective::Makespan);
        rc.params.net = net;
        let t0 = Instant::now();
        let r = run_variant(Variant::Corral, &jobs, &rc);
        (t0.elapsed().as_secs_f64(), r.summary.to_string())
    };
    let (tcp_s, tcp_summary) = time_with(NetPolicy::Tcp);
    let (ref_s, ref_summary) = time_with(NetPolicy::TcpReference);
    (tcp_s, ref_s, tcp_summary == ref_summary)
}

/// Runs the synthetic scales under both allocators plus the fig6-shaped
/// cell, checks golden recompute counts, and writes `BENCH_fabric.json`.
pub fn main() {
    table::section("fabricbench: fabric event-loop, reference vs CSR fast path");
    let bless = std::env::var_os("CORRAL_FABRICBENCH_BLESS").is_some();
    let counters = CounterSet::new(&[
        "fabric.completions",
        "fabric.recomputes",
        "fabric.maxmin_rounds",
        "fabric.scratch_grows",
    ]);

    table::row(&[
        "scale", "alloc", "events", "wall", "events/s", "recomp", "rounds", "grows", "speedup",
    ]);
    let mut cell_json = Vec::new();
    let mut drift = Vec::new();
    for sc in &SCALES {
        let (reference, optimized, speedup) = run_pair(sc);
        counters.add("fabric.completions", optimized.events);
        counters.add("fabric.recomputes", optimized.recomputes);
        counters.add("fabric.maxmin_rounds", optimized.maxmin_rounds);
        counters.add("fabric.scratch_grows", optimized.scratch_grows);
        for (label, c) in [("reference", &reference), ("csr", &optimized)] {
            table::row(&[
                sc.name.to_string(),
                label.to_string(),
                c.events.to_string(),
                table::secs(c.wall_s),
                format!("{:.0}", c.events_per_sec()),
                c.recomputes.to_string(),
                c.maxmin_rounds.to_string(),
                c.scratch_grows.to_string(),
                if label == "csr" {
                    format!("{speedup:.2}x")
                } else {
                    "-".into()
                },
            ]);
        }
        let golden = GOLDEN_RECOMPUTES
            .iter()
            .find(|(n, _)| *n == sc.name)
            .map(|&(_, v)| v)
            .unwrap();
        if optimized.recomputes != golden {
            drift.push(format!(
                "{}: recomputes {} != golden {}",
                sc.name, optimized.recomputes, golden
            ));
        }
        cell_json.push(format!(
            "    {{\"scale\": \"{}\", \"policy\": \"fair\", \"events\": {}, \
             \"reference_s\": {:.3}, \
             \"csr_s\": {:.3}, \"speedup\": {:.3}, \"recomputes\": {}, \
             \"maxmin_rounds\": {}, \"rounds_per_recompute\": {:.3}, \
             \"scratch_grows\": {}}}",
            sc.name,
            optimized.events,
            reference.wall_s,
            optimized.wall_s,
            speedup,
            optimized.recomputes,
            optimized.maxmin_rounds,
            optimized.rounds_per_recompute(),
            optimized.scratch_grows,
        ));
        if sc.name == "large" && speedup < 2.0 {
            println!("   warning: large-scale speedup {speedup:.2}x below the 2x target");
        }
    }

    // Varys pair: the coflow-incremental fabric with the from-scratch
    // oracle armed (a full SEBF solve per recompute on top of the
    // incremental one) against the plain one, medium scale, same
    // interleaved-pair protocol as the fair cells.
    {
        let sc = &SCALES[1];
        let (full, inc, speedup) = run_varys_pair(sc);
        for (label, c) in [("oracle", &full), ("coflow", &inc)] {
            table::row(&[
                "varys-med".to_string(),
                label.to_string(),
                c.events.to_string(),
                table::secs(c.wall_s),
                format!("{:.0}", c.events_per_sec()),
                c.recomputes.to_string(),
                c.maxmin_rounds.to_string(),
                c.scratch_grows.to_string(),
                if label == "coflow" {
                    format!("{speedup:.2}x")
                } else {
                    "-".into()
                },
            ]);
        }
        let golden = GOLDEN_VARYS_RECOMPUTES[1].1;
        if inc.recomputes != golden {
            drift.push(format!(
                "varys-medium: recomputes {} != golden {golden}",
                inc.recomputes
            ));
        }
        cell_json.push(format!(
            "    {{\"scale\": \"medium\", \"policy\": \"varys\", \"events\": {}, \
             \"reference_s\": {:.3}, \
             \"csr_s\": {:.3}, \"speedup\": {:.3}, \"recomputes\": {}, \
             \"maxmin_rounds\": {}, \"rounds_per_recompute\": {:.3}, \
             \"scratch_grows\": {}}}",
            inc.events,
            full.wall_s,
            inc.wall_s,
            speedup,
            inc.recomputes,
            inc.maxmin_rounds,
            inc.rounds_per_recompute(),
            inc.scratch_grows,
        ));
    }

    let (tcp_s, ref_s, identical) = run_fig6_cell();
    assert!(
        identical,
        "fig6-shaped cell: Tcp and TcpReference summaries differ (bit-identity broken)"
    );
    let fig6_speedup = ref_s / tcp_s.max(1e-9);
    table::row(&[
        "fig6-w1".into(),
        "engine".into(),
        "-".into(),
        table::secs(tcp_s),
        "-".into(),
        "-".into(),
        "-".into(),
        "-".into(),
        format!("{fig6_speedup:.2}x"),
    ]);

    for (name, v) in counters.snapshot() {
        println!("   {name} = {v}");
    }

    if !drift.is_empty() {
        if bless {
            println!(
                "   bless mode: update GOLDEN_RECOMPUTES / GOLDEN_VARYS_RECOMPUTES \
                 to the counts above"
            );
        } else {
            panic!(
                "fabricbench recompute-counter drift:\n  {}",
                drift.join("\n  ")
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"fabric_fast_path\",\n  \"cells\": [\n{}\n  ],\n  \
         \"fig6_cell\": {{\"variant\": \"corral\", \"workload\": \"w1_smoke\", \
         \"tcp_s\": {tcp_s:.3}, \"tcp_reference_s\": {ref_s:.3}, \
         \"speedup\": {fig6_speedup:.3}, \"identical\": {identical}}}\n}}\n",
        cell_json.join(",\n")
    );
    std::fs::write("BENCH_fabric.json", &json).expect("write BENCH_fabric.json");
    println!("   wrote BENCH_fabric.json");
}
