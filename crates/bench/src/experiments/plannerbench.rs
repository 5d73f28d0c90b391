//! Planner hot-path microbenchmark: times the provisioning loop —
//! `1 + J·(R−1)` candidate allocations, each scored by a full
//! prioritization pass — comparing the fast path (heap-enumerated
//! trajectory, persistent scratch, serial scoring;
//! [`corral_core::provision()`]) against the frozen oracle
//! ([`corral_core::provision_reference`]), plus one replan-shaped real
//! cell (W1 online, pins anchored to an initial forecast plan, the
//! average-completion objective — the exact shape `repro replan` reruns
//! every 5 simulated minutes). Writes `BENCH_planner.json` in the working
//! directory.
//!
//! Not part of `repro all` (it times the planner, not a paper artifact);
//! CI runs `repro plannerbench` as a perf-smoke step. Both paths are
//! bit-identical by construction (held down by
//! `crates/core/tests/prop_provision.rs`), so every cell's *candidate
//! count* is deterministic; the counts are embedded below as golden
//! values and any drift fails the run — a tripwire for accidental changes
//! to the widening trajectory or the early-stop rule. Wall-clock numbers
//! are recorded but never asserted (CI timing is noisy).
//!
//! Regenerate the golden table after an *intentional* trajectory change
//! by running with `CORRAL_PLANNERBENCH_BLESS=1` and pasting the printed
//! constants.

use crate::runner::RunConfig;
use crate::table;
use corral_core::latency::{LatencyModel, ResponseOptions};
use corral_core::planner::perturb_arrivals;
use corral_core::provision::{provision, provision_reference, ProvisionMode, ProvisionOutcome};
use corral_core::{plan_jobs, Objective};
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobProfile, MapReduceProfile, RackId, SimTime,
};
use std::time::Instant;

/// One synthetic planning scale.
struct ScaleSpec {
    name: &'static str,
    jobs: usize,
    racks: usize,
    seed: u64,
}

/// Small / medium / large synthetic job sets. The large scale (256 jobs
/// on a 24-rack cluster, 5889 candidate allocations) is the acceptance
/// cell: the fast path, scoring serially, must beat the reference by
/// ≥ 2× there.
const SCALES: [ScaleSpec; 3] = [
    ScaleSpec {
        name: "small",
        jobs: 24,
        racks: 7,
        seed: 0x91A_0001,
    },
    ScaleSpec {
        name: "medium",
        jobs: 96,
        racks: 14,
        seed: 0x91A_0002,
    },
    ScaleSpec {
        name: "large",
        jobs: 256,
        racks: 24,
        seed: 0x91A_0003,
    },
];

/// Golden candidate counts per cell (identical for both paths — that
/// identity is itself asserted every repeat). The synthetic scales follow
/// the paper's formula `1 + J·(R−1)` exactly because no job is pinned;
/// the replan cell's count also reflects its pinned jobs sitting out the
/// widening loop. Drift means the trajectory or the stopping rule
/// changed; bless deliberately (see module docs) or find the regression.
const GOLDEN_CANDIDATES: [(&str, u64); 4] = [
    ("small", 145),
    ("medium", 1249),
    ("large", 5889),
    ("replan-w1", 463),
];

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn unit(rng: &mut u64) -> f64 {
    (splitmix64(rng) >> 11) as f64 / (1u64 << 53) as f64
}

/// One synthetic planning problem: latency models + arrivals, sizes
/// log-uniform over ~3 decades (a production mix: mostly small jobs, a
/// heavy tail that dominates the makespan — the regime where widening
/// decisions actually matter).
struct PlanProblem {
    cluster: ClusterConfig,
    models: Vec<LatencyModel>,
    jobs: Vec<(JobId, SimTime)>,
    pins: Vec<Option<Vec<RackId>>>,
    objective: Objective,
}

fn synthetic_problem(sc: &ScaleSpec) -> PlanProblem {
    let cluster = ClusterConfig {
        racks: sc.racks,
        ..ClusterConfig::testbed_210()
    };
    let mut rng = sc.seed;
    let mut models = Vec::with_capacity(sc.jobs);
    let mut jobs = Vec::with_capacity(sc.jobs);
    for i in 0..sc.jobs {
        let input_gb = 10f64.powf(unit(&mut rng) * 3.0) * 0.5; // 0.5 GB – 500 GB
        let tasks = ((input_gb * 4.0) as usize).clamp(4, 4000);
        let mr = MapReduceProfile {
            input: Bytes::gb(input_gb),
            shuffle: Bytes::gb(input_gb * (0.2 + 0.6 * unit(&mut rng))),
            output: Bytes::gb(input_gb / 10.0),
            maps: tasks,
            reduces: (tasks / 2).max(1),
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        };
        models.push(LatencyModel::build(
            &JobProfile::MapReduce(mr),
            &cluster,
            &ResponseOptions::default(),
        ));
        jobs.push((JobId(i as u32), SimTime(unit(&mut rng) * 3600.0)));
    }
    PlanProblem {
        cluster,
        models,
        jobs,
        pins: vec![None; sc.jobs],
        objective: Objective::Makespan,
    }
}

/// The replan-shaped real cell: the W1 online workload planned once from
/// forecast arrivals, then re-provisioned mid-horizon with true arrivals
/// — the §3.1 planning problem. Jobs arriving in the first half of the
/// hour have their input already uploaded, so they stay pinned to their
/// initial racks (only their ordering can change); later jobs' data is
/// not yet placed, so they re-enter the widening loop — the one case the
/// replan experiment finds replanning actually pays for. Built directly
/// at the provisioning layer so the timer sees only the planner.
fn replan_problem() -> PlanProblem {
    let rc = RunConfig::testbed(Objective::AvgCompletionTime);
    let true_jobs = crate::experiments::workload_online("W1", 0x1);
    let forecast = perturb_arrivals(&true_jobs, 0.5, SimTime::minutes(8.0), 0x1 ^ 0x8E);
    let initial = plan_jobs(&rc.params.cluster, &forecast, rc.objective, &rc.planner);
    let uploaded = SimTime::minutes(30.0);
    let models = true_jobs
        .iter()
        .map(|j| LatencyModel::build(&j.profile, &rc.params.cluster, &rc.planner.response))
        .collect();
    let jobs = true_jobs.iter().map(|j| (j.id, j.arrival)).collect();
    let pins = true_jobs
        .iter()
        .map(|j| {
            (j.arrival <= uploaded)
                .then(|| initial.entry(j.id).map(|e| e.racks.clone()))
                .flatten()
        })
        .collect();
    PlanProblem {
        cluster: rc.params.cluster.clone(),
        models,
        jobs,
        pins,
        objective: rc.objective,
    }
}

/// Result of one (problem, path) timing pass.
struct CellResult {
    wall_s: f64,
    outcome: ProvisionOutcome,
}

/// Wall-clock repetitions per cell. Reference and fast passes are
/// interleaved (one pair per repeat) so both see the same host
/// conditions; the reported speedup is the *median of per-pair ratios*,
/// robust to load bursts that would skew a ratio of two independently
/// taken minima. Per-path walls report the minimum.
const REPEATS: usize = 7;

fn time_reference(p: &PlanProblem) -> CellResult {
    let t0 = Instant::now();
    let outcome = provision_reference(
        &p.models,
        &p.jobs,
        &p.pins,
        p.cluster.racks,
        p.objective,
        ProvisionMode::Exhaustive,
    );
    CellResult {
        wall_s: t0.elapsed().as_secs_f64(),
        outcome,
    }
}

fn time_fast(p: &PlanProblem) -> CellResult {
    let t0 = Instant::now();
    let outcome = provision(
        &p.models,
        &p.jobs,
        &p.pins,
        p.cluster.racks,
        p.objective,
        ProvisionMode::Exhaustive,
    );
    CellResult {
        wall_s: t0.elapsed().as_secs_f64(),
        outcome,
    }
}

/// Handle for `repro perfreport`: the large synthetic problem built
/// once, re-runnable under the fast path (probes on or off) without
/// paying the latency-model construction cost on every pass — exactly
/// what the probe-overhead measurement needs.
pub(crate) struct ProbeCell(PlanProblem);

/// Builds the large-scale probe cell (256 jobs, 24 racks — the
/// acceptance cell of this bench).
pub(crate) fn probe_cell_large() -> ProbeCell {
    ProbeCell(synthetic_problem(&SCALES[2]))
}

impl ProbeCell {
    /// Runs the fast path once; returns `(candidates, wall_s)`.
    pub(crate) fn run(&self) -> (u64, f64) {
        let c = time_fast(&self.0);
        (c.outcome.stats.candidates, c.wall_s)
    }

    /// Golden candidate count for the large cell (the perfreport
    /// tripwire; same constant the bench itself asserts).
    pub(crate) fn golden(&self) -> u64 {
        GOLDEN_CANDIDATES[2].1
    }
}

/// Runs one problem [`REPEATS`] times as back-to-back (reference, fast)
/// pairs, asserting the runtime form of the bit-identity claim on every
/// pair. Returns (reference best, fast best, median paired speedup).
fn run_pair(name: &str, p: &PlanProblem) -> (CellResult, CellResult, f64) {
    let mut best_ref: Option<CellResult> = None;
    let mut best_fast: Option<CellResult> = None;
    let mut ratios = Vec::with_capacity(REPEATS);
    for _ in 0..REPEATS {
        let r = time_reference(p);
        let f = time_fast(p);
        assert_eq!(
            r.outcome.objective_value.to_bits(),
            f.outcome.objective_value.to_bits(),
            "{name}: objective bits diverge (bit-identity broken?)"
        );
        assert_eq!(
            r.outcome.racks, f.outcome.racks,
            "{name}: allocations diverge"
        );
        assert_eq!(
            r.outcome.stats.candidates, f.outcome.stats.candidates,
            "{name}: candidate counts diverge"
        );
        if let Some(b) = &best_ref {
            assert_eq!(
                b.outcome.stats.candidates, r.outcome.stats.candidates,
                "{name}: non-deterministic repeat"
            );
        }
        ratios.push(r.wall_s / f.wall_s.max(1e-9));
        if best_ref.as_ref().is_none_or(|b| r.wall_s < b.wall_s) {
            best_ref = Some(r);
        }
        if best_fast.as_ref().is_none_or(|b| f.wall_s < b.wall_s) {
            best_fast = Some(f);
        }
    }
    ratios.sort_by(f64::total_cmp);
    let speedup = ratios[ratios.len() / 2];
    (best_ref.unwrap(), best_fast.unwrap(), speedup)
}

/// Runs the synthetic scales and the replan-shaped cell under both paths,
/// checks golden candidate counts, and writes `BENCH_planner.json`.
pub fn main() {
    table::section("plannerbench: provisioning loop, reference vs fast path");
    let bless = std::env::var_os("CORRAL_PLANNERBENCH_BLESS").is_some();

    table::row(&[
        "cell", "path", "jobs", "racks", "cands", "grows", "wall", "cands/s", "speedup",
    ]);
    let mut cell_json = Vec::new();
    let mut drift = Vec::new();
    let mut cells: Vec<(&str, PlanProblem)> = SCALES
        .iter()
        .map(|sc| (sc.name, synthetic_problem(sc)))
        .collect();
    cells.push(("replan-w1", replan_problem()));

    for (name, p) in &cells {
        let (reference, fast, speedup) = run_pair(name, p);
        let stats = fast.outcome.stats;
        for (label, c) in [("reference", &reference), ("fast", &fast)] {
            table::row(&[
                name.to_string(),
                label.to_string(),
                p.jobs.len().to_string(),
                p.cluster.racks.to_string(),
                c.outcome.stats.candidates.to_string(),
                c.outcome.stats.scratch_grows.to_string(),
                table::secs(c.wall_s),
                format!(
                    "{:.0}",
                    c.outcome.stats.candidates as f64 / c.wall_s.max(1e-9)
                ),
                if label == "fast" {
                    format!("{speedup:.2}x")
                } else {
                    "-".into()
                },
            ]);
        }
        let golden = GOLDEN_CANDIDATES
            .iter()
            .find(|(n, _)| n == name)
            .map(|&(_, v)| v)
            .unwrap();
        if stats.candidates != golden {
            drift.push(format!(
                "{name}: candidates {} != golden {golden}",
                stats.candidates
            ));
        }
        cell_json.push(format!(
            "    {{\"cell\": \"{}\", \"jobs\": {}, \"racks\": {}, \"candidates\": {}, \
             \"reference_s\": {:.4}, \"fast_s\": {:.4}, \"speedup\": {:.3}, \
             \"heap_pops\": {}, \"scratch_grows\": {}}}",
            name,
            p.jobs.len(),
            p.cluster.racks,
            stats.candidates,
            reference.wall_s,
            fast.wall_s,
            speedup,
            stats.heap_pops,
            stats.scratch_grows,
        ));
        if *name == "large" && speedup < 2.0 {
            println!("   warning: large-scale serial speedup {speedup:.2}x below the 2x target");
        }
    }

    if !drift.is_empty() {
        if bless {
            println!("   bless mode: update GOLDEN_CANDIDATES to the counts above");
        } else {
            panic!(
                "plannerbench candidate-counter drift:\n  {}",
                drift.join("\n  ")
            );
        }
    }

    let json = format!(
        "{{\n  \"bench\": \"planner_fast_path\",\n  \"cells\": [\n{}\n  ]\n}}\n",
        cell_json.join(",\n")
    );
    std::fs::write("BENCH_planner.json", &json).expect("write BENCH_planner.json");
    println!("   wrote BENCH_planner.json");
}
