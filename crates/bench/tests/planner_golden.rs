//! Golden determinism contract of the planner, the planner twin of
//! `fabric_golden.rs`:
//!
//! 1. The offline planner on a fixed workload reproduces *embedded*
//!    bit-level fingerprints for both objectives — catching any change to
//!    the provisioning trajectory, the prioritization arithmetic, or the
//!    objective fold, not just gross regressions.
//! 2. The plan matches the frozen reference provisioner bit for bit
//!    (objective bits, every job's racks and start/finish bits) on the
//!    golden workload and on the two planning shapes the experiments rerun
//!    hottest: the replan-shaped pinned problem (§3.1) and the
//!    fig13b-shaped forecast problem (plan on perturbed arrivals).
//!
//! The fingerprints are asserted with the actual values in the panic
//! message; after an *intentional* planner change, rerun and paste the
//! printed bits.

use corral_core::planner::perturb_arrivals;
use corral_core::provision::{provision_reference, ProvisionMode};
use corral_core::{
    plan_jobs, plan_jobs_pinned, LatencyModel, Objective, Plan, PlannerConfig, ResponseOptions,
};
use corral_model::{ClusterConfig, JobId, JobSpec, RackId, SimTime};
use corral_workloads::{assign_uniform_arrivals, w1, Scale};
use std::collections::BTreeMap;

/// `(objective label, objective_value bits, FNV-1a of the plan CSV)`.
/// Regenerate from the assertion message after an intentional change.
const GOLDEN_PLANS: [(&str, u64, u64); 2] = [
    ("makespan", 0x407b62998d8c58bf, 0x166369d3df7a7680),
    ("avgjct", 0x4040d7aa207521f1, 0x1e3ad0591bb2703b),
];

/// The fixed golden workload (same family as `fabric_golden.rs`): 8 W1
/// jobs, seed 17, tasks and volumes ÷10, arrivals uniform in 5 minutes.
fn golden_jobsets() -> Vec<JobSpec> {
    let mut jobs = w1::generate(
        &w1::W1Params {
            jobs: 8,
            ..w1::W1Params::with_seed(17)
        },
        Scale {
            task_divisor: 10.0,
            data_divisor: 10.0,
        },
    );
    assign_uniform_arrivals(&mut jobs, SimTime::minutes(5.0), 0x1);
    jobs
}

fn cluster() -> ClusterConfig {
    ClusterConfig::tiny_test()
}

fn objective_of(label: &str) -> Objective {
    match label {
        "makespan" => Objective::Makespan,
        "avgjct" => Objective::AvgCompletionTime,
        other => panic!("unknown objective {other}"),
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

fn fingerprint(plan: &Plan) -> (u64, u64) {
    (
        plan.objective_value.to_bits(),
        fnv1a(plan.to_csv().as_bytes()),
    )
}

#[test]
fn planner_matches_embedded_golden_bits_for_both_objectives() {
    let cfg = cluster();
    let jobs = golden_jobsets();
    for (label, value_bits, csv_fnv) in GOLDEN_PLANS {
        let plan = plan_jobs(&cfg, &jobs, objective_of(label), &PlannerConfig::default());
        assert_eq!(
            fingerprint(&plan),
            (value_bits, csv_fnv),
            "{label}: plan drifted from golden bits (got {:#018x} / {:#018x}) — \
             paste the new constants only if the change is intentional",
            plan.objective_value.to_bits(),
            fnv1a(plan.to_csv().as_bytes()),
        );
    }
}

/// The replan-shaped pinned planning problem (§3.1): an initial plan from
/// forecast arrivals anchors early jobs' racks; re-plan with true
/// arrivals and those pins. Mirrors `experiments/replan.rs` and the
/// plannerbench replan cell.
fn replan_pins(cfg: &ClusterConfig, jobs: &[JobSpec]) -> BTreeMap<JobId, Vec<RackId>> {
    let forecast = perturb_arrivals(jobs, 0.5, SimTime::minutes(2.0), 0x8E);
    let initial = plan_jobs(
        cfg,
        &forecast,
        Objective::AvgCompletionTime,
        &PlannerConfig::default(),
    );
    let uploaded = SimTime::minutes(2.5);
    jobs.iter()
        .filter(|j| j.arrival <= uploaded)
        .filter_map(|j| initial.entry(j.id).map(|e| (j.id, e.racks.clone())))
        .collect()
}

/// Plans `jobs` under `pins` and asserts the plan is bit-identical to
/// what the frozen reference provisioner computes on the same inputs:
/// objective bits, every job's rack set, planned start/finish bits, and
/// the candidate count.
fn assert_plan_matches_reference(
    label: &str,
    cfg: &ClusterConfig,
    jobs: &[JobSpec],
    objective: Objective,
    pins: &BTreeMap<JobId, Vec<RackId>>,
) {
    let plan = plan_jobs_pinned(cfg, jobs, objective, &PlannerConfig::default(), pins);
    let plannable: Vec<&JobSpec> = jobs.iter().filter(|j| j.plannable).collect();
    let models: Vec<LatencyModel> = plannable
        .iter()
        .map(|j| LatencyModel::build(&j.profile, cfg, &ResponseOptions::default()))
        .collect();
    let meta: Vec<(JobId, SimTime)> = plannable.iter().map(|j| (j.id, j.arrival)).collect();
    let pin_vec: Vec<Option<Vec<RackId>>> =
        plannable.iter().map(|j| pins.get(&j.id).cloned()).collect();
    let oracle = provision_reference(
        &models,
        &meta,
        &pin_vec,
        cfg.racks,
        objective,
        ProvisionMode::Exhaustive,
    );
    assert_eq!(
        plan.objective_value.to_bits(),
        oracle.objective_value.to_bits(),
        "{label}: plan and oracle objective bits diverge"
    );
    assert_eq!(plan.len(), oracle.schedule.len(), "{label}: job count");
    for s in &oracle.schedule {
        let e = plan.entry(s.job).expect("oracle job missing from plan");
        assert_eq!(e.racks, s.racks, "{label}: racks of {:?}", s.job);
        assert_eq!(
            e.planned_start.0.to_bits(),
            s.start.0.to_bits(),
            "{label}: start bits of {:?}",
            s.job
        );
        assert_eq!(
            e.planned_finish.0.to_bits(),
            s.finish.0.to_bits(),
            "{label}: finish bits of {:?}",
            s.job
        );
    }
    assert_eq!(
        plan.provision_stats.candidates, oracle.stats.candidates,
        "{label}: candidate counts diverge"
    );
}

#[test]
fn replan_shaped_plan_matches_reference_oracle() {
    let cfg = cluster();
    let jobs = golden_jobsets();
    let pins = replan_pins(&cfg, &jobs);
    assert!(
        !pins.is_empty() && pins.len() < jobs.len(),
        "shape check: the replan problem must mix pinned and free jobs"
    );
    assert_plan_matches_reference("replan", &cfg, &jobs, Objective::AvgCompletionTime, &pins);
}

#[test]
fn fig13b_shaped_plan_matches_reference_oracle() {
    // Fig 13b plans on *perturbed* arrivals (the planner's forecast is
    // wrong) and both objectives appear across the sweep; cover each.
    let cfg = cluster();
    let jobs = golden_jobsets();
    let forecast = perturb_arrivals(&jobs, 0.5, SimTime::minutes(2.0), 0xF13B);
    for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
        let label = format!("fig13b {objective:?}");
        assert_plan_matches_reference(&label, &cfg, &forecast, objective, &BTreeMap::new());
    }
}

#[test]
fn planner_agrees_with_frozen_reference_oracle_on_golden_workload() {
    let cfg = cluster();
    let jobs = golden_jobsets();
    for objective in [Objective::Makespan, Objective::AvgCompletionTime] {
        let label = format!("golden {objective:?}");
        assert_plan_matches_reference(&label, &cfg, &jobs, objective, &BTreeMap::new());
    }
}
