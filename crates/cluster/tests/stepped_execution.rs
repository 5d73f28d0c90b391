//! Stepped execution and live plan updates (`run_until`,
//! `apply_plan_update`, `unstarted_jobs`) — the API behind §3.1's periodic
//! replanning — and live job submission (`submit_jobs`, `drain_finished`).

use corral_cluster::config::{DataPlacement, IngestMode, SimParams};
use corral_cluster::engine::Engine;
use corral_cluster::scheduler::SchedulerKind;
use corral_core::plan::{Plan, PlanEntry};
use corral_model::{
    Bandwidth, Bytes, ClusterConfig, JobId, JobSpec, MapReduceProfile, RackId, SimTime,
};

fn job(id: u32, arrival_s: f64) -> JobSpec {
    JobSpec::map_reduce(
        JobId(id),
        format!("j{id}"),
        MapReduceProfile {
            input: Bytes::gb(1.0),
            shuffle: Bytes::gb(2.0),
            output: Bytes::mb(100.0),
            maps: 6,
            reduces: 4,
            map_rate: Bandwidth::mbytes_per_sec(100.0),
            reduce_rate: Bandwidth::mbytes_per_sec(100.0),
        },
    )
    .arriving_at(SimTime(arrival_s))
}

fn entry(id: u32, rack: u32, prio: u32) -> (JobId, PlanEntry) {
    (
        JobId(id),
        PlanEntry {
            job: JobId(id),
            racks: vec![RackId(rack)],
            priority: prio,
            planned_start: SimTime::ZERO,
            planned_finish: SimTime(1e4),
            predicted_latency: SimTime(1e4),
        },
    )
}

fn params() -> SimParams {
    SimParams {
        cluster: ClusterConfig::tiny_test(),
        placement: DataPlacement::PerPlan,
        horizon: SimTime::hours(10.0),
        ..SimParams::testbed()
    }
}

#[test]
fn run_until_stops_at_the_limit_and_resumes() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    let jobs = vec![job(0, 0.0), job(1, 120.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);

    // Stop before job 1 arrives.
    let more = engine.run_until(SimTime(60.0));
    assert!(more, "job 1 still pending");
    assert!(engine.now() <= SimTime(60.0));
    let unstarted = engine.unstarted_jobs();
    assert_eq!(unstarted, vec![(JobId(1), SimTime(120.0))]);

    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    assert!(report.jobs[&JobId(1)].started.unwrap() >= SimTime(120.0));
}

#[test]
fn plan_update_moves_an_unstarted_job() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 0, 1)]);
    let jobs = vec![job(0, 0.0), job(1, 300.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);
    engine.run_until(SimTime(100.0));

    // Move job 1 (not yet arrived) to rack 2 with top priority.
    let mut fresh = Plan::default();
    fresh.entries.extend([entry(1, 2, 0)]);
    engine.apply_plan_update(&fresh);

    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    let cfg = ClusterConfig::tiny_test();
    // Every attempt of job 1 ran on rack 2.
    for t in report.task_log.iter().filter(|t| t.job == JobId(1)) {
        assert_eq!(cfg.rack_of(t.machine), RackId(2));
    }
}

#[test]
fn plan_update_never_touches_started_jobs() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 1, 0)]);
    let jobs = vec![job(0, 0.0)];
    let mut engine = Engine::new(params(), jobs, &plan, SchedulerKind::Planned);
    engine.run_until(SimTime(2.0)); // job 0 has launched tasks by now

    let mut fresh = Plan::default();
    fresh.entries.extend([entry(0, 2, 0)]); // try to move it
    engine.apply_plan_update(&fresh);

    let report = engine.run();
    let cfg = ClusterConfig::tiny_test();
    for t in &report.task_log {
        assert_eq!(
            cfg.rack_of(t.machine),
            RackId(1),
            "started job must keep its allocation (§4.1: no preemption)"
        );
    }
}

// ---------------------------------------------------------------------
// The corral-serve feed/drain seam: submit_jobs / drain_finished.
// ---------------------------------------------------------------------

/// Drives a run where job 1 is submitted live at t=100 instead of being
/// present at construction. Returns (completion pairs, report).
fn seam_run(seed: u64) -> (Vec<(JobId, SimTime)>, corral_cluster::metrics::RunReport) {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0)]);
    let mut engine = Engine::new(
        SimParams { seed, ..params() },
        vec![job(0, 0.0)],
        &plan,
        SchedulerKind::Planned,
    );
    engine.run_until(SimTime(100.0));

    let mut live = Plan::default();
    live.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    engine.submit_jobs(&[job(1, 100.0)], &live);

    let mut done = Vec::new();
    let mut t = 100.0;
    while engine.run_until(SimTime(t)) {
        t += 50.0;
    }
    engine.drain_finished(&mut done);
    (done, engine.run())
}

#[test]
fn submit_jobs_feeds_a_live_run_deterministically() {
    let (done_a, report_a) = seam_run(7);
    let (done_b, report_b) = seam_run(7);

    assert_eq!(report_a.unfinished, 0);
    // Both jobs completed and were reported through the drain, in
    // simulation order.
    assert_eq!(done_a.len(), 2);
    assert!(done_a[0].1 <= done_a[1].1);
    let ids: Vec<JobId> = done_a.iter().map(|c| c.0).collect();
    assert!(ids.contains(&JobId(0)) && ids.contains(&JobId(1)));
    // Drain times match the report's finish times exactly.
    for (id, at) in &done_a {
        assert_eq!(report_a.jobs[id].finished.unwrap(), *at);
    }
    // Same inputs, same submission times → identical runs.
    assert_eq!(done_a, done_b);
    assert_eq!(
        report_a.jobs[&JobId(1)].finished,
        report_b.jobs[&JobId(1)].finished
    );
    // The late job ran where its plan entry pinned it.
    let cfg = ClusterConfig::tiny_test();
    for t in report_a.task_log.iter().filter(|t| t.job == JobId(1)) {
        assert_eq!(cfg.rack_of(t.machine), RackId(1));
    }
}

#[test]
fn drain_is_incremental_and_non_lossy() {
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0), entry(1, 1, 1)]);
    let mut engine = Engine::new(
        params(),
        vec![job(0, 0.0), job(1, 0.0)],
        &plan,
        SchedulerKind::Planned,
    );
    let mut seen = Vec::new();
    let mut t = 25.0;
    loop {
        let more = engine.run_until(SimTime(t));
        engine.drain_finished(&mut seen); // drain as we go
        if !more {
            break;
        }
        t += 25.0;
    }
    let report = engine.run();
    assert_eq!(report.unfinished, 0);
    assert_eq!(seen.len(), 2, "each completion delivered exactly once");
}

/// Plan racks of the batch test's jobs: job 0 at construction, jobs 1–3
/// submitted live.
const BATCH_RACKS: [(u32, u32); 4] = [(0, 0), (1, 1), (2, 2), (3, 1)];

/// Builds an engine with job 0, runs it to t=5 (job 0 still running), then
/// submits jobs 1–3 in one batch with arrivals out of order and simulated
/// upload, so upload starts (t=5 for jobs 1–2, t=25 for job 3) interleave
/// with the arrivals (t=20, t=40).
/// Returns (drained completions, report).
fn batch_run(kind: SchedulerKind) -> (Vec<(JobId, SimTime)>, corral_cluster::metrics::RunReport) {
    let p = SimParams {
        ingest: IngestMode::Simulated {
            lead_time: SimTime(15.0),
        },
        ..params()
    };
    let mut plan = Plan::default();
    plan.entries.extend([entry(0, 0, 0)]);
    let mut engine = Engine::new(p, vec![job(0, 0.0)], &plan, kind);
    assert!(engine.run_until(SimTime(5.0)));

    let mut live = Plan::default();
    live.entries
        .extend(BATCH_RACKS.iter().map(|&(id, rack)| entry(id, rack, id)));
    engine.submit_jobs(&[job(3, 40.0), job(1, 20.0), job(2, 20.0)], &live);

    let mut done = Vec::new();
    let mut t = 5.0;
    while engine.run_until(SimTime(t)) {
        engine.drain_finished(&mut done);
        t += 25.0;
    }
    engine.drain_finished(&mut done);
    (done, engine.run())
}

#[test]
fn submit_jobs_admits_an_unsorted_batch_with_uploads() {
    for kind in [SchedulerKind::Capacity, SchedulerKind::Planned] {
        let (done_a, report_a) = batch_run(kind);
        let (done_b, report_b) = batch_run(kind);

        assert_eq!(report_a.unfinished, 0, "{kind:?}");
        let mut ids: Vec<JobId> = done_a.iter().map(|c| c.0).collect();
        ids.sort();
        assert_eq!(ids, [0, 1, 2, 3].map(JobId), "{kind:?}");
        for (id, at) in &done_a {
            assert_eq!(report_a.jobs[id].finished.unwrap(), *at, "{kind:?}");
        }
        // Same inputs, same submission times → identical runs.
        assert_eq!(done_a, done_b, "{kind:?}");
        assert_eq!(
            format!("{:?}", report_a.task_log),
            format!("{:?}", report_b.task_log),
            "{kind:?}"
        );
        if kind == SchedulerKind::Planned {
            let cfg = ClusterConfig::tiny_test();
            for (id, rack) in BATCH_RACKS {
                let tasks: Vec<_> = report_a
                    .task_log
                    .iter()
                    .filter(|t| t.job == JobId(id))
                    .collect();
                assert!(!tasks.is_empty(), "job {id} ran no task");
                for t in tasks {
                    assert_eq!(cfg.rack_of(t.machine), RackId(rack), "job {id}");
                }
            }
        }
    }
}
