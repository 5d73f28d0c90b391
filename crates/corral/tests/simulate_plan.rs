//! `corral-sim simulate` and the plan it runs under, across processes:
//! a `--plan` file that names a rack the cluster lacks, or a job twice,
//! is rejected with a message and a clean non-zero exit; a plan computed
//! in-process is recorded in the `--trace` stream exactly once, agreeing
//! with what `corral-sim plan` reports for the same trace.

use std::path::PathBuf;
use std::process::{Command, Output};

fn sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_corral-sim"))
}

fn run_ok(cmd: &mut Command) -> String {
    let out = cmd.output().expect("spawn corral-sim");
    assert!(
        out.status.success(),
        "corral-sim failed: {}\n{}",
        String::from_utf8_lossy(&out.stderr),
        String::from_utf8_lossy(&out.stdout),
    );
    String::from_utf8(out.stdout).expect("utf-8 stdout")
}

/// A fresh scratch directory holding a small generated W1 trace.
fn scratch_with_trace(tag: &str) -> (PathBuf, String) {
    let dir = std::env::temp_dir().join(format!("corral-{tag}-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("w1.csv").to_str().unwrap().to_string();
    run_ok(sim().args([
        "gen",
        "w1",
        "--jobs",
        "6",
        "--seed",
        "7",
        "--task-div",
        "16",
        "-o",
        &trace,
    ]));
    (dir, trace)
}

const PLAN_HEADER: &str =
    "job,priority,planned_start_s,planned_finish_s,predicted_latency_s,racks\n";

/// Runs `simulate <trace> --plan <rows>` and returns its output.
fn simulate_with_plan(dir: &std::path::Path, trace: &str, rows: &str) -> Output {
    let plan = dir.join("plan.csv");
    std::fs::write(&plan, format!("{PLAN_HEADER}{rows}")).unwrap();
    sim()
        .args(["simulate", trace, "--plan", plan.to_str().unwrap()])
        .output()
        .expect("spawn corral-sim")
}

/// A failure that the CLI reported: exit code 1 (a panic exits 101) and
/// `needle` in the error message.
fn assert_clean_failure(out: &Output, needle: &str) {
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "want a clean exit 1: {stderr}");
    assert!(!stderr.contains("panicked"), "must not panic: {stderr}");
    assert!(stderr.contains(needle), "want {needle:?} in: {stderr}");
}

#[test]
fn simulate_rejects_a_plan_with_an_out_of_range_rack() {
    let (dir, trace) = scratch_with_trace("plan-rack");
    let out = simulate_with_plan(&dir, &trace, "0,0,0,10,10,2|99\n1,1,0,10,10,3\n");
    assert_clean_failure(
        &out,
        "job 0 is planned on rack 99, but the cluster has 7 racks",
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn simulate_rejects_a_plan_with_a_duplicate_job() {
    let (dir, trace) = scratch_with_trace("plan-dup");
    let out = simulate_with_plan(&dir, &trace, "0,0,0,10,10,1\n0,1,0,10,10,3\n");
    assert_clean_failure(&out, "plan line 3: duplicate job id 0");
    std::fs::remove_dir_all(&dir).ok();
}

/// The number after `prefix` on the line of `text` that starts with it.
fn number_after(text: &str, prefix: &str) -> u64 {
    let line = text
        .lines()
        .find_map(|l| l.strip_prefix(prefix))
        .unwrap_or_else(|| panic!("no line starting {prefix:?} in:\n{text}"));
    line.split_whitespace().next().unwrap().parse().unwrap()
}

/// The value of the integer field `"key":` in one JSONL event.
fn field(event: &str, key: &str) -> u64 {
    let pat = format!("\"{key}\":");
    let at = event
        .find(&pat)
        .unwrap_or_else(|| panic!("{key} in {event}"))
        + pat.len();
    let digits: String = event[at..]
        .chars()
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().unwrap()
}

#[test]
fn simulate_trace_records_the_plan_once() {
    let (dir, trace) = scratch_with_trace("plan-trace");
    let plan_csv = dir.join("plan.csv");
    let printed = run_ok(sim().args(["plan", &trace, "--out", plan_csv.to_str().unwrap()]));
    let candidates = number_after(&printed, "provisioning scored ");
    // job → (priority, rack count), from the plan CSV.
    let planned: Vec<(u64, u64, u64)> = std::fs::read_to_string(&plan_csv)
        .unwrap()
        .lines()
        .skip(1)
        .map(|l| {
            let f: Vec<&str> = l.split(',').collect();
            let racks = f[5].split('|').count() as u64;
            (f[0].parse().unwrap(), f[1].parse().unwrap(), racks)
        })
        .collect();
    assert!(!planned.is_empty());

    let jsonl = dir.join("run.jsonl");
    run_ok(sim().args([
        "simulate",
        &trace,
        "--scheduler",
        "corral",
        "--trace",
        jsonl.to_str().unwrap(),
    ]));
    let events = std::fs::read_to_string(&jsonl).unwrap();
    let computed: Vec<&str> = events
        .lines()
        .filter(|l| l.contains("\"ev\":\"plan_computed\""))
        .collect();
    assert_eq!(computed.len(), 1, "exactly one PlanComputed");
    assert_eq!(field(computed[0], "candidates"), candidates);
    assert_eq!(field(computed[0], "jobs"), planned.len() as u64);

    let mut assigned: Vec<(u64, u64, u64)> = events
        .lines()
        .filter(|l| l.contains("\"ev\":\"planner_assigned\""))
        .map(|l| (field(l, "job"), field(l, "priority"), field(l, "racks")))
        .collect();
    assigned.sort_unstable();
    assert_eq!(assigned, planned, "one PlannerAssigned per planned job");
    std::fs::remove_dir_all(&dir).ok();
}
