//! End-to-end benchmark of the corral simulator and resident scheduler.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Prints progress on stderr and, as the last line of stdout, one JSON
//! object `{"correct", "attempted", "failed", "metrics"}`. `--trace 0`
//! reports the end-to-end metrics (tracing off); `--trace 1` reports the
//! per-layer metrics from a separate traced pass. See `README.md`.

mod arrivals;
mod calib;
mod serve;
mod sim;
mod spans;
mod stats;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// End-to-end metrics, reported by every workload with `--trace 0`.
pub const END_TO_END: [(&str, &str); 5] = [
    ("sim_tasks_per_s", "1/s"),
    ("jct_mean_s", "s"),
    ("makespan_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// layer a workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 41] = [
    ("simnet.recompute_s", "s"),
    ("simnet.maxmin_s", "s"),
    ("simnet.maxmin_rounds", "count"),
    ("simnet.dirty_per_recompute", "count"),
    ("simnet.full_recompute_frac", "frac"),
    ("simnet.varys_scratch_elems", "count"),
    ("cluster.engine_new_s", "s"),
    ("cluster.run_s", "s"),
    ("cluster.engine_self_s", "s"),
    ("cluster.events", "count"),
    ("cluster.flows", "count"),
    ("cluster.queue_delay_p99_s", "s"),
    ("dfs.input_cov", "ratio"),
    ("core.plan_s", "s"),
    ("core.plan_candidates", "count"),
    ("core.provision_s", "s"),
    ("core.heap_pops", "count"),
    ("serve.arrival_us.p50", "us"),
    ("serve.arrival_us.p99", "us"),
    ("serve.failure_us.p50", "us"),
    ("serve.queue_wait_ms.p99", "ms"),
    ("serve.busy_frac", "frac"),
    ("serve.wire_parse_us.p50", "us"),
    ("serve.wire_format_us.p50", "us"),
    ("serve.snapshot_ms", "ms"),
    ("serve.cache_hit_ratio", "frac"),
    ("serve.incremental_replan_ratio", "frac"),
    ("serve.generator_lag_ms", "ms"),
    ("workloads.generate_s", "s"),
    ("trace.overhead_pct", "%"),
    ("replay_eps", "1/s"),
    ("p50_ms.low", "ms"),
    ("p99_ms.low", "ms"),
    ("p50_ms.high", "ms"),
    ("p99_ms.high", "ms"),
    ("samples.low", "count"),
    ("samples.high", "count"),
    ("serve_max_eps", "1/s"),
    ("reject_frac", "frac"),
    ("jct_reduction_pct", "%"),
    ("error_frac", "frac"),
];

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Measurement time.
    pub seconds: f64,
    /// Traced run (per-layer metrics) instead of the end-to-end run.
    pub trace: bool,
}

/// What a workload run hands back: operation counts for the correctness
/// gate, and its metric values by name.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (simulated jobs, or served events).
    pub attempted: u64,
    /// Operations failed: panics, unfinished jobs, digest mismatches.
    pub failed: u64,
    /// Metric values by name.
    pub metrics: BTreeMap<&'static str, f64>,
}

impl Outcome {
    /// Records one operation batch of `n`, failed as a whole unless `ok`.
    pub fn tally(&mut self, n: u64, ok: bool) {
        self.attempted += n;
        if !ok {
            self.failed += n;
        }
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, v: f64) {
        self.metrics.insert(name, v);
    }
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let val = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {val}: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(val),
            "--seed" => seed = Some(val.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(val.parse::<f64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match val.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.ok_or("--seconds is required")?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err(format!("--seconds {seconds}: expected 0 < s <= 600"));
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// A set-up burst repeats the set-up for at least this long, and at least
/// [`BURST_REPS`] times.
const BURST_S: f64 = 0.02;
const BURST_REPS: usize = 3;

/// Runs `f` in a burst of repetitions; returns the burst's median time
/// and the last result.
///
/// Workloads take one burst before the timed part and one after each
/// timed step, and report the mean of the burst medians as `setup_s`.
/// The host's speed drifts between two levels over seconds (other
/// tenants share the cores), so one burst at start-up would read either
/// level; bursts spread over the run average over the drift.
pub fn setup_burst<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let t0 = std::time::Instant::now();
    let mut times = Vec::new();
    loop {
        let t = std::time::Instant::now();
        let v = std::hint::black_box(f());
        times.push(t.elapsed().as_secs_f64());
        if times.len() >= BURST_REPS && t0.elapsed().as_secs_f64() >= BURST_S {
            return (stats::median(&times), v);
        }
    }
}

/// Peak resident set size of this process, from `/proc/self/status`.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Renders the result line; a metric without a value reads 0.
fn result_json(correct: bool, out: &Outcome, names: &[(&str, &str)]) -> String {
    let metrics: Vec<String> = names
        .iter()
        .map(|&(name, unit)| {
            let v = out.metrics.get(name).copied().unwrap_or(0.0);
            format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.attempted,
        out.failed,
        metrics.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}|{}|{}> --seed <n> --seconds <s> --trace <0|1>",
                sim::TESTBED.name,
                sim::SIM2K.name,
                serve::NAME
            );
            return ExitCode::from(2);
        }
    };
    let mut out = match args.workload.as_str() {
        w if w == sim::TESTBED.name => sim::run(&sim::TESTBED, &args),
        w if w == sim::SIM2K.name => sim::run(&sim::SIM2K, &args),
        serve::NAME => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    out.set("peak_rss_mb", peak_rss_mb());
    out.set(
        "error_frac",
        out.failed as f64 / out.attempted.max(1) as f64,
    );

    let names: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    out.metrics.retain(|_, v| v.is_finite());
    // A per-layer metric of a layer the workload does not exercise is 0;
    // an end-to-end metric is missing only when the run failed.
    let complete = args.trace || names.iter().all(|(n, _)| out.metrics.contains_key(n));
    let correct = complete && out.failed == 0 && out.attempted > 0;
    println!("{}", result_json(correct, &out, names));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The metric tables above are the ones `BENCHMARK.json` declares.
    #[test]
    fn metric_tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
        let section = |key: &str| -> Vec<(String, String)> {
            let start = text.find(&format!("\"{key}\"")).expect(key);
            let body = &text[start..];
            let body = &body[..body.find(']').expect("section end")];
            body.split("\"name\": \"")
                .skip(1)
                .map(|s| {
                    let name = s[..s.find('"').unwrap()].to_string();
                    let u = &s[s.find("\"unit\": \"").unwrap() + 9..];
                    (name, u[..u.find('"').unwrap()].to_string())
                })
                .collect()
        };
        let own = |t: &[(&str, &str)]| -> Vec<(String, String)> {
            t.iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect()
        };
        assert_eq!(section("end_to_end"), own(&END_TO_END));
        assert_eq!(section("per_layer"), own(&PER_LAYER));
    }
}
