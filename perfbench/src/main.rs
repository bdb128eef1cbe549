//! Fixed-work benchmark of the SDT workspace: four workloads, each one
//! kind of op in a closed loop, with end-to-end metrics from untraced
//! runs and per-layer metrics from traced ones.
//!
//! ```text
//! cargo run --release --offline -q --manifest-path perfbench/Cargo.toml -- \
//!     --workload <tenant_churn|reconfig_cycle|estimate_poisson|engine_fabric|all> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! `--seconds` sets the op count of a run (each workload has a nominal
//! rate of ops per second); runs are never cut by the clock, so counts and
//! memory repeat. The last line of standard output is the result object;
//! the line before it carries the run's accounting and host facts.

mod check;
mod churn;
mod engine;
mod estimate;
mod reconfig;
mod stats;
mod trace;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use trace::Trace;

pub const WORKLOADS: [&str; 4] = [
    "tenant_churn",
    "reconfig_cycle",
    "estimate_poisson",
    "engine_fabric",
];

/// Per-layer metrics a traced run reports, with their units. Layers a
/// workload bypasses did no work there and read 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sdtd.batches", "count"),
    ("sdtd.batched_ops", "count"),
    ("sdtd.largest_batch", "count"),
    ("sdtd.snapshot_writes", "count"),
    ("sdtd.drain_cycles", "count"),
    ("sdtd.snapshot_ms", "ms"),
    ("sdtd.snapshot_bytes", "bytes"),
    ("sdtd.other_ms", "ms"),
    ("tenancy.apply_batch_ms", "ms"),
    ("verify.walk_cache_entries", "count"),
    ("routing.routes_ms", "ms"),
    ("core.project_ms", "ms"),
    ("tenancy.plan_ms", "ms"),
    ("tenancy.commit_ms", "ms"),
    ("verify.proof_ms", "ms"),
    ("verify.pairs_walked", "count"),
    ("tenancy.rounds", "count"),
    ("tenancy.merges", "count"),
    ("tenancy.reverifications", "count"),
    ("openflow.flow_mods", "count"),
    ("openflow.sends", "count"),
    ("openflow.retries", "count"),
    ("routing.sparse_routes_ms", "ms"),
    ("routing.routed_pairs", "count"),
    ("estimate.decompose_ms", "ms"),
    ("estimate.cluster_ms", "ms"),
    ("estimate.simulate_ms", "ms"),
    ("estimate.aggregate_ms", "ms"),
    ("estimate.active_channels", "count"),
    ("estimate.crossings", "count"),
    ("estimate.representatives", "count"),
    ("sim.new_ms", "ms"),
    ("sim.run_ms", "ms"),
    ("sim.events", "count"),
    ("sim.cells_delivered", "count"),
    ("sim.events_per_s", "1/s"),
    ("sim.sim_ns", "ns"),
    ("trace.op_p50_ms", "ms"),
    ("trace.overhead_ms", "ms"),
];

/// The command-line arguments of one run.
pub struct Params {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
}

/// What a workload measured. A workload fills it in as it goes and returns
/// `Err` when a check fails, so the counts up to the failure survive.
#[derive(Default)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// Host time of each of the run's set-ups, ns.
    pub setup_ns: Vec<u64>,
    /// Host time of each untraced timed op, ns.
    pub op_ns: Vec<u64>,
    /// Host time of each traced timed op, ns (traced runs only).
    pub traced_op_ns: Vec<u64>,
    /// Ops completed in the timed loop and the loop's wall time.
    pub completed: u64,
    pub wall_s: f64,
    /// Untimed warm-up ops.
    pub warmup_ops: u64,
    /// Per-layer values (traced runs).
    pub layers: BTreeMap<&'static str, f64>,
    /// Workload-specific facts for the detail line.
    pub facts: Vec<(&'static str, String)>,
}

impl Outcome {
    /// Run the program's set-up `f` and record its host time. Workloads
    /// set up once before the first op and once more after every timed op
    /// (tenant_churn: every timed window), discarding the copy, so
    /// `setup_s`, the median, samples the whole run as `op_p50_ms` does.
    pub fn setup<R>(&mut self, f: impl FnOnce() -> Result<R, String>) -> Result<R, String> {
        let t0 = std::time::Instant::now();
        let r = f()?;
        self.setup_ns.push(t0.elapsed().as_nanos() as u64);
        Ok(r)
    }
}

fn ms(ns: &[u64]) -> Vec<f64> {
    ns.iter().map(|&n| n as f64 / 1e6).collect()
}

fn parse_args() -> Result<Params, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload != "all" && !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload}; one of {WORKLOADS:?} or all"
        ));
    }
    let seconds: u64 = seconds.unwrap_or(10);
    if seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(Params {
        workload,
        seed: seed.unwrap_or(1),
        seconds,
        traced: traced.unwrap_or(false),
    })
}

fn run_workload(p: &Params, tr: Option<&mut Trace>, o: &mut Outcome) -> Result<(), String> {
    match p.workload.as_str() {
        "tenant_churn" => churn::run(p, tr, o),
        "reconfig_cycle" => reconfig::run(p, tr, o),
        "estimate_poisson" => estimate::run(p, tr, o),
        "engine_fabric" => engine::run(p, tr, o),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn metric(out: &mut String, name: &str, value: f64, unit: &str) {
    if !out.ends_with('{') {
        out.push_str(", ");
    }
    let value = if value.is_finite() { value } else { 0.0 };
    let _ = write!(
        out,
        "{}: {{\"value\": {value}, \"unit\": {}}}",
        json_str(name),
        json_str(unit)
    );
}

/// Run directory inside the checkout for sockets, snapshots and traces.
pub fn run_dir(p: &Params) -> std::path::PathBuf {
    std::path::PathBuf::from(".perfbench").join(format!("{}-{}", p.workload, std::process::id()))
}

/// Run every workload, each in its own process, and pass their lines on.
fn run_all(p: &Params) -> i32 {
    let Ok(exe) = std::env::current_exe() else {
        eprintln!("perfbench: cannot locate own executable");
        return 1;
    };
    let mut code = 0;
    for w in WORKLOADS {
        let status = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &p.seed.to_string()])
            .args(["--seconds", &p.seconds.to_string()])
            .args(["--trace", if p.traced { "1" } else { "0" }])
            .status();
        if !matches!(status, Ok(s) if s.success()) {
            code = 1;
        }
    }
    code
}

fn main() {
    let p = match parse_args() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if p.workload == "all" {
        std::process::exit(run_all(&p));
    }

    let mut trace = p.traced.then(Trace::new);
    let mut o = Outcome::default();
    let result = run_workload(&p, trace.as_mut(), &mut o);
    let peak_rss_mb = stats::peak_rss_mb().unwrap_or(0.0);
    let dir = run_dir(&p);
    if let Some(tr) = &trace {
        let path = std::path::PathBuf::from(".perfbench")
            .join(format!("trace-{}-seed{}.jsonl", p.workload, p.seed));
        if let Err(e) = tr.write(&path) {
            eprintln!("perfbench: cannot write {}: {e}", path.display());
        }
    }
    let _ = std::fs::remove_dir_all(&dir);

    let correct = match result {
        Ok(()) => true,
        Err(e) => {
            eprintln!("perfbench: {}: CHECK FAILED: {e}", p.workload);
            // An attempted op that neither completed nor was counted as
            // failed is the one whose check failed; a failure before the
            // first timed op (set-up, warm-up) counts as one failed op.
            o.attempted = o.attempted.max(1);
            o.failed = o.failed.max(o.attempted - o.completed);
            false
        }
    };

    let op_ms = ms(&o.op_ns);
    let p50 = stats::median(&op_ms).unwrap_or(0.0);
    let (tail, tail_pct) = stats::tail(&op_ms).unwrap_or((0.0, 0.0));

    let mut detail = String::from("{");
    let facts: Vec<(&str, String)> = vec![
        ("workload", json_str(&p.workload)),
        ("seed", p.seed.to_string()),
        ("seconds", p.seconds.to_string()),
        ("trace", p.traced.to_string()),
        (
            "threads_available",
            std::thread::available_parallelism()
                .map_or(1, |n| n.get())
                .to_string(),
        ),
        (
            "estimate_threads",
            sdt_par::threads_from_env("SDT_ESTIMATE_THREADS").to_string(),
        ),
        ("verify_threads", sdt::verify::verify_threads().to_string()),
        (
            "profile",
            json_str(if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            }),
        ),
        ("attempted", o.attempted.to_string()),
        ("failed", o.failed.to_string()),
        ("warmup_ops", o.warmup_ops.to_string()),
        ("timed_ops", o.op_ns.len().to_string()),
        ("traced_ops", o.traced_op_ns.len().to_string()),
        ("setups", o.setup_ns.len().to_string()),
        ("timed_wall_s", o.wall_s.to_string()),
        ("tail_percentile", tail_pct.to_string()),
    ];
    for (k, v) in facts
        .iter()
        .map(|(k, v)| (*k, v.clone()))
        .chain(o.facts.iter().cloned())
    {
        if !detail.ends_with('{') {
            detail.push_str(", ");
        }
        let _ = write!(detail, "{}: {v}", json_str(k));
    }
    detail.push('}');
    println!("{detail}");

    let mut metrics = String::from("{");
    if p.traced {
        let mut layers = o.layers;
        let traced_p50 = stats::median(&ms(&o.traced_op_ns)).unwrap_or(0.0);
        layers.insert("trace.op_p50_ms", traced_p50);
        layers.insert("trace.overhead_ms", traced_p50 - p50);
        for &(name, unit) in PER_LAYER {
            metric(
                &mut metrics,
                name,
                layers.get(name).copied().unwrap_or(0.0),
                unit,
            );
        }
    } else {
        let setup_ms = stats::median(&ms(&o.setup_ns)).unwrap_or(0.0);
        metric(&mut metrics, "setup_s", setup_ms / 1e3, "s");
        metric(&mut metrics, "op_p50_ms", p50, "ms");
        metric(&mut metrics, "op_tail_ms", tail, "ms");
        let rate = if o.wall_s > 0.0 {
            o.completed as f64 / o.wall_s
        } else {
            0.0
        };
        metric(&mut metrics, "ops_per_s", rate, "1/s");
        metric(&mut metrics, "peak_rss_mb", peak_rss_mb, "MB");
    }
    metrics.push('}');
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {metrics}}}",
        o.attempted.max(1),
        o.failed
    );
    if !correct {
        std::process::exit(1);
    }
}
