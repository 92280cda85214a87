//! `perfbench` — the streamshed benchmark.
//!
//! One command runs one named workload for a fixed measured window and
//! prints, as its last stdout line, a JSON object with `correct`,
//! `attempted`, `failed` and `metrics`:
//!
//! ```text
//! perfbench --workload <ingest_saturate|overload_3x|sim_paper_web> \
//!           --seed <n> --seconds <s> --trace <0|1> [--sabotage-ns <ns>]
//! ```
//!
//! `--trace 0` is the plain end-to-end run: plain engine spawn, no spans,
//! no timing wrappers. `--trace 1` runs the same workload twice — plain,
//! then traced (spans on, timing wrappers around the front door and the
//! controller, per-thread CPU time and sleeps from `/proc`) — and
//! prints the per-layer metrics plus the traced/plain ratio of the
//! workload's headline metric.
//!
//! Every correctness check is made by this program, apart from the
//! program under test; a failed check prints the reason on stderr, sets
//! `correct` to false and makes the exit code 1.
//!
//! See `README.md` next to this crate for the workloads, the
//! layer → end-to-end map and the reference figures.

mod probe;
mod sim;
mod tcp;

use std::collections::BTreeMap;
use std::process::ExitCode;

/// Command-line arguments.
#[derive(Debug, Clone)]
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every input is generated from.
    pub seed: u64,
    /// Length of the measured window, seconds.
    pub seconds: u64,
    /// Per-layer (traced) run instead of the plain end-to-end run.
    pub trace: bool,
    /// Sabotage drill: busy-wait this long inside every front-door call.
    pub sabotage_ns: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut sabotage_ns = 0u64;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        let num = |v: String| v.parse::<u64>().map_err(|e| format!("{flag}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = Some(num(value()?)?),
            "--seconds" => seconds = Some(num(value()?)?),
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                })
            }
            "--sabotage-ns" => sabotage_ns = num(value()?)?,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let args = Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.ok_or("missing --seed")?,
        seconds: seconds.ok_or("missing --seconds")?,
        trace: trace.ok_or("missing --trace")?,
        sabotage_ns,
    };
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

/// End-to-end metrics, in output order: `(name, unit)`. Every workload
/// reports every one of them (see README for what each means on each
/// workload).
pub const END_TO_END: [(&str, &str); 6] = [
    ("ingest_tps", "1/s"),
    ("goodput_tps", "1/s"),
    ("delay_mean_ms", "ms"),
    ("frame_rtt_p50_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run, in output order. A layer that
/// is not on a workload's path reads 0 there.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("loadgen.lateness_p99_us", "us"),
    ("loadgen.rtt_p99_us", "us"),
    ("loadgen.frames_sent", "count"),
    ("wire.decode_ns_per_frame", "ns"),
    ("wire.reply_encode_ns", "ns"),
    ("server.cpu_us_per_frame", "us"),
    ("server.wakeups_per_frame", "count"),
    ("server.turnaround_p99_us", "us"),
    ("admission.ns_per_tuple", "ns"),
    ("admission.calls", "count"),
    ("admission.shed_fraction", "ratio"),
    ("ring.occupancy_mean", "count"),
    ("ring.wait_p99_ms", "ms"),
    ("ring.rejected_capacity", "count"),
    ("worker.cpu_share", "ratio"),
    ("worker.execute_p50_us", "us"),
    ("worker.cost_ewma_us", "us"),
    ("worker.sojourn_p99_ms", "ms"),
    ("control.on_period_us", "us"),
    ("control.periods", "count"),
    ("control.deadline_misses", "count"),
    ("sim.self_ns_per_tuple", "ns"),
    ("sim.executions", "count"),
    ("sim.dropped_network", "count"),
    ("workload.gen_s", "s"),
    ("trace.overhead_ratio", "ratio"),
];

/// What one workload pass measured and checked.
#[derive(Debug, Default)]
pub struct Pass {
    /// Operations attempted in the measured window (tuples offered).
    pub attempted: u64,
    /// Operations that failed in the measured window: capacity or
    /// closed rejections, tuples in lost or error-replied frames.
    pub failed: u64,
    /// Failed correctness checks (empty when correct).
    pub errors: Vec<String>,
    /// End-to-end metric values by name.
    pub e2e: BTreeMap<&'static str, f64>,
    /// Per-layer metric values by name (traced passes only).
    pub layers: BTreeMap<&'static str, f64>,
    /// The workload's headline metric (for `trace.overhead_ratio`).
    pub headline: f64,
}

impl Pass {
    /// Records a failed check unless `ok`.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.errors.push(what());
        }
    }
}

fn run(args: &Args, traced: bool) -> Result<Pass, String> {
    match args.workload.as_str() {
        "ingest_saturate" => tcp::run(tcp::Spec::ingest_saturate(), args, traced),
        "overload_3x" => tcp::run(tcp::Spec::overload_3x(), args, traced),
        "sim_paper_web" => sim::run(args, traced),
        other => Err(format!("unknown workload {other}")),
    }
}

fn json_metrics(out: &mut String, values: &BTreeMap<&'static str, f64>, list: &[(&str, &str)]) {
    out.push('{');
    for (i, (name, unit)) in list.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let v = values.get(name).copied().unwrap_or(0.0);
        out.push_str(&format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    out.push('}');
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = if args.trace {
        // Plain pass first for the overhead ratio's base, then the traced
        // pass that yields the per-layer numbers.
        run(&args, false).and_then(|plain| {
            let mut traced = run(&args, true)?;
            traced.errors.extend(plain.errors);
            let ratio = traced.headline / plain.headline;
            traced.layers.insert("trace.overhead_ratio", ratio);
            Ok(traced)
        })
    } else {
        run(&args, false)
    };
    let mut pass = match result {
        Ok(p) => p,
        Err(e) => {
            eprintln!("perfbench: {} failed to run: {e}", args.workload);
            return ExitCode::from(2);
        }
    };
    let (values, list): (_, &[(&str, &str)]) = if args.trace {
        (&pass.layers, &PER_LAYER)
    } else {
        (&pass.e2e, &END_TO_END)
    };
    for (name, _) in list {
        match values.get(name) {
            Some(v) if !v.is_finite() => pass.errors.push(format!("{name} is not finite ({v})")),
            None if !args.trace => pass.errors.push(format!("{name} was not measured")),
            _ => {}
        }
    }
    let values: BTreeMap<&'static str, f64> = values
        .iter()
        .map(|(k, v)| (*k, if v.is_finite() { *v } else { 0.0 }))
        .collect();
    for e in &pass.errors {
        eprintln!("perfbench: check failed: {e}");
    }
    let correct = pass.errors.is_empty();
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": ",
        pass.attempted, pass.failed
    );
    json_metrics(&mut out, &values, list);
    out.push('}');
    println!("{out}");
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Exact quantile of raw samples by linear interpolation between order
/// statistics (sorts `v` in place; 0 for no samples).
pub fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Median of raw samples.
pub fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// splitmix64: derives independent, reproducible streams from the seed.
pub fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}
