//! `sim_paper_web`: the paper's 14-operator identification network under
//! the web-like trace, driven to overload, with CTRL — in virtual time,
//! single-threaded, through `Simulator::run`. This is the path behind
//! every figure and the scenario campaign.

use crate::probe::{self, Probe};
use crate::{median, mix, Args, Pass};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::metrics::RunReport;
use streamshed_engine::network::QueryNetwork;
use streamshed_engine::networks::identification_network;
use streamshed_engine::sim::{SimConfig, Simulator};
use streamshed_engine::time::{secs, SimTime};
use streamshed_workload::{to_micros, ArrivalTrace, WebLikeTrace};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 7;
/// Virtual length of one replay, seconds.
const HORIZON_S: u64 = 3600;
/// Web-like ON/OFF sources: 64 give ~300 tuples/s against the network's
/// 190 tuples/s capacity (the Fig. 18 overload mix).
const SOURCES: usize = 64;
/// Completed roots in one control period may exceed the computed
/// capacity by at most this share: per-root cost varies with the
/// filters' and the split's draws, and a period can retire roots whose
/// work began in the previous one.
const CAPACITY_TOLERANCE: f64 = 0.25;

/// Roots per second the network can retire at headroom `h`, computed
/// from `nodes()` alone: the expected CPU a root costs is
/// `L(n) = cost(n) + sel(n) · Σ_branches w · Σ_edges L(child)`, with
/// `w = 1` for broadcasting operators and `1/branches` for a split,
/// averaged over the entries (arrivals rotate over them).
pub fn capacity_tps(net: &QueryNetwork, h: f64) -> f64 {
    fn load(i: usize, net: &QueryNetwork, memo: &mut [Option<f64>]) -> f64 {
        if let Some(l) = memo[i] {
            return l;
        }
        let node = &net.nodes()[i];
        let w = if node.logic.kind() == "split" {
            1.0 / node.outputs.len().max(1) as f64
        } else {
            1.0
        };
        let below: f64 = node
            .outputs
            .iter()
            .flat_map(|b| b.iter())
            .map(|e| w * load(e.node.index(), net, memo))
            .sum();
        let l = node.cost.as_micros() as f64 + node.logic.expected_selectivity() * below;
        memo[i] = Some(l);
        l
    }
    let mut memo = vec![None; net.nodes().len()];
    let entries: Vec<usize> = (0..net.nodes().len())
        .filter(|&i| net.nodes()[i].is_entry)
        .collect();
    let mean_us = entries
        .iter()
        .map(|&e| load(e, net, &mut memo))
        .sum::<f64>()
        / entries.len() as f64;
    h * 1e6 / mean_us
}

/// One replay's measurements.
struct Replay {
    report: RunReport,
    wall: Duration,
    hook_ns: u64,
}

fn replay(sim: Simulator, arrivals: &[SimTime], traced: bool) -> Replay {
    let strategy = CtrlStrategy::from_config(&LoopConfig::paper_default());
    let horizon = secs(HORIZON_S);
    if traced {
        let rows = Arc::new(Mutex::new(Vec::new()));
        let mut hook = Probe {
            inner: strategy,
            rows: Arc::clone(&rows),
            timed: true,
        };
        let t0 = Instant::now();
        let report = sim.run(arrivals, &mut hook, horizon);
        let wall = t0.elapsed();
        let hook_ns = rows
            .lock()
            .expect("period log poisoned")
            .iter()
            .map(|r| r.hook_ns)
            .sum();
        Replay {
            report,
            wall,
            hook_ns,
        }
    } else {
        let mut hook = strategy;
        let t0 = Instant::now();
        let report = sim.run(arrivals, &mut hook, horizon);
        Replay {
            report,
            wall: t0.elapsed(),
            hook_ns: 0,
        }
    }
}

/// Runs the simulation workload: whole replays of the same trace until
/// `--seconds` have passed (at least two, so determinism is checked).
pub fn run(args: &Args, traced: bool) -> Result<Pass, String> {
    let cfg = SimConfig::paper_default().with_seed(mix(args.seed));
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        let times = WebLikeTrace::builder()
            .sources(SOURCES)
            .seed(args.seed)
            .build()
            .arrival_times(HORIZON_S as f64);
        let arrivals: Vec<SimTime> = to_micros(&times).into_iter().map(SimTime).collect();
        gen_s.push(t0.elapsed().as_secs_f64());
        let sim = Simulator::new(identification_network(), cfg.clone());
        setup_s.push(t0.elapsed().as_secs_f64());
        ready = Some((arrivals, sim));
    }
    let (arrivals, first) = ready.expect("at least one set-up");
    let capacity = capacity_tps(&identification_network(), cfg.headroom);
    let due = arrivals
        .iter()
        .filter(|&&t| t < SimTime::ZERO + secs(HORIZON_S))
        .count() as u64;

    let budget = Duration::from_secs(args.seconds);
    let t_start = Instant::now();
    let Replay {
        report: r0,
        wall,
        hook_ns,
    } = replay(first, &arrivals, traced);
    // Every later replay is compared with the first and then dropped, so
    // the bench's memory does not grow with the number of replays a run
    // fits in. Compared through `Debug`, which is NaN-safe (`NaN != NaN`
    // under `PartialEq`, and periods without departures carry NaN means)
    // and tells every other f64 bit pattern apart.
    let first_debug = format!("{r0:?}");
    let mut identical = true;
    // Per replay: wall time inside `Simulator::run`, and of it the time
    // inside the timed hook (traced runs).
    let mut timings = vec![(wall, hook_ns)];
    while timings.len() < 2 || t_start.elapsed() < budget {
        let sim = Simulator::new(identification_network(), cfg.clone());
        let r = replay(sim, &arrivals, traced);
        identical &= format!("{:?}", r.report) == first_debug;
        timings.push((r.wall, r.hook_ns));
    }

    let mut p = Pass {
        attempted: r0.offered * timings.len() as u64,
        failed: 0,
        ..Pass::default()
    };
    p.check(r0.offered == due, || {
        format!(
            "simulator offered {} tuples, the trace has {due} before the horizon",
            r0.offered
        )
    });
    p.check(r0.counters_balance(), || {
        format!("conservation residual {}", r0.conservation_residual())
    });
    for (k, rec) in r0.periods.iter().enumerate() {
        let rate = rec.completed as f64;
        p.check(rate <= capacity * (1.0 + CAPACITY_TOLERANCE), || {
            format!("period {k} retired {rate} roots, capacity is {capacity:.1}/s")
        });
    }
    p.check(identical, || {
        "two replays of the same seed gave different reports".into()
    });

    // Every replay's report equals the first's, so its counts serve all.
    let per_wall = |n: u64| -> Vec<f64> {
        timings
            .iter()
            .map(|(w, _)| n as f64 / w.as_secs_f64())
            .collect()
    };
    let mut tps = per_wall(r0.offered);
    let mut good = per_wall(r0.completed);
    let mut lat: Vec<f64> = timings.iter().map(|(w, _)| w.as_secs_f64() * 1e6).collect();
    p.e2e.insert("ingest_tps", median(&mut tps));
    p.e2e.insert("goodput_tps", median(&mut good));
    p.e2e.insert("delay_mean_ms", r0.delay_stats().mean_ms());
    p.e2e.insert("frame_rtt_p50_us", median(&mut lat));
    p.e2e.insert("setup_s", median(&mut setup_s));
    p.e2e.insert("peak_rss_mb", probe::peak_rss_mb());
    p.headline = p.e2e["ingest_tps"];

    if traced {
        let mut self_ns: Vec<f64> = timings
            .iter()
            .map(|&(w, hook)| (w.as_nanos() as f64 - hook as f64) / r0.offered as f64)
            .collect();
        let periods = r0.periods.len().max(1) as f64;
        let mut hook_us: Vec<f64> = timings
            .iter()
            .map(|&(_, hook)| hook as f64 / periods / 1e3)
            .collect();
        p.layers
            .insert("sim.self_ns_per_tuple", median(&mut self_ns));
        p.layers.insert(
            "sim.executions",
            r0.node_stats.iter().map(|n| n.processed as f64).sum(),
        );
        p.layers
            .insert("sim.dropped_network", r0.dropped_network as f64);
        p.layers
            .insert("control.on_period_us", median(&mut hook_us));
        p.layers.insert("control.periods", r0.periods.len() as f64);
        p.layers.insert("workload.gen_s", median(&mut gen_s));
    }
    Ok(p)
}
