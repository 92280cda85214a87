//! The two workloads behind the TCP front door: `ingest_saturate`
//! (closed loop, the front door at the front) and `overload_3x`
//! (open-loop Poisson at 3× capacity, the control loop at the front).
//!
//! Both drive the program only through `ShardedEngine`, the CTRL
//! strategy, `NetServer::start` and `net::wire`; the client here is the
//! bench's own, so every frame's round trip is timed from when it was
//! due and every reply is checked against what was sent.

use crate::probe::{self, BenchDoor, DoorTiming, PeriodRow, Probe, TaskStat};
use crate::{median, mix, quantile, Args, Pass};
use std::collections::VecDeque;
use std::io::{ErrorKind, Read, Write};
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};
use streamshed_control::loop_::LoopConfig;
use streamshed_control::strategy::CtrlStrategy;
use streamshed_engine::histo::Histo;
use streamshed_engine::obs::{ObsOptions, ObsPlane};
use streamshed_engine::shard::{Dispatch, ShardConfig, ShardReport, ShardedEngine};
use streamshed_engine::spans::Stage;
use streamshed_engine::worker::CostModel;
use streamshed_net::server::{NetConfig, NetObs, NetServer, NetStats};
use streamshed_net::sys::{self, PollFd, POLLERR, POLLHUP, POLLIN, POLLNVAL};
use streamshed_net::wire::{self, Reply};
use streamshed_net::FrontDoor;
use streamshed_workload::{frame_schedule, FrameAt, PoissonTrace};

/// Set-ups per run; `setup_s` is their median and the last one is run.
/// A set-up takes under a millisecond here, so single thread spawns and
/// connects that the host delays move it by half: the median of many
/// holds steady where the median of 7 did not.
const SETUPS: usize = 21;
/// Longest wait for outstanding replies after the window closes.
const DRAIN: Duration = Duration::from_secs(5);
/// The closed loop records the round trip of every n-th reply and the
/// lateness of every n-th write: it answers ~370k frames a second, and
/// a sample of every one would make the bench's own vectors the bulk of
/// `peak_rss_mb` (~0.4 MiB more per second of window at n = 8).
const CLOSED_SAMPLE_EVERY: u64 = 64;
/// The open-loop sender wakes this long before a frame is due and
/// spins the rest of the way.
const SPIN_BEFORE_DUE: Duration = Duration::from_micros(200);
/// `overload_3x`: steady-state delay must lie within this share of the
/// delay target.
const DELAY_TOLERANCE: f64 = 0.20;
/// `overload_3x`: minimum Jain index of per-connection accepted ratios.
const JAIN_MIN: f64 = 0.99;
/// `overload_3x`: each key-hash shard's share of admitted tuples may
/// differ from `1/shards` by at most this much.
const SHARD_SHARE_TOLERANCE: f64 = 0.05;
/// Core of every client thread, and of the listener's event loop
/// (`NetConfig::pin_workers` puts listener 0 on core 0). Left to the
/// scheduler, where the busy threads land (together or apart, next to a
/// halted or a running vCPU) is decided once per run and moves every
/// figure by more than a change to the program would; on one core, a
/// frame's whole round trip runs without waking a halted vCPU.
const FRONT_CORE: usize = 0;
/// Core of the engine's shard workers and controller thread.
const ENGINE_CORE: usize = 1;
/// Headroom `H` of every shard and of the controller's plant model.
const HEADROOM: f64 = 0.97;

/// How the client drives the front door.
#[derive(Debug, Clone, Copy)]
pub enum Load {
    /// One connection keeping `in_flight` keyed frames of
    /// `frame_tuples` outstanding; frames cycle through a pool of
    /// `pool` distinct key sets.
    Closed {
        in_flight: usize,
        frame_tuples: usize,
        pool: usize,
    },
    /// Poisson arrivals at `overload` × the shards' nominal capacity,
    /// split over `conns` connections, packed into frames of at most
    /// `batch` keyed tuples, sent when due whatever the replies do.
    Open {
        overload: f64,
        conns: usize,
        batch: usize,
    },
}

/// A TCP workload: engine shape, controller settings and client load.
#[derive(Debug, Clone)]
pub struct Spec {
    pub shards: usize,
    /// Service time of one tuple, slept (`CostModel::Sleep`): a
    /// spinning shard would be one more busy thread than the host has
    /// cores.
    pub cost: Duration,
    pub dispatch: Dispatch,
    pub period: Duration,
    pub target: Duration,
    pub queue_capacity: usize,
    /// Time from the start of traffic to the start of the measured
    /// window: the controller's first periods (α = 0, ring filling) are
    /// not the steady state the metrics describe.
    pub warmup: Duration,
    pub load: Load,
    /// Check delay tracking, fairness and shard balance (the paper's
    /// regime; the closed loop runs one connection into one shard, where
    /// fairness and balance say nothing).
    pub check_regime: bool,
}

impl Spec {
    /// Closed loop of 256-tuple keyed frames, 32 in flight, into one
    /// 2 ms sleep-cost shard under CTRL (200 ms target). The only busy
    /// threads are the listener and the client, which share `FRONT_CORE`.
    pub fn ingest_saturate() -> Self {
        Self {
            shards: 1,
            cost: Duration::from_millis(2),
            dispatch: Dispatch::RoundRobin,
            period: Duration::from_millis(50),
            target: Duration::from_millis(200),
            // ~2 s of backlog at the shard's drain rate: the first period
            // (α = 0) fills it, and the controller has drained it well
            // before the warm-up ends.
            queue_capacity: 1024,
            warmup: Duration::from_secs(4),
            load: Load::Closed {
                in_flight: 32,
                frame_tuples: 256,
                pool: 64,
            },
            check_regime: false,
        }
    }

    /// Open-loop Poisson fleet at 3× the capacity of two 2 ms sleep-cost
    /// shards with key-hash dispatch under CTRL (250 ms target). The
    /// sender, the reply reader and the listener share `FRONT_CORE`, so
    /// a frame's whole round trip runs on a core the sender's spin before
    /// each due time keeps awake.
    pub fn overload_3x() -> Self {
        Self {
            shards: 2,
            cost: Duration::from_millis(2),
            dispatch: Dispatch::KeyHash,
            period: Duration::from_millis(50),
            target: Duration::from_millis(250),
            queue_capacity: 8192,
            warmup: Duration::from_secs(4),
            load: Load::Open {
                overload: 3.0,
                conns: 2,
                batch: 8,
            },
            check_regime: true,
        }
    }

    fn nominal_capacity_tps(&self) -> f64 {
        self.shards as f64 / self.cost.as_secs_f64()
    }
}

/// The generated client inputs.
enum Inputs {
    /// Key sets of the closed loop's frame pool.
    Pool(Vec<Vec<u64>>),
    /// Per connection: its frame schedule and the keys of every frame,
    /// concatenated in schedule order.
    Schedules(Vec<(Vec<FrameAt>, Vec<u64>)>),
}

impl Inputs {
    fn generate(spec: &Spec, seed: u64, span: Duration) -> Self {
        match spec.load {
            Load::Closed {
                frame_tuples, pool, ..
            } => Inputs::Pool(
                (0..pool as u64)
                    .map(|f| {
                        (0..frame_tuples as u64)
                            .map(|i| mix(seed ^ mix(f << 32 | i)))
                            .collect()
                    })
                    .collect(),
            ),
            Load::Open {
                overload,
                conns,
                batch,
            } => {
                let rate = spec.nominal_capacity_tps() * overload / conns as f64;
                Inputs::Schedules(
                    (0..conns as u64)
                        .map(|c| {
                            let conn_seed = mix(seed ^ mix(c));
                            let trace = PoissonTrace::new(rate, conn_seed);
                            let frames = frame_schedule(&trace, span.as_secs_f64(), batch);
                            let tuples: u64 = frames.iter().map(|f| u64::from(f.tuples)).sum();
                            let keys = (0..tuples).map(|i| mix(conn_seed ^ mix(i))).collect();
                            (frames, keys)
                        })
                        .collect(),
                )
            }
        }
    }

    fn conns(&self) -> usize {
        match self {
            Inputs::Pool(_) => 1,
            Inputs::Schedules(s) => s.len(),
        }
    }
}

/// One running engine + listener + connected client sockets.
struct Rig {
    engine: Arc<ShardedEngine>,
    server: NetServer,
    rows: Arc<Mutex<Vec<PeriodRow>>>,
    timing: Option<Arc<DoorTiming>>,
    plane: Option<ObsPlane>,
    /// Shard worker thread ids (spawned first, so the lowest new ids).
    worker_tids: Vec<u32>,
    /// Listener event-loop thread ids.
    listener_tids: Vec<u32>,
    conns: Vec<TcpStream>,
}

impl Rig {
    fn start(spec: &Spec, args: &Args, traced: bool, conns: usize) -> Result<Self, String> {
        let cfg = ShardConfig {
            shards: spec.shards,
            cost: spec.cost,
            period: spec.period,
            target_delay: spec.target,
            headroom: HEADROOM,
            queue_capacity: spec.queue_capacity,
            panic_on_tuple: None,
            cost_model: CostModel::Sleep,
            dispatch: spec.dispatch,
            seed: args.seed,
            pin_cores: false,
            sample_every: streamshed_engine::spans::DEFAULT_SAMPLE_EVERY,
        };
        let loop_cfg = LoopConfig::paper_default()
            .with_target_delay_ms(spec.target.as_secs_f64() * 1e3)
            .with_period_ms(spec.period.as_secs_f64() * 1e3)
            .with_headroom(HEADROOM)
            .with_prior_cost_us(spec.cost.as_secs_f64() * 1e6 / spec.shards as f64);
        let rows = Arc::new(Mutex::new(Vec::new()));
        let hook = Probe {
            inner: CtrlStrategy::from_config(&loop_cfg),
            rows: Arc::clone(&rows),
            timed: traced,
        };
        let before = probe::task_ids();
        let engine = Arc::new(if traced {
            let mut options = ObsOptions::for_target(spec.target);
            options.http = None;
            ShardedEngine::spawn_observed(cfg, hook, &options).map_err(|e| e.to_string())?
        } else {
            ShardedEngine::spawn(cfg, hook)
        });
        let with_engine = probe::task_ids();
        let worker_tids: Vec<u32> = with_engine
            .difference(&before)
            .copied()
            .take(spec.shards)
            .collect();
        let timing = traced.then(|| Arc::new(DoorTiming::default()));
        let door: Arc<dyn FrontDoor> = if traced || args.sabotage_ns > 0 {
            Arc::new(BenchDoor {
                inner: Arc::clone(&engine),
                delay: Duration::from_nanos(args.sabotage_ns),
                timing: timing.clone(),
            })
        } else {
            engine.clone()
        };
        let plane = engine.obs().map(|o| o.plane.clone());
        let obs = plane.as_ref().map(|p| NetObs {
            metrics: engine.metrics_fn(),
            plane: Some(p.clone()),
        });
        let server = NetServer::start(
            NetConfig {
                addr: "127.0.0.1:0".into(),
                workers: 1,
                pin_workers: true,
                ..NetConfig::default()
            },
            door,
            obs,
        )
        .map_err(|e| format!("listener: {e}"))?;
        let listener_tids = probe::task_ids()
            .difference(&with_engine)
            .copied()
            .collect();
        let conns = (0..conns)
            .map(|_| {
                let s = TcpStream::connect(server.addr())?;
                s.set_nodelay(true)?;
                Ok(s)
            })
            .collect::<std::io::Result<Vec<_>>>()
            .map_err(|e| format!("connect: {e}"))?;
        Ok(Self {
            engine,
            server,
            rows,
            timing,
            plane,
            worker_tids,
            listener_tids,
            conns,
        })
    }

    /// Drains the listener, then the engine; returns the engine ledger.
    fn stop(self) -> ShardReport {
        drop(self.conns);
        self.server.shutdown();
        match Arc::try_unwrap(self.engine) {
            Ok(engine) => engine.shutdown(),
            Err(_) => panic!("engine still referenced after the listener drained"),
        }
    }
}

/// Frames classified by when they were due.
struct Window {
    t0: Instant,
    t1: Instant,
}

impl Window {
    fn contains(&self, t: Instant) -> bool {
        t >= self.t0 && t < self.t1
    }
}

/// One second of the measured window, by frame due time. Rates and
/// round-trip quantiles are taken per slice and reported as the median
/// over slices, so a few seconds of host contention (CPU steal on a
/// shared VM) do not decide a run's figure.
#[derive(Debug, Default, Clone)]
struct Slice {
    /// Tuples answered (accepted + shed).
    answered: u64,
    /// Sampled frame round trips, ns from when the frame was due.
    rtt_ns: Vec<f64>,
}

/// Median over slices of a per-slice figure.
fn slice_median(slices: &[Slice], f: impl Fn(&Slice) -> f64) -> f64 {
    median(&mut slices.iter().map(f).collect::<Vec<_>>())
}

/// The client's reply-derived view of the run.
#[derive(Debug, Default)]
struct Tally {
    // Whole run: the four-bucket ledger rebuilt from replies.
    sent: u64,
    frames: u64,
    replies: u64,
    accepted: u64,
    shed: u64,
    rejected_capacity: u64,
    rejected_closed: u64,
    /// Tuples in frames that never got a reply.
    lost: u64,
    lost_frames: u64,
    error_replies: u64,
    dropped_conns: u64,
    /// Per connection `(accepted, sent)`.
    per_conn: Vec<(u64, u64)>,
    /// Record the round trip of every n-th reply.
    rtt_every: u64,
    // Measured window (frames due inside it).
    w_attempted: u64,
    w_failed: u64,
    /// Per one-second slice of the window.
    w_slices: Vec<Slice>,
    w_frames: u64,
    w_late_ns: Vec<f64>,
    /// Protocol violations seen by the client.
    errors: Vec<String>,
}

impl Tally {
    /// Books one reply to a frame of `tuples` tuples due at `due`.
    fn reply(
        &mut self,
        conn: usize,
        due: Instant,
        tuples: u32,
        r: &Reply,
        now: Instant,
        w: &Window,
    ) {
        self.replies += 1;
        let in_window = w.contains(due);
        if r.status != Reply::STATUS_OK {
            self.error_replies += 1;
            self.lost += u64::from(tuples);
            if in_window {
                self.w_attempted += u64::from(tuples);
                self.w_failed += u64::from(tuples);
            }
            return;
        }
        if r.total() != u64::from(tuples) {
            self.errors.push(format!(
                "reply to seq {} accounts for {} tuples, frame had {tuples}",
                r.seq,
                r.total()
            ));
        }
        self.accepted += u64::from(r.accepted);
        self.shed += u64::from(r.shed);
        self.rejected_capacity += u64::from(r.rejected_capacity);
        self.rejected_closed += u64::from(r.rejected_closed);
        self.per_conn[conn].0 += u64::from(r.accepted);
        if in_window {
            let failed = u64::from(r.rejected_capacity + r.rejected_closed);
            self.w_attempted += u64::from(tuples);
            self.w_failed += failed;
            let i = due.duration_since(w.t0).as_secs() as usize;
            if self.w_slices.len() <= i {
                self.w_slices.resize_with(i + 1, Slice::default);
            }
            let slice = &mut self.w_slices[i];
            slice.answered += u64::from(r.accepted + r.shed);
            if self.replies.is_multiple_of(self.rtt_every) {
                slice.rtt_ns.push(now.duration_since(due).as_nanos() as f64);
            }
            self.w_frames += 1;
        }
    }

    fn sent(&mut self, conn: usize, tuples: u32) {
        self.sent += u64::from(tuples);
        self.frames += 1;
        self.per_conn[conn].1 += u64::from(tuples);
    }

    fn lose(&mut self, due: Instant, tuples: u32, w: &Window) {
        self.lost += u64::from(tuples);
        self.lost_frames += 1;
        if w.contains(due) {
            self.w_attempted += u64::from(tuples);
            self.w_failed += u64::from(tuples);
        }
    }

    fn jain(&self) -> f64 {
        let ratios: Vec<f64> = self
            .per_conn
            .iter()
            .filter(|c| c.1 > 0)
            .map(|&(a, s)| a as f64 / s as f64)
            .collect();
        let n = ratios.len() as f64;
        let sum: f64 = ratios.iter().sum();
        let sq: f64 = ratios.iter().map(|r| r * r).sum();
        if sq > 0.0 {
            sum * sum / (n * sq)
        } else {
            1.0
        }
    }
}

/// Reads whatever is available into `buf[*have..]`; `false` when the
/// connection is gone.
fn fill(stream: &mut TcpStream, buf: &mut [u8], have: &mut usize) -> bool {
    loop {
        match stream.read(&mut buf[*have..]) {
            Ok(0) => return false,
            Ok(n) => {
                *have += n;
                return true;
            }
            Err(e) if e.kind() == ErrorKind::Interrupted => continue,
            Err(_) => return false,
        }
    }
}

/// Decodes every complete reply in `buf[..*have]`, handing each to `f`,
/// and keeps the unread tail. `false` on a malformed reply stream.
fn drain_replies(buf: &mut [u8], have: &mut usize, mut f: impl FnMut(Reply)) -> bool {
    let mut used = 0;
    let ok = loop {
        match wire::decode_reply(&buf[used..*have]) {
            Ok(Some((r, n))) => {
                used += n;
                f(r);
            }
            Ok(None) => break true,
            Err(_) => break false,
        }
    };
    buf.copy_within(used..*have, 0);
    *have -= used;
    ok
}

/// Closed loop on one connection: a new frame goes out for every reply
/// until the window closes, then the outstanding frames are collected.
fn closed_loop(mut stream: TcpStream, pool: &[Vec<u64>], in_flight: usize, w: &Window) -> Tally {
    let mut t = Tally {
        per_conn: vec![(0, 0)],
        rtt_every: CLOSED_SAMPLE_EVERY,
        ..Tally::default()
    };
    let mut outstanding: VecDeque<(u64, Instant, u32)> = VecDeque::with_capacity(in_flight);
    let mut wbuf: Vec<u8> = Vec::new();
    let mut rbuf = vec![0u8; 64 * 1024];
    let mut have = 0usize;
    let mut seq = 0u64;
    let mut writes = 0u64;
    let mut send =
        |wbuf: &mut Vec<u8>, outstanding: &mut VecDeque<_>, t: &mut Tally, due: Instant| {
            let keys = &pool[seq as usize % pool.len()];
            wire::encode_frame_into(wbuf, seq, keys.len() as u32, Some(keys));
            outstanding.push_back((seq, due, keys.len() as u32));
            t.sent(0, keys.len() as u32);
            seq += 1;
        };
    let now = Instant::now();
    for _ in 0..in_flight {
        send(&mut wbuf, &mut outstanding, &mut t, now);
    }
    let mut alive = stream.write_all(&wbuf).is_ok();
    wbuf.clear();
    while alive && !outstanding.is_empty() {
        if !fill(&mut stream, &mut rbuf, &mut have) {
            alive = false;
            break;
        }
        let now = Instant::now();
        let mut due_sends = 0usize;
        let ok = drain_replies(&mut rbuf, &mut have, |r| {
            let Some((s, due, tuples)) = outstanding.pop_front() else {
                t.errors
                    .push(format!("reply {} to no outstanding frame", r.seq));
                return;
            };
            if r.seq != s {
                t.errors
                    .push(format!("reply seq {} where {s} was next", r.seq));
            }
            t.reply(0, due, tuples, &r, now, w);
            if now < w.t1 {
                due_sends += 1;
            }
        });
        if !ok {
            t.errors.push("malformed reply stream".into());
            alive = false;
            break;
        }
        for _ in 0..due_sends {
            send(&mut wbuf, &mut outstanding, &mut t, now);
        }
        if !wbuf.is_empty() {
            alive = stream.write_all(&wbuf).is_ok();
            wbuf.clear();
            writes += 1;
            if w.contains(now) && writes.is_multiple_of(CLOSED_SAMPLE_EVERY) {
                t.w_late_ns.push(now.elapsed().as_nanos() as f64);
            }
        }
    }
    if !alive {
        t.dropped_conns += 1;
    }
    for (_, due, tuples) in outstanding {
        t.lose(due, tuples, w);
    }
    let _ = stream.shutdown(std::net::Shutdown::Both);
    t
}

/// Open loop: one sender thread writes every connection's frames when
/// they are due; this thread reads replies from all connections.
fn open_loop(
    streams: Vec<TcpStream>,
    scheds: &[(Vec<FrameAt>, Vec<u64>)],
    start: Instant,
    w: &Window,
) -> Tally {
    let n = streams.len();
    let mut t = Tally {
        per_conn: vec![(0, 0); n],
        rtt_every: 1,
        ..Tally::default()
    };
    let due = |c: usize, i: usize| start + Duration::from_micros(scheds[c].0[i].at_us);
    let sender_done = AtomicBool::new(false);
    let writers: Vec<TcpStream> = streams
        .iter()
        .map(|s| s.try_clone().expect("clone client socket"))
        .collect();
    std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut writers = writers;
            let mut order: Vec<(u64, usize, usize)> = scheds
                .iter()
                .enumerate()
                .flat_map(|(c, (frames, _))| {
                    frames.iter().enumerate().map(move |(i, f)| (f.at_us, c, i))
                })
                .collect();
            order.sort_unstable();
            let mut key_at = vec![0usize; n];
            let mut late = Vec::new();
            let mut sent = vec![0usize; n];
            let mut dead = vec![false; n];
            let mut buf = Vec::new();
            for (_, c, i) in order {
                let tuples = scheds[c].0[i].tuples;
                let keys = &scheds[c].1[key_at[c]..key_at[c] + tuples as usize];
                key_at[c] += tuples as usize;
                if dead[c] {
                    continue;
                }
                // Sleep to just short of the due time, then spin: the
                // sleep alone would overshoot by the timer slack and
                // the wake-up, and make the generator late.
                let d = due(c, i);
                std::thread::sleep(d.saturating_duration_since(Instant::now() + SPIN_BEFORE_DUE));
                while Instant::now() < d {
                    std::hint::spin_loop();
                }
                buf.clear();
                wire::encode_frame_into(&mut buf, i as u64, tuples, Some(keys));
                if writers[c].write_all(&buf).is_err() {
                    dead[c] = true;
                    continue;
                }
                sent[c] += 1;
                if w.contains(d) {
                    late.push(d.elapsed().as_nanos() as f64);
                }
            }
            sender_done.store(true, Ordering::SeqCst);
            (late, sent)
        });

        // Sockets stay blocking (the sender shares them): `poll` says
        // which one has replies, and one `read` takes what is there.
        let mut streams = streams;
        let mut next = vec![0usize; n];
        let mut bufs = vec![vec![0u8; 64 * 1024]; n];
        let mut have = vec![0usize; n];
        let mut alive = vec![true; n];
        let mut deadline: Option<Instant> = None;
        loop {
            if sender_done.load(Ordering::SeqCst) {
                let d = *deadline.get_or_insert_with(|| Instant::now() + DRAIN);
                let all_in = (0..n).all(|c| !alive[c] || next[c] == scheds[c].0.len());
                if all_in || Instant::now() >= d {
                    break;
                }
            }
            let mut fds: Vec<PollFd> = streams
                .iter()
                .map(|s| PollFd {
                    fd: s.as_raw_fd(),
                    events: POLLIN,
                    revents: 0,
                })
                .collect();
            sys::poll(&mut fds, 20);
            let now = Instant::now();
            for c in 0..n {
                if !alive[c] || fds[c].revents & (POLLIN | POLLHUP | POLLERR | POLLNVAL) == 0 {
                    continue;
                }
                if !fill(&mut streams[c], &mut bufs[c], &mut have[c]) {
                    alive[c] = false;
                    continue;
                }
                let ok = drain_replies(&mut bufs[c], &mut have[c], |r| {
                    let i = next[c];
                    if i >= scheds[c].0.len() || r.seq != i as u64 {
                        t.errors
                            .push(format!("conn {c}: reply seq {} where {i} was next", r.seq));
                        return;
                    }
                    next[c] += 1;
                    t.reply(c, due(c, i), scheds[c].0[i].tuples, &r, now, w);
                });
                if !ok {
                    t.errors.push(format!("conn {c}: malformed reply stream"));
                    alive[c] = false;
                }
            }
        }
        let (late, sent) = sender.join().expect("sender thread panicked");
        t.w_late_ns = late;
        for c in 0..n {
            for i in 0..sent[c] {
                t.sent(c, scheds[c].0[i].tuples);
            }
            for i in next[c]..sent[c] {
                t.lose(due(c, i), scheds[c].0[i].tuples, w);
            }
            if !alive[c] || sent[c] < scheds[c].0.len() {
                t.dropped_conns += 1;
            }
            let _ = streams[c].shutdown(std::net::Shutdown::Both);
        }
    });
    t
}

/// The span histograms the per-layer metrics read, merged over slots.
struct SpanCut {
    /// Listener frame turnaround (`net*` slots' sojourn).
    net: Histo,
    /// Shard slots' sampled admission → retirement sojourn.
    shard_sojourn: Histo,
    ring_wait: Histo,
    execute: Histo,
}

impl SpanCut {
    fn take(plane: &ObsPlane) -> Self {
        let snap = plane.spans().snapshot();
        let mut net = Histo::new();
        let mut shard_sojourn = Histo::new();
        for l in &snap.labels {
            if l.label.starts_with("net") {
                net.merge(&l.sojourn);
            } else {
                shard_sojourn.merge(&l.sojourn);
            }
        }
        let [ring_wait, execute] =
            [Stage::RingWait, Stage::Execute].map(|s| snap.stages[s.index()].clone());
        Self {
            net,
            shard_sojourn,
            ring_wait,
            execute,
        }
    }
}

/// Quantile `q` of the values recorded into a histogram between two of
/// its snapshots, at bucket resolution: the span histograms cannot be
/// reset, and the warm-up's first periods (α = 0, ring filling) must
/// not leak into the window's tail.
fn window_quantile(before: &Histo, after: &Histo, q: f64) -> u64 {
    let n = after.count() - before.count();
    if n == 0 {
        return 0;
    }
    let rank = ((q * n as f64).ceil() as u64).clamp(1, n);
    let (mut lo, mut hi) = (0u64, after.max());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if after.cumulative_le(mid) - before.cumulative_le(mid) >= rank {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    lo
}

/// Listener, worker, front-door and span counters at one instant
/// (traced run).
struct Sample {
    listener: TaskStat,
    workers: TaskStat,
    frames: u64,
    offered: u64,
    shed: u64,
    rejected_capacity: u64,
    spans: Option<SpanCut>,
}

impl Sample {
    fn take(rig: &Rig, stats: &NetStats) -> Self {
        let l = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
        Self {
            listener: TaskStat::sum(&rig.listener_tids),
            workers: TaskStat::sum(&rig.worker_tids),
            frames: l(&stats.frames_received),
            offered: l(&stats.tuples_offered),
            shed: l(&stats.tuples_shed),
            rejected_capacity: l(&stats.tuples_rejected_capacity),
            spans: rig.plane.as_ref().map(SpanCut::take),
        }
    }
}

/// Goodput (tuples/s, the median over one-second runs of periods) and
/// completed-weighted mean delay (ms) over the control periods that
/// ended inside the window, plus those periods.
fn window_periods(rows: &[PeriodRow], w: &Window, period: Duration) -> (f64, f64, Vec<PeriodRow>) {
    let inside: Vec<usize> = (1..rows.len())
        .filter(|&i| rows[i].at > w.t0 && rows[i].at <= w.t1)
        .collect();
    let per_slice = ((1.0 / period.as_secs_f64()).round() as usize).max(1);
    let mut rates: Vec<f64> = inside
        .chunks_exact(per_slice)
        .map(|c| {
            let span = rows[c[c.len() - 1]]
                .at
                .duration_since(rows[c[0] - 1].at)
                .as_secs_f64();
            c.iter().map(|&i| rows[i].completed).sum::<u64>() as f64 / span
        })
        .collect();
    let rows: Vec<PeriodRow> = inside.iter().map(|&i| rows[i]).collect();
    let completed: u64 = rows.iter().map(|r| r.completed).sum();
    let delay_sum: f64 = rows
        .iter()
        .filter_map(|r| r.delay_ms.map(|d| d * r.completed as f64))
        .sum();
    let delay = if completed > 0 {
        delay_sum / completed as f64
    } else {
        0.0
    };
    (median(&mut rates), delay, rows)
}

/// Median ns per call of `f`, over repeated batches of at least 20 ms.
fn time_per_call(calls_per_batch: usize, mut f: impl FnMut()) -> f64 {
    let mut per_call: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut n = 0usize;
            while t0.elapsed() < Duration::from_millis(20) {
                f();
                n += calls_per_batch;
            }
            t0.elapsed().as_nanos() as f64 / n as f64
        })
        .collect();
    median(&mut per_call)
}

/// Wire costs in isolation on the workload's own frames: full decode
/// (header plus every key) per frame, and one reply encode.
fn wire_costs(inputs: &Inputs) -> (f64, f64) {
    let mut buf = Vec::new();
    let mut frames = 0usize;
    match inputs {
        Inputs::Pool(pool) => {
            for (i, keys) in pool.iter().enumerate() {
                wire::encode_frame_into(&mut buf, i as u64, keys.len() as u32, Some(keys));
                frames += 1;
            }
        }
        Inputs::Schedules(s) => {
            let (sched, keys) = &s[0];
            let mut at = 0usize;
            for (i, f) in sched.iter().take(256).enumerate() {
                let k = &keys[at..at + f.tuples as usize];
                at += f.tuples as usize;
                wire::encode_frame_into(&mut buf, i as u64, f.tuples, Some(k));
                frames += 1;
            }
        }
    }
    let decode = time_per_call(frames, || {
        let mut off = 0usize;
        let mut sum = 0u64;
        while let Ok(Some((f, used))) = wire::decode_frame(&buf[off..], wire::DEFAULT_MAX_TUPLES) {
            for i in 0..f.count as usize {
                sum = sum.wrapping_add(f.key(i));
            }
            off += used;
        }
        std::hint::black_box(sum);
    });
    let mut out = Vec::with_capacity(wire::REPLY_LEN * 1024);
    let encode = time_per_call(1024, || {
        out.clear();
        for seq in 0..1024u64 {
            wire::encode_reply_into(
                &mut out,
                std::hint::black_box(&Reply {
                    status: Reply::STATUS_OK,
                    accepted: 3,
                    shed: 253,
                    rejected_capacity: 0,
                    rejected_closed: 0,
                    seq,
                }),
            );
        }
        std::hint::black_box(&out);
    });
    (decode, encode)
}

/// Pins the calling thread (and the threads it spawns later) to `core`
/// of the host's cores.
fn pin(core: usize) {
    let cores = streamshed_engine::affinity::host_cores();
    streamshed_engine::affinity::pin_current_thread(core % cores);
}

/// Runs one TCP workload pass.
pub fn run(spec: Spec, args: &Args, traced: bool) -> Result<Pass, String> {
    // The engine's threads inherit this thread's core; the listener
    // (`pin_workers`, listener 0 → core 0) and the client move to
    // `FRONT_CORE`.
    pin(ENGINE_CORE);
    let window = Duration::from_secs(args.seconds);
    let mut setup_s = Vec::new();
    let mut gen_s = Vec::new();
    let mut rig = None;
    for i in 0..SETUPS {
        let t0 = Instant::now();
        let inputs = Inputs::generate(&spec, args.seed, spec.warmup + window);
        gen_s.push(t0.elapsed().as_secs_f64());
        let r = Rig::start(&spec, args, traced, inputs.conns())?;
        setup_s.push(t0.elapsed().as_secs_f64());
        if i + 1 < SETUPS {
            r.stop();
        } else {
            rig = Some((r, inputs));
        }
    }
    let (mut rig, inputs) = rig.expect("at least one set-up");
    let stats = rig.server.stats();

    let start = Instant::now();
    let w = Window {
        t0: start + spec.warmup,
        t1: start + spec.warmup + window,
    };
    let conns = std::mem::take(&mut rig.conns);
    let (tally, samples) = std::thread::scope(|scope| {
        // Traced only: counters at the window's edges.
        let sampler = traced.then(|| {
            scope.spawn(|| {
                let at = |t: Instant| {
                    std::thread::sleep(t.saturating_duration_since(Instant::now()));
                    Sample::take(&rig, &stats)
                };
                (at(w.t0), at(w.t1))
            })
        });
        let w = &w;
        let inputs = &inputs;
        let client = scope.spawn(move || {
            pin(FRONT_CORE);
            match (inputs, spec.load) {
                (Inputs::Pool(pool), Load::Closed { in_flight, .. }) => {
                    let stream = conns.into_iter().next().expect("one connection");
                    closed_loop(stream, pool, in_flight, w)
                }
                (Inputs::Schedules(s), Load::Open { .. }) => open_loop(conns, s, start, w),
                _ => unreachable!("inputs follow the load kind"),
            }
        });
        let tally = client.join().expect("client thread panicked");
        (
            tally,
            sampler.map(|s| s.join().expect("sampler thread panicked")),
        )
    });

    let rows = rig.rows.lock().expect("period log poisoned").clone();
    let timing = rig.timing.clone();
    let shards = spec.shards;
    let report = rig.stop();

    let mut p = Pass {
        attempted: tally.w_attempted,
        failed: tally.w_failed,
        ..Pass::default()
    };
    check_ledgers(&mut p, &tally, &stats, &report);
    let (goodput, delay_ms, wrows) = window_periods(&rows, &w, spec.period);
    p.check(!wrows.is_empty(), || {
        "no control period ended inside the window".into()
    });
    if spec.check_regime {
        let target_ms = spec.target.as_secs_f64() * 1e3;
        p.check((delay_ms / target_ms - 1.0).abs() <= DELAY_TOLERANCE, || {
            format!("steady-state delay {delay_ms:.1} ms is not within {DELAY_TOLERANCE} of the {target_ms} ms target")
        });
        let jain = tally.jain();
        p.check(jain >= JAIN_MIN, || {
            format!("Jain index {jain:.4} < {JAIN_MIN}")
        });
        let total: u64 = report.per_shard.iter().map(|s| s.dispatched).sum();
        for (i, s) in report.per_shard.iter().enumerate() {
            let share = s.dispatched as f64 / total.max(1) as f64;
            p.check(
                (share - 1.0 / shards as f64).abs() <= SHARD_SHARE_TOLERANCE,
                || format!("shard {i} got {share:.3} of the admitted keys"),
            );
        }
    }

    let secs = window.as_secs_f64();
    let slices = &tally.w_slices;
    p.e2e
        .insert("ingest_tps", slice_median(slices, |s| s.answered as f64));
    p.e2e.insert("goodput_tps", goodput);
    p.e2e.insert("delay_mean_ms", delay_ms);
    p.e2e.insert(
        "frame_rtt_p50_us",
        slice_median(slices, |s| median(&mut s.rtt_ns.clone())) / 1e3,
    );
    p.e2e.insert("setup_s", median(&mut setup_s));
    p.e2e.insert("peak_rss_mb", probe::peak_rss_mb());
    p.headline = match spec.load {
        Load::Closed { .. } => p.e2e["ingest_tps"],
        Load::Open { .. } => p.e2e["frame_rtt_p50_us"],
    };
    p.check(
        slices.len() == args.seconds as usize && slices.iter().all(|s| !s.rtt_ns.is_empty()),
        || "a second of the window saw no answered frame".into(),
    );

    if traced {
        let mut late = tally.w_late_ns.clone();
        p.layers
            .insert("loadgen.lateness_p99_us", quantile(&mut late, 0.99) / 1e3);
        p.layers
            .insert("loadgen.frames_sent", tally.w_frames as f64);
        let mut rtt: Vec<f64> = slices
            .iter()
            .flat_map(|s| s.rtt_ns.iter().copied())
            .collect();
        p.layers
            .insert("loadgen.rtt_p99_us", quantile(&mut rtt, 0.99) / 1e3);
        let (decode, encode) = wire_costs(&inputs);
        p.layers.insert("wire.decode_ns_per_frame", decode);
        p.layers.insert("wire.reply_encode_ns", encode);
        if let Some((a, b)) = samples {
            let frames = (b.frames - a.frames).max(1) as f64;
            let wall = secs * 1e9;
            p.layers.insert(
                "server.cpu_us_per_frame",
                (b.listener.cpu_ns - a.listener.cpu_ns) as f64 / 1e3 / frames,
            );
            p.layers.insert(
                "server.wakeups_per_frame",
                (b.listener.wakeups - a.listener.wakeups) as f64 / frames,
            );
            if let (Some(x), Some(y)) = (&a.spans, &b.spans) {
                let us = |v: u64| v as f64 / 1e3;
                let ms = |v: u64| v as f64 / 1e6;
                p.layers.insert(
                    "server.turnaround_p99_us",
                    us(window_quantile(&x.net, &y.net, 0.99)),
                );
                p.layers.insert(
                    "ring.wait_p99_ms",
                    ms(window_quantile(&x.ring_wait, &y.ring_wait, 0.99)),
                );
                p.layers.insert(
                    "worker.execute_p50_us",
                    us(window_quantile(&x.execute, &y.execute, 0.5)),
                );
                p.layers.insert(
                    "worker.sojourn_p99_ms",
                    ms(window_quantile(&x.shard_sojourn, &y.shard_sojourn, 0.99)),
                );
            }
            p.layers.insert(
                "admission.shed_fraction",
                (b.shed - a.shed) as f64 / (b.offered - a.offered).max(1) as f64,
            );
            p.layers.insert(
                "ring.rejected_capacity",
                (b.rejected_capacity - a.rejected_capacity) as f64,
            );
            p.layers.insert(
                "worker.cpu_share",
                (b.workers.cpu_ns - a.workers.cpu_ns) as f64 / (wall * shards as f64),
            );
        }
        if let Some(t) = timing {
            let l = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed) as f64;
            p.layers
                .insert("admission.ns_per_tuple", l(&t.ns) / l(&t.tuples).max(1.0));
            p.layers.insert("admission.calls", l(&t.calls));
        }
        let n = wrows.len().max(1) as f64;
        p.layers.insert(
            "ring.occupancy_mean",
            wrows.iter().map(|r| r.queued as f64).sum::<f64>() / n,
        );
        p.layers.insert(
            "worker.cost_ewma_us",
            report.per_shard.iter().map(|s| s.cost_ewma_us).sum::<f64>() / shards as f64,
        );
        p.layers.insert(
            "control.on_period_us",
            wrows.iter().map(|r| r.hook_ns as f64).sum::<f64>() / n / 1e3,
        );
        p.layers.insert("control.periods", report.periods as f64);
        p.layers
            .insert("control.deadline_misses", report.deadline_misses as f64);
        p.layers.insert("workload.gen_s", median(&mut gen_s));
    }
    Ok(p)
}

/// The client's reply-derived ledger, the listener's `NetStats` and the
/// engine's `ShardReport` must agree bucket for bucket, and after the
/// drain every dispatched tuple must have completed.
fn check_ledgers(p: &mut Pass, t: &Tally, s: &NetStats, r: &ShardReport) {
    let l = |v: &std::sync::atomic::AtomicU64| v.load(Ordering::Relaxed);
    p.errors.extend(t.errors.iter().take(5).cloned());
    let buckets = t.accepted + t.shed + t.rejected_capacity + t.rejected_closed;
    p.check(t.sent == buckets + t.lost, || {
        format!(
            "client ledger: sent {} != buckets {buckets} + lost {}",
            t.sent, t.lost
        )
    });
    let pairs = [
        ("offered", t.sent - t.lost, l(&s.tuples_offered), r.offered),
        (
            "accepted",
            t.accepted,
            l(&s.tuples_accepted),
            r.per_shard.iter().map(|x| x.dispatched).sum(),
        ),
        ("shed", t.shed, l(&s.tuples_shed), r.dropped_entry),
        (
            "rejected_capacity",
            t.rejected_capacity,
            l(&s.tuples_rejected_capacity),
            r.rejected_at_capacity,
        ),
        (
            "rejected_closed",
            t.rejected_closed,
            l(&s.tuples_rejected_closed),
            r.rejected_closed,
        ),
    ];
    for (name, client, listener, engine) in pairs {
        p.check(client == listener && listener == engine, || {
            format!("{name}: client {client}, listener {listener}, engine {engine}")
        });
    }
    let (received, replied) = (l(&s.frames_received), l(&s.replies_sent));
    p.check(
        t.frames - t.lost_frames == t.replies && t.replies == received && received == replied,
        || {
            format!(
                "frames: {} sent, {} lost, {} replies seen; listener received {received}, replied {replied}",
                t.frames, t.lost_frames, t.replies
            )
        },
    );
    p.check(l(&s.frames_bad) == 0 && t.error_replies == 0, || {
        format!(
            "{} bad frames, {} error replies",
            l(&s.frames_bad),
            t.error_replies
        )
    });
    p.check(s.tuples_balance() && r.counters_balance(), || {
        "a ledger does not balance".into()
    });
    p.check(
        r.completed == t.accepted && r.dropped_shed == 0 && r.worker_panics == 0,
        || {
            format!(
                "after the drain: completed {} of {} dispatched ({} shed in queue, {} panics)",
                r.completed, t.accepted, r.dropped_shed, r.worker_panics
            )
        },
    );
}
