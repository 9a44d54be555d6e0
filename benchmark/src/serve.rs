//! Cold start and open-loop serving: an in-process server driven by one
//! connection at a fixed ladder of offered rates, with periodic hot swaps
//! during the middle rung.
//!
//! The generator runs two threads, a sender and a receiver, over a single
//! connection. Every request has a due time on a fixed schedule; latency is
//! measured from that due time, so a stalled sender or server charges the
//! wait to every request queued behind it. A shed request is retried with
//! jittered backoff and keeps its original due time.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use poetbin_bits::BitVec;
use poetbin_core::persist::load_classifier;
use poetbin_engine::{Backend, ClassifierEngine};
use poetbin_serve::{Client, ModelRegistry, Response, RetryPolicy, ServeConfig, Server};

use crate::pipeline::Model;
use crate::stats::{beyond, median, percentile, Outcome, Tally, MIN_BEYOND};
use crate::trace::Tracer;

/// One offered rate of the ladder.
#[derive(Clone, Copy, Debug)]
pub struct Rung {
    /// Rung name, used in metric names.
    pub name: &'static str,
    /// Offered requests per second.
    pub rps: f64,
    /// Whether the primary model is hot-swapped every [`SWAP_PERIOD`]
    /// while this rung runs.
    pub swaps: bool,
}

/// The fixed ladder, lightest first. The light rung sees lone requests, so
/// the poller and hand-off path dominate; the heavy rung forms batches. The
/// heavy rung keeps headroom below the served pair's capacity: while other
/// tenants slowed a shared host's cores, 30k requests/s queued for
/// milliseconds and once failed the p99 limit.
/// Hot swaps (decode, compile and canary beside live reads) run only in the
/// middle rung: their codegen occupies a core for tens of milliseconds,
/// which would otherwise set the tail of every rung.
pub const RUNGS: [Rung; 3] = [
    Rung {
        name: "light",
        rps: 5_000.0,
        swaps: false,
    },
    Rung {
        name: "mid",
        rps: 15_000.0,
        swaps: true,
    },
    Rung {
        name: "heavy",
        rps: 20_000.0,
        swaps: false,
    },
];

/// The p99 latency a rung must meet, counting failed requests as misses.
/// Loose next to the sub-millisecond medians: it marks a rung the server
/// no longer keeps up with, even on a shared two-core host.
pub const P99_LIMIT: Duration = Duration::from_millis(25);

/// Latency percentiles are taken per window of this much schedule and
/// reported as their median, so one stall of the host moves one window,
/// not the figure.
pub const WINDOW: Duration = Duration::from_secs(1);

/// A window counts only when the sender's p99 lateness inside it stays
/// within this: a later sender means the host stalled the generator, and
/// the window measures the stall rather than the server.
pub const GEN_LATE_LIMIT: Duration = Duration::from_millis(1);

/// How often the primary model is hot-swapped with its own bytes.
pub const SWAP_PERIOD: Duration = Duration::from_millis(125);

/// How long after its schedule ends a rung may take to settle before the
/// server is shut down to unblock it.
const DRAIN_GRACE: Duration = Duration::from_secs(5);

/// [`DRAIN_GRACE`] in µs: the latency reported for a rung with no correct
/// response at all.
pub const DRAIN_GRACE_US: f64 = DRAIN_GRACE.as_secs_f64() * 1e6;

/// The server configuration every run uses: the defaults, plus a
/// per-request deadline well past the latency limit.
fn serve_config() -> ServeConfig {
    ServeConfig {
        deadline: Some(Duration::from_millis(100)),
        ..ServeConfig::default()
    }
}

/// A server brought up from model bytes, ready for traffic.
pub struct Started {
    /// The running server.
    pub server: Server,
    /// Compiled engines in registration order (wire id = index).
    pub engines: Vec<Arc<ClassifierEngine>>,
}

/// Brings a server up from the models' bytes: decode, compile, prepare
/// every block width, start the server, and connect one client through the
/// hello. Returns the server and the wall time of the whole cold start.
pub fn cold_start(models: &[Model], tr: &mut Tracer) -> Result<(Started, f64), String> {
    let t = Instant::now();
    let started = tr.span("setup.cold_start", 0, |tr| {
        let mut registry = ModelRegistry::new();
        let mut engines = Vec::with_capacity(models.len());
        for m in models {
            let clf = tr
                .span("core.persist.load", 0, |_| load_classifier(&m.bytes))
                .map_err(|e| format!("{}: model bytes do not decode: {e}", m.name))?;
            let engine = tr
                .span("engine.compile", 0, |_| {
                    ClassifierEngine::compile(&clf, m.num_features)
                })
                .map_err(|e| format!("{}: model does not compile: {e}", m.name))?
                .with_backend(Backend::Auto);
            tr.span("engine.prepare", 0, |_| engine.prepare_all());
            let engine = Arc::new(engine);
            registry.register(m.name, Arc::clone(&engine));
            engines.push(engine);
        }
        let server = tr
            .span("serve.start", 0, |_| {
                Server::start(Arc::new(registry), "127.0.0.1:0", serve_config())
            })
            .map_err(|e| format!("server does not start: {e}"))?;
        if let Err(e) = tr.span("serve.connect", 0, |_| Client::connect(server.local_addr())) {
            server.shutdown();
            return Err(format!("client does not connect: {e}"));
        }
        Ok(Started { server, engines })
    })?;
    Ok((started, t.elapsed().as_secs_f64()))
}

/// One request the generator can send, with the offline answer.
pub struct Target {
    /// Wire id of the model it targets.
    pub model: u16,
    /// The feature row.
    pub row: BitVec,
    /// The offline classifier's prediction for the row.
    pub expected: usize,
}

/// What one rung measured.
pub struct RungReport {
    /// The rung.
    pub rung: Rung,
    /// Latency from due time of every correct response, µs, ascending.
    pub latency_us: Vec<f64>,
    /// The same latencies split by [`WINDOW`] of due time, each ascending.
    pub windows_us: Vec<Vec<f64>>,
    /// Failed requests per window; requests never answered count in the
    /// last one.
    pub window_failures: Vec<u64>,
    /// Whether the sender kept each window's schedule within
    /// [`GEN_LATE_LIMIT`].
    pub window_valid: Vec<bool>,
    /// One outcome per request.
    pub tally: Tally,
    /// Correct responses per second, from the first due time to the last
    /// settled request.
    pub achieved_rps: f64,
    /// Duration of each traced send call, µs.
    pub send_us: Vec<f64>,
    /// Server batches during the rung.
    pub batches: u64,
    /// Requests served per batch during the rung.
    pub mean_batch: f64,
    /// Largest sampled server queue depth.
    pub max_queue_depth: usize,
    /// Server overload sheds, retried ones included.
    pub overloaded: u64,
    /// Server deadline sheds, retried ones included.
    pub deadline_expired: u64,
    /// Resends of shed requests.
    pub retries: u64,
    /// How late the sender ran behind each due time, µs, ascending.
    pub gen_late_us: Vec<f64>,
    /// From the end of the schedule to the last settled request.
    pub drain: Duration,
}

impl RungReport {
    /// Median over windows of percentile `p`. Skips the first window (the
    /// hand-over from the previous phase) whenever later ones exist, keeps
    /// only valid windows unless none is, and uses only windows with at
    /// least [`MIN_BEYOND`] samples beyond `p`. With `with_failures`, each
    /// failed request is a sample of infinite latency. Falls back to the
    /// whole rung's percentile when no window qualifies, and is `None` with
    /// no samples at all.
    fn windowed(&self, p: f64, with_failures: bool) -> Option<f64> {
        let samples = |w: &[f64], failed: u64| {
            let mut v = w.to_vec();
            if with_failures {
                v.extend((0..failed).map(|_| f64::INFINITY));
            }
            v
        };
        let warm = usize::from(self.windows_us.len() > 1);
        let mut chosen: Vec<usize> = (warm..self.windows_us.len()).collect();
        if chosen.iter().any(|&w| self.window_valid[w]) {
            chosen.retain(|&w| self.window_valid[w]);
        }
        let per_window: Vec<f64> = chosen
            .iter()
            .map(|&w| samples(&self.windows_us[w], self.window_failures[w]))
            .filter(|v| beyond(v.len(), p) >= MIN_BEYOND)
            .map(|v| percentile(&v, p))
            .collect();
        if !per_window.is_empty() {
            return Some(median(&per_window));
        }
        let failed = if with_failures { self.tally.failed } else { 0 };
        let mut all = samples(&self.latency_us, failed);
        all.sort_by(f64::total_cmp);
        (!all.is_empty()).then(|| percentile(&all, p))
    }

    /// Percentile `p` of correct responses, as a median over windows.
    pub fn windowed_percentile_us(&self, p: f64) -> Option<f64> {
        self.windowed(p, false)
    }

    /// Whether the generator kept to its schedule: its p99 lateness is
    /// inside the latency limit.
    pub fn valid(&self) -> bool {
        !self.gen_late_us.is_empty()
            && percentile(&self.gen_late_us, 99.0) <= P99_LIMIT.as_secs_f64() * 1e6
    }

    /// Whether the rung meets the limit: a valid schedule, windowed p99
    /// inside the limit counting failures as misses, and no backlog left
    /// growing (the last request settles within the limit of the
    /// schedule's end).
    pub fn meets_limit(&self) -> bool {
        let p99 = self.windowed(99.0, true).unwrap_or(f64::INFINITY);
        self.valid() && p99 <= P99_LIMIT.as_secs_f64() * 1e6 && self.drain <= P99_LIMIT
    }
}

/// What the ladder measured.
pub struct Ladder {
    /// One report per rung, lightest first.
    pub rungs: Vec<RungReport>,
    /// Wall time of each hot swap, ms.
    pub swap_ms: Vec<f64>,
    /// One outcome per hot swap. The swaps replay a model's own bytes, so
    /// a rejected one is a wrong output of the decode, compile or canary
    /// path and counts as a mismatch.
    pub swaps: Tally,
    /// Why the first rejected swap was rejected.
    pub swap_error: Option<String>,
}

impl Ladder {
    /// Achieved rate of the highest rung that meets the limit, or 0.
    pub fn max_rps(&self) -> f64 {
        self.rungs
            .iter()
            .rev()
            .find(|r| r.meets_limit())
            .map_or(0.0, |r| r.achieved_rps)
    }
}

/// Runs every rung for `rung_time` against `server`, hot-swapping model
/// `swap.0` with bytes `swap.1` every [`SWAP_PERIOD`] of a swapping rung,
/// then shuts the server down.
pub fn run_ladder(
    server: Server,
    targets: &[Target],
    swap: (u16, &[u8]),
    rung_time: Duration,
    tr: &mut Tracer,
) -> Ladder {
    let mut server = Some(server);
    let mut ladder = Ladder {
        rungs: Vec::new(),
        swap_ms: Vec::new(),
        swaps: Tally::default(),
        swap_error: None,
    };
    for rung in RUNGS {
        let report = tr.span("serve.rung", 0, |tr| {
            run_rung(&mut server, rung, targets, swap, rung_time, &mut ladder, tr)
        });
        ladder.rungs.push(report);
    }
    if let Some(server) = server {
        server.shutdown();
    }
    ladder
}

/// Server counters read at the edges of a rung.
#[derive(Clone, Copy)]
struct Counters {
    served: u64,
    batches: u64,
    overloaded: u64,
    deadline_expired: u64,
}

fn counters(server: &Server) -> Counters {
    let s = server.stats();
    Counters {
        served: s.served(),
        batches: s.batches(),
        overloaded: s.overloaded(),
        deadline_expired: s.deadline_expired(),
    }
}

/// Wire-id table entry: request index and attempt, packed so that 0 means
/// "not yet sent".
fn pack_slot(idx: usize, attempt: u32) -> u64 {
    ((idx as u64 + 1) << 8) | u64::from(attempt)
}

fn unpack_slot(v: u64) -> (usize, u32) {
    (((v >> 8) - 1) as usize, (v & 0xff) as u32)
}

fn run_rung(
    server_slot: &mut Option<Server>,
    rung: Rung,
    targets: &[Target],
    swap: (u16, &[u8]),
    rung_time: Duration,
    ladder: &mut Ladder,
    tr: &mut Tracer,
) -> RungReport {
    let total = (rung.rps * rung_time.as_secs_f64()).round() as usize;
    let mut report = RungReport {
        rung,
        latency_us: Vec::new(),
        windows_us: Vec::new(),
        window_failures: Vec::new(),
        window_valid: Vec::new(),
        tally: Tally::default(),
        achieved_rps: 0.0,
        send_us: Vec::new(),
        batches: 0,
        mean_batch: 0.0,
        max_queue_depth: 0,
        overloaded: 0,
        deadline_expired: 0,
        retries: 0,
        gen_late_us: Vec::new(),
        drain: Duration::ZERO,
    };
    let fail_all = |report: &mut RungReport| {
        for _ in 0..total {
            report.tally.record(Outcome::Refused);
        }
    };
    let Some(server) = server_slot.take() else {
        fail_all(&mut report);
        return report;
    };
    let client = match Client::connect(server.local_addr()) {
        Ok(c) => c,
        Err(_) => {
            fail_all(&mut report);
            *server_slot = Some(server);
            return report;
        }
    };
    let (mut tx, mut rx) = client.into_split();
    let policy = RetryPolicy::default();
    let slots: Vec<AtomicU64> = (0..total * (policy.max_retries as usize + 1))
        .map(|_| AtomicU64::new(0))
        .collect();
    let done = AtomicBool::new(false);
    let (retry_tx, retry_rx) = mpsc::channel::<(Instant, usize, u32)>();
    let before = counters(&server);
    let gap = 1.0 / rung.rps;
    let start = Instant::now() + Duration::from_millis(2);
    let due = move |i: usize| start + Duration::from_secs_f64(gap * i as f64);
    let schedule_end = due(total);
    let mut send_tracer = tr.child();
    let mut wedged = false;

    let (late, retries, send_tracer, (ok_ns, failed_idx, tally, last_settle)) =
        std::thread::scope(|s| {
            let (slots, done, policy) = (&slots, &done, &policy);
            let sender = s.spawn(move || {
                let mut late = Vec::with_capacity(total);
                let mut pending: Vec<(Instant, usize, u32)> = Vec::new();
                let mut sent = 0usize;
                let mut retries = 0u64;
                let mut send = |idx: usize, attempt: u32, tr: &mut Tracer| -> bool {
                    let Some(slot) = slots.get(sent) else {
                        return false;
                    };
                    slot.store(pack_slot(idx, attempt), Ordering::Release);
                    sent += 1;
                    let t = &targets[idx % targets.len()];
                    tr.span("serve.client.send", idx as u64, |_| {
                        tx.send_to(t.model, &t.row)
                    })
                    .is_ok()
                };
                let mut flush_retries =
                    |pending: &mut Vec<(Instant, usize, u32)>,
                     tr: &mut Tracer,
                     send: &mut dyn FnMut(usize, u32, &mut Tracer) -> bool| {
                        let now = Instant::now();
                        let mut i = 0;
                        while i < pending.len() {
                            if pending[i].0 <= now {
                                let (_, idx, attempt) = pending.swap_remove(i);
                                retries += 1;
                                send(idx, attempt, tr);
                            } else {
                                i += 1;
                            }
                        }
                    };
                for i in 0..total {
                    let at = due(i);
                    loop {
                        pending.extend(retry_rx.try_iter());
                        flush_retries(&mut pending, &mut send_tracer, &mut send);
                        // Never sleeps: a sleeping thread on a virtualised
                        // host wakes late by a varying tens to thousands of
                        // µs, which would put the host's timer into every
                        // latency of the light rung. Yielding keeps the
                        // schedule and lets the server's threads run.
                        if Instant::now() >= at {
                            break;
                        }
                        std::thread::yield_now();
                    }
                    late.push(at.elapsed().as_secs_f64() * 1e6);
                    if !send(i, 0, &mut send_tracer) {
                        break;
                    }
                }
                while !done.load(Ordering::Acquire) {
                    match retry_rx.recv_timeout(Duration::from_millis(1)) {
                        Ok(r) => pending.push(r),
                        Err(mpsc::RecvTimeoutError::Timeout) => {}
                        Err(mpsc::RecvTimeoutError::Disconnected) => break,
                    }
                    flush_retries(&mut pending, &mut send_tracer, &mut send);
                }
                (late, retries, send_tracer)
            });
            let receiver = s.spawn(move || {
                let mut ok_ns = Vec::with_capacity(total);
                let mut failed_idx = Vec::new();
                let mut tally = Tally::default();
                let mut settled = 0usize;
                while settled < total {
                    let Ok((id, response)) = rx.recv() else { break };
                    let now = Instant::now();
                    let Some(slot) = slots.get(id as usize) else {
                        failed_idx.push(total - 1);
                        tally.record(Outcome::Refused);
                        settled += 1;
                        continue;
                    };
                    // The sender stores the slot before the request is written,
                    // so it is set by the time its response arrives.
                    let v = loop {
                        let v = slot.load(Ordering::Acquire);
                        if v != 0 {
                            break v;
                        }
                        std::hint::spin_loop();
                    };
                    let (idx, attempt) = unpack_slot(v);
                    let outcome = match response {
                        Response::Class(class)
                            if class == targets[idx % targets.len()].expected =>
                        {
                            ok_ns.push((idx, (now - due(idx)).as_nanos() as u64));
                            Outcome::Ok
                        }
                        Response::Class(_) => Outcome::Mismatch,
                        Response::Overloaded | Response::DeadlineExceeded => {
                            let backoff = policy.backoff(attempt, idx as u64);
                            if attempt < policy.max_retries
                                && retry_tx.send((now + backoff, idx, attempt + 1)).is_ok()
                            {
                                continue;
                            }
                            Outcome::Shed
                        }
                        _ => Outcome::Refused,
                    };
                    if outcome != Outcome::Ok {
                        failed_idx.push(idx);
                    }
                    tally.record(outcome);
                    settled += 1;
                }
                for _ in settled..total {
                    failed_idx.push(total - 1);
                    tally.record(Outcome::Refused);
                }
                done.store(true, Ordering::Release);
                (ok_ns, failed_idx, tally, Instant::now())
            });

            let mut next_swap = start + SWAP_PERIOD / 2;
            let watchdog = schedule_end + DRAIN_GRACE;
            let mut server = Some(server);
            while !done.load(Ordering::Acquire) {
                let srv = server.as_ref().expect("server runs until the rung settles");
                let now = Instant::now();
                if rung.swaps && now >= next_swap {
                    let t = Instant::now();
                    let swapped = srv.registry().swap_validated(swap.0, swap.1, Backend::Auto);
                    ladder.swap_ms.push(t.elapsed().as_secs_f64() * 1e3);
                    match swapped {
                        Ok(()) => ladder.swaps.record(Outcome::Ok),
                        Err(e) => {
                            ladder.swaps.record(Outcome::Mismatch);
                            ladder.swap_error.get_or_insert(e.to_string());
                        }
                    }
                    next_swap += SWAP_PERIOD;
                }
                report.max_queue_depth = report.max_queue_depth.max(srv.queue_depth());
                if now > watchdog {
                    // Shutting the server down closes the connection, which
                    // unblocks the receiver; later rungs then fail outright.
                    wedged = true;
                    server.take().expect("present").shutdown();
                    break;
                }
                std::thread::sleep(Duration::from_millis(1));
            }
            let (late, retries, send_tracer) = sender.join().expect("sender thread");
            let received = receiver.join().expect("receiver thread");
            *server_slot = server;
            (late, retries, send_tracer, received)
        });

    report.send_us = send_tracer
        .spans()
        .iter()
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();
    tr.adopt(send_tracer);
    if let (Some(server), false) = (server_slot.as_ref(), wedged) {
        let after = counters(server);
        report.batches = after.batches - before.batches;
        report.mean_batch = (after.served - before.served) as f64 / report.batches.max(1) as f64;
        report.overloaded = after.overloaded - before.overloaded;
        report.deadline_expired = after.deadline_expired - before.deadline_expired;
    }
    let per_window = (WINDOW.as_secs_f64() / gap).round().max(1.0) as usize;
    report.window_valid = (0..total.div_ceil(per_window))
        .map(|w| {
            let mut v = late
                [(w * per_window).min(late.len())..((w + 1) * per_window).min(late.len())]
                .to_vec();
            v.sort_by(f64::total_cmp);
            !v.is_empty() && percentile(&v, 99.0) <= GEN_LATE_LIMIT.as_secs_f64() * 1e6
        })
        .collect();
    let mut late = late;
    late.sort_by(f64::total_cmp);
    report.gen_late_us = late;
    let mut windows_us = vec![Vec::new(); total.div_ceil(per_window)];
    for &(idx, ns) in &ok_ns {
        windows_us[idx / per_window].push(ns as f64 / 1e3);
    }
    for w in &mut windows_us {
        w.sort_by(f64::total_cmp);
    }
    let mut window_failures = vec![0; windows_us.len()];
    for idx in failed_idx {
        window_failures[idx / per_window] += 1;
    }
    report.windows_us = windows_us;
    report.window_failures = window_failures;
    let mut latency_us: Vec<f64> = ok_ns.iter().map(|&(_, ns)| ns as f64 / 1e3).collect();
    latency_us.sort_by(f64::total_cmp);
    report.achieved_rps =
        latency_us.len() as f64 / last_settle.saturating_duration_since(start).as_secs_f64();
    report.latency_us = latency_us;
    report.tally = tally;
    report.retries = retries;
    report.drain = last_settle.saturating_duration_since(schedule_end);
    report
}
