//! Load generator and SLO harness for `poetbin-serve`: closed-loop,
//! open-loop, and a rate-sweeping benchmark mode that writes
//! `BENCH_serve.json`.
//!
//! Starts an in-process multi-model server on an ephemeral port for each
//! run and hammers it from `--clients` client threads, each interleaving
//! its requests round-robin across every loaded model (request `i`
//! targets model `i mod M`), so the worker shards exercise their
//! per-model batch grouping. Three modes:
//!
//! * **closed-loop** (default): each client waits for its response before
//!   sending the next request, so concurrency equals the client count —
//!   the model under which a linger can only add latency;
//! * **open-loop** (`--open-loop RATE`): requests are injected at a fixed
//!   aggregate arrival rate by timer-paced sender threads (absolute
//!   schedule — a late sender catches up rather than silently lowering
//!   the offered rate), with a separate receiver thread per connection
//!   draining responses. This is the model real traffic follows, and the
//!   one under which the linger/batch-occupancy tradeoff is measurable;
//! * **SLO harness** (`--slo`): an open-loop rate sweep (p50/p99/p999
//!   send→response latency per offered rate, queue depth sampled
//!   throughout) plus a deliberate overload probe against a tiny bounded
//!   queue, written to `BENCH_serve.json` at the repository root.
//!   `POETBIN_SERVE_QUICK=1` shrinks the sweep for CI smoke runs.
//!
//! Every prediction is verified against the offline batch-path result of
//! the model it targeted. Transient sheds (typed `STATUS_OVERLOADED` /
//! `STATUS_DEADLINE_EXCEEDED`) are retried with jittered backoff
//! ([`RetryPolicy`]) and the retries reported separately — they are the
//! backpressure contract working, not errors — but any mismatch, typed
//! rejection, or transport error fails the run. Closed-loop clients
//! retry inline via [`Client::predict_with_backoff`]; open-loop
//! receivers hand sheds back to their paced sender over a retry channel,
//! so a resend is a new timed arrival rather than a stalled schedule.
//!
//! `BENCH_serve.json` schema (all latencies are send→response, accepted
//! requests only; `overloaded`/`deadline_expired` count requests still
//! shed after every retry):
//!
//! ```json
//! {
//!   "bench": "serve",
//!   "quick": false,
//!   "config": {"models": 2, "requests": 12000, "clients": 8, "workers": 2,
//!              "linger_us": 0, "max_batch": 512, "queue_cap": 4096},
//!   "sweep": [
//!     {"offered_rps": 10000.0, "achieved_rps": 9992.4,
//!      "p50_us": 23.4, "p99_us": 387.0, "p999_us": 900.5,
//!      "served": 12000, "overloaded": 0, "deadline_expired": 0,
//!      "retries": 0, "max_queue_depth": 12, "mean_batch": 1.03,
//!      "queue_wait_mean_us": 6.1, "mismatches": 0, "errors": 0}
//!   ],
//!   "overload": {"offered_rps": 60000.0, "queue_cap": 16, "linger_us": 2000,
//!                "requests": 8000, "served": 992, "overloaded": 7008,
//!                "deadline_expired": 0, "retries": 4831,
//!                "max_queue_depth": 16, "p99_accepted_us": 2781.4,
//!                "mismatches": 0, "errors": 0}
//! }
//! ```
//!
//! CI's release job gates on this file: non-empty sweep, ordered
//! percentiles, zero mismatches/errors everywhere, present and sane
//! `deadline_expired`/`retries` counters, `overloaded > 0` and
//! `max_queue_depth <= queue_cap` in the probe, and a bounded
//! `p99_accepted_us`.
//!
//! ```text
//! cargo run --release -p poetbin_bench --bin loadgen -- \
//!     [--models PATH,PATH,...] [--requests N] [--clients C] [--workers W] \
//!     [--lingers US,US,...] [--max-batch B] [--queue-cap Q] \
//!     [--open-loop REQ_PER_S] [--slo] [--sweep RPS,RPS,...] \
//!     [--backend interp|jit|auto]
//! ```
//!
//! Defaults: the checked-in `deep.poetbin2` and `tiny.poetbin2` fixtures
//! (`--model PATH` is still accepted for a single model), 12 000
//! requests, 8 clients, 2 workers, lingers `0,200` µs, closed-loop,
//! `auto` backend (`--backend` pins the served engines to one; the
//! offline ground truth runs on the same engines either way).

use std::collections::HashMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

use poetbin_bench::report::{self, Json};
use poetbin_bits::{BitVec, FeatureMatrix};
use poetbin_engine::{Backend, ClassifierEngine};
use poetbin_serve::{
    load_engine_with, Client, ClientSender, ModelRegistry, Response, RetryPolicy, ServeConfig,
    Server, ServerStats,
};

struct Args {
    models: Vec<PathBuf>,
    requests: usize,
    clients: usize,
    workers: usize,
    lingers_us: Vec<u64>,
    max_batch: usize,
    queue_cap: usize,
    /// Aggregate offered arrival rate in requests/s; `None` = closed-loop.
    open_loop: Option<f64>,
    /// Run the SLO harness (rate sweep + overload probe + JSON artifact).
    slo: bool,
    /// Offered rates for the `--slo` sweep; empty = built-in defaults.
    sweep: Vec<f64>,
    /// Engine backend for the served models (and the offline ground
    /// truth, which is computed on the same engines).
    backend: Backend,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let fixtures = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../tests/fixtures");
        let mut args = Args {
            models: vec![
                fixtures.join("deep.poetbin2"),
                fixtures.join("tiny.poetbin2"),
            ],
            requests: 12_000,
            clients: 8,
            workers: 2,
            lingers_us: vec![0, 200],
            max_batch: 512,
            queue_cap: 4096,
            open_loop: None,
            slo: false,
            sweep: Vec::new(),
            backend: Backend::default(),
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            if flag == "--slo" {
                args.slo = true;
                continue;
            }
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            match flag.as_str() {
                "--model" => args.models = vec![PathBuf::from(value)],
                "--models" => {
                    args.models = value.split(',').map(|p| PathBuf::from(p.trim())).collect();
                }
                "--requests" => args.requests = value.parse().map_err(|_| "bad --requests")?,
                "--clients" => args.clients = value.parse().map_err(|_| "bad --clients")?,
                "--workers" => args.workers = value.parse().map_err(|_| "bad --workers")?,
                "--max-batch" => args.max_batch = value.parse().map_err(|_| "bad --max-batch")?,
                "--queue-cap" => args.queue_cap = value.parse().map_err(|_| "bad --queue-cap")?,
                "--open-loop" => {
                    let rate: f64 = value.parse().map_err(|_| "bad --open-loop")?;
                    if rate <= 0.0 || !rate.is_finite() {
                        return Err("--open-loop rate must be positive".into());
                    }
                    args.open_loop = Some(rate);
                }
                "--sweep" => {
                    args.sweep = value
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|_| "bad --sweep"))
                        .collect::<Result<_, _>>()?;
                    if args.sweep.iter().any(|r: &f64| *r <= 0.0 || !r.is_finite()) {
                        return Err("--sweep rates must be positive".into());
                    }
                }
                "--lingers" => {
                    args.lingers_us = value
                        .split(',')
                        .map(|v| v.trim().parse().map_err(|_| "bad --lingers"))
                        .collect::<Result<_, _>>()?;
                }
                "--backend" => {
                    args.backend = value
                        .parse()
                        .map_err(|_| "--backend must be one of interp, jit, auto")?;
                }
                other => return Err(format!("unknown flag {other}")),
            }
        }
        if args.requests == 0
            || args.clients == 0
            || args.lingers_us.is_empty()
            || args.models.is_empty()
            || args.queue_cap == 0
        {
            return Err(
                "models, requests, clients, queue-cap and lingers must be non-empty".into(),
            );
        }
        Ok(args)
    }
}

/// The deterministic row a given (client, sequence) pair sends — shared
/// with nothing, but stable across runs.
fn load_row(num_features: usize, client: usize, i: usize) -> BitVec {
    BitVec::from_fn(num_features, |j| {
        let mut z = (client as u64)
            .wrapping_mul(0xA076_1D64_78BD_642F)
            .wrapping_add((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(j as u64);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        (z ^ (z >> 27)) & 1 == 1
    })
}

/// One planned request: its target model, row, and the offline
/// ground-truth prediction the response is checked against.
struct Target {
    model_id: u16,
    row: BitVec,
    expected: usize,
}

/// The full request sequence for one client: request `i` targets model
/// `i mod M`, each group batch-predicted offline for ground truth.
fn client_plan(engines: &[Arc<ClassifierEngine>], client: usize, per_client: usize) -> Vec<Target> {
    let m = engines.len();
    let mut by_model: Vec<Vec<(usize, BitVec)>> = (0..m).map(|_| Vec::new()).collect();
    for i in 0..per_client {
        let k = i % m;
        by_model[k].push((i, load_row(engines[k].num_features(), client, i)));
    }
    let mut plan: Vec<Option<Target>> = (0..per_client).map(|_| None).collect();
    for (k, items) in by_model.into_iter().enumerate() {
        if items.is_empty() {
            continue;
        }
        let rows: Vec<BitVec> = items.iter().map(|(_, r)| r.clone()).collect();
        let expected = engines[k].predict(&FeatureMatrix::from_rows(rows));
        for ((i, row), expected) in items.into_iter().zip(expected) {
            plan[i] = Some(Target {
                model_id: k as u16,
                row,
                expected,
            });
        }
    }
    plan.into_iter()
        .map(|t| t.expect("every slot planned"))
        .collect()
}

struct RunResult {
    /// Send→response latencies of *accepted* (predicted) requests only.
    latencies_ns: Vec<u64>,
    wall: Duration,
    mismatches: u64,
    errors: u64,
    /// Requests still shed `STATUS_OVERLOADED` after every retry.
    overloaded: u64,
    /// Requests still shed `STATUS_DEADLINE_EXCEEDED` after every retry.
    deadline_expired: u64,
    /// Backoff resends the clients performed on transient sheds.
    retries: u64,
    /// Highest total queue depth any sample saw during the run.
    max_queue_depth: usize,
    mean_batch: f64,
    /// The server's own mean queue wait (decode → worker drain), µs.
    queue_wait_mean_us: f64,
    served: u64,
}

fn percentile(sorted_ns: &[u64], p: f64) -> f64 {
    if sorted_ns.is_empty() {
        return 0.0;
    }
    let rank = (p * (sorted_ns.len() - 1) as f64).round() as usize;
    sorted_ns[rank] as f64 / 1_000.0
}

/// Mean decode → drain wait over every request the server drained.
fn queue_wait_mean_us(stats: &ServerStats) -> f64 {
    stats.queue_wait_us_sum() as f64 / stats.queue_wait_count().max(1) as f64
}

fn build_config(args: &Args, linger_us: u64) -> ServeConfig {
    ServeConfig {
        workers: args.workers,
        linger: Duration::from_micros(linger_us),
        max_batch: args.max_batch,
        queue_cap: args.queue_cap,
        ..ServeConfig::default()
    }
}

fn start_server(engines: &[Arc<ClassifierEngine>], config: ServeConfig) -> Server {
    let mut registry = ModelRegistry::new();
    for (k, engine) in engines.iter().enumerate() {
        registry.register(format!("m{k}"), Arc::clone(engine));
    }
    Server::start(Arc::new(registry), "127.0.0.1:0", config).expect("bind")
}

/// Closed-loop: each client thread ping-pongs `predict_with_backoff`
/// calls — a transient shed sleeps the jittered backoff and resends
/// inline (the next planned request waits behind it, which is exactly
/// what closed-loop means). Latency includes any backoff sleeps.
fn run_closed(
    engines: &[Arc<ClassifierEngine>],
    clients: usize,
    requests: usize,
    config: ServeConfig,
) -> RunResult {
    let server = start_server(engines, config);
    let addr = server.local_addr();
    let per_client = requests.div_ceil(clients);

    let start = Instant::now();
    let mut all_latencies: Vec<u64> = Vec::with_capacity(per_client * clients);
    let mut mismatches = 0u64;
    let mut errors = 0u64;
    let mut retries = 0u64;
    std::thread::scope(|scope| {
        let mut joins = Vec::new();
        for c in 0..clients {
            joins.push(scope.spawn(move || {
                let plan = client_plan(engines, c, per_client);
                let policy = RetryPolicy {
                    seed: c as u64,
                    ..RetryPolicy::default()
                };
                let mut latencies = Vec::with_capacity(per_client);
                let mut mismatches = 0u64;
                let mut errors = 0u64;
                let mut retries = 0u64;
                match Client::connect(addr) {
                    Ok(mut client) => {
                        for target in &plan {
                            let t0 = Instant::now();
                            match client.predict_with_backoff(target.model_id, &target.row, &policy)
                            {
                                Ok((class, attempts)) => {
                                    latencies.push(t0.elapsed().as_nanos() as u64);
                                    retries += u64::from(attempts);
                                    if class != target.expected {
                                        mismatches += 1;
                                    }
                                }
                                Err(_) => errors += 1,
                            }
                        }
                    }
                    Err(_) => errors += per_client as u64,
                }
                (latencies, mismatches, errors, retries)
            }));
        }
        for j in joins {
            let (lat, mis, err, rtr) = j.join().expect("client thread");
            all_latencies.extend(lat);
            mismatches += mis;
            errors += err;
            retries += rtr;
        }
    });
    let wall = start.elapsed();
    let stats = server.stats();
    let (mean_batch, served) = (stats.mean_batch(), stats.served());
    let queue_wait_mean_us = queue_wait_mean_us(stats);
    server.shutdown();
    all_latencies.sort_unstable();
    RunResult {
        latencies_ns: all_latencies,
        wall,
        mismatches,
        errors,
        overloaded: 0,
        deadline_expired: 0,
        retries,
        max_queue_depth: 0,
        mean_batch,
        queue_wait_mean_us,
        served,
    }
}

/// Sends one planned request, recording `id → (plan index, attempt)`
/// under the map lock held *across* the send — the response cannot
/// outrun the mapping, because the receiver must take the same lock to
/// resolve it. Stamps the send time for the latency measurement.
fn send_tracked(
    tx: &mut ClientSender,
    id_map: &Mutex<HashMap<u64, (usize, u32)>>,
    sent_at: &[AtomicU64],
    epoch: Instant,
    target: &Target,
    idx: usize,
    attempt: u32,
) -> bool {
    let mut map = id_map.lock().expect("id map lock");
    sent_at[idx].store(epoch.elapsed().as_nanos() as u64, Ordering::Release);
    match tx.send_to(target.model_id, &target.row) {
        Ok(id) => {
            map.insert(id, (idx, attempt));
            true
        }
        Err(_) => false,
    }
}

/// Open-loop: per client, a timer-paced sender injects requests on an
/// absolute schedule while a separate receiver drains responses and
/// measures send→response latency. A transient shed travels back to the
/// sender over a retry channel and is resent after its jittered backoff
/// — a new timed arrival, so retries add offered load instead of
/// stalling the schedule. A sampler thread polls the server's total
/// queue depth throughout, so the artifact records the worst backlog the
/// bounded queues ever reached.
fn run_open(
    engines: &[Arc<ClassifierEngine>],
    clients: usize,
    requests: usize,
    config: ServeConfig,
    rate: f64,
) -> RunResult {
    let server = start_server(engines, config);
    let addr = server.local_addr();
    let per_client = requests.div_ceil(clients);
    // Global inter-arrival gap; client `c` owns arrival slots
    // `c, c + clients, c + 2·clients, …` so the aggregate stream is
    // evenly spaced without coordination.
    let gap = Duration::from_secs_f64(1.0 / rate);

    let mut all_latencies: Vec<u64> = Vec::with_capacity(per_client * clients);
    let mut mismatches = 0u64;
    let mut errors = 0u64;
    let mut overloaded = 0u64;
    let mut deadline_expired = 0u64;
    let mut retries = 0u64;
    let sampling = AtomicBool::new(true);
    let max_depth = AtomicUsize::new(0);
    let epoch = Instant::now();
    std::thread::scope(|scope| {
        let server = &server;
        let sampling = &sampling;
        let max_depth = &max_depth;
        let sampler = scope.spawn(move || {
            while sampling.load(Ordering::Relaxed) {
                max_depth.fetch_max(server.queue_depth(), Ordering::Relaxed);
                std::thread::sleep(Duration::from_micros(200));
            }
        });
        let mut joins = Vec::new();
        for c in 0..clients {
            joins.push(scope.spawn(move || {
                let plan = client_plan(engines, c, per_client);
                let client = match Client::connect(addr) {
                    Ok(client) => client,
                    Err(_) => return (Vec::new(), 0, per_client as u64, 0, 0, 0),
                };
                let (mut tx, mut rx) = client.into_split();
                let sent_at: Vec<AtomicU64> = (0..per_client).map(|_| AtomicU64::new(0)).collect();
                let policy = RetryPolicy {
                    seed: c as u64,
                    ..RetryPolicy::default()
                };
                let id_map: Mutex<HashMap<u64, (usize, u32)>> = Mutex::new(HashMap::new());
                let (retry_tx, retry_rx) = mpsc::channel::<(usize, u32)>();

                std::thread::scope(|s| {
                    let sent_at = &sent_at;
                    let plan = &plan;
                    let id_map = &id_map;
                    let policy = &policy;
                    let send_half = s.spawn(move || {
                        let mut retries = 0u64;
                        'plan: for (i, target) in plan.iter().enumerate() {
                            // Serve any due retries before pacing the
                            // next planned arrival.
                            while let Ok((idx, attempt)) = retry_rx.try_recv() {
                                retries += 1;
                                std::thread::sleep(policy.backoff(attempt - 1, idx as u64));
                                if !send_tracked(
                                    &mut tx, id_map, sent_at, epoch, &plan[idx], idx, attempt,
                                ) {
                                    break 'plan;
                                }
                            }
                            let target_at = epoch + gap * (c + i * clients) as u32;
                            loop {
                                let now = Instant::now();
                                if now >= target_at {
                                    break;
                                }
                                std::thread::sleep(target_at - now);
                            }
                            if !send_tracked(&mut tx, id_map, sent_at, epoch, target, i, 0) {
                                break;
                            }
                        }
                        // The schedule is done; keep resending sheds
                        // until the receiver settles every request and
                        // drops its end of the channel.
                        while let Ok((idx, attempt)) = retry_rx.recv() {
                            retries += 1;
                            std::thread::sleep(policy.backoff(attempt - 1, idx as u64));
                            if !send_tracked(
                                &mut tx, id_map, sent_at, epoch, &plan[idx], idx, attempt,
                            ) {
                                break;
                            }
                        }
                        retries
                    });

                    let mut latencies = Vec::with_capacity(per_client);
                    let mut finals = 0u64;
                    let mut mismatches = 0u64;
                    let mut overloaded = 0u64;
                    let mut deadline_expired = 0u64;
                    while finals < per_client as u64 {
                        match rx.recv() {
                            Ok((id, response)) => {
                                let resolved = id_map.lock().expect("id map lock").remove(&id);
                                let Some((idx, attempt)) = resolved else {
                                    // An id this client never sent; settle
                                    // it so the run terminates — the
                                    // mismatch fails the run anyway.
                                    mismatches += 1;
                                    finals += 1;
                                    continue;
                                };
                                match response {
                                    Response::Class(class) => {
                                        finals += 1;
                                        let t0 = sent_at[idx].load(Ordering::Acquire);
                                        latencies.push(epoch.elapsed().as_nanos() as u64 - t0);
                                        if class != plan[idx].expected {
                                            mismatches += 1;
                                        }
                                    }
                                    // A transient shed goes back to the
                                    // sender for a jittered resend; it only
                                    // settles as shed once the retry budget
                                    // is spent (or the sender is gone).
                                    Response::Overloaded | Response::DeadlineExceeded => {
                                        if attempt < policy.max_retries
                                            && retry_tx.send((idx, attempt + 1)).is_ok()
                                        {
                                            continue;
                                        }
                                        finals += 1;
                                        if response == Response::Overloaded {
                                            overloaded += 1;
                                        } else {
                                            deadline_expired += 1;
                                        }
                                    }
                                    // Any other typed rejection is impossible
                                    // for well-formed traffic; count it as a
                                    // mismatch.
                                    _ => {
                                        finals += 1;
                                        mismatches += 1;
                                    }
                                }
                            }
                            Err(_) => break,
                        }
                    }
                    // Unblocks the sender's retry wait.
                    drop(retry_tx);
                    let retries = send_half.join().expect("sender thread");
                    // Requests that never settled (unsent, or sent but
                    // never answered) are transport errors.
                    let errors = (per_client as u64).saturating_sub(finals);
                    (
                        latencies,
                        mismatches,
                        errors,
                        overloaded,
                        deadline_expired,
                        retries,
                    )
                })
            }));
        }
        for j in joins {
            let (lat, mis, err, ovl, ddl, rtr) = j.join().expect("client thread");
            all_latencies.extend(lat);
            mismatches += mis;
            errors += err;
            overloaded += ovl;
            deadline_expired += ddl;
            retries += rtr;
        }
        sampling.store(false, Ordering::Relaxed);
        sampler.join().expect("sampler thread");
    });
    let wall = epoch.elapsed();
    let stats = server.stats();
    let (mean_batch, served) = (stats.mean_batch(), stats.served());
    let queue_wait_mean_us = queue_wait_mean_us(stats);
    server.shutdown();
    all_latencies.sort_unstable();
    RunResult {
        latencies_ns: all_latencies,
        wall,
        mismatches,
        errors,
        overloaded,
        deadline_expired,
        retries,
        max_queue_depth: max_depth.load(Ordering::Relaxed),
        mean_batch,
        queue_wait_mean_us,
        served,
    }
}

fn print_header() {
    println!(
        "{:>10} {:>10} {:>10} {:>10} {:>10} {:>10} {:>8} {:>8} {:>8} {:>11} {:>9} {:>9}",
        "rate",
        "req/s",
        "p50_us",
        "p99_us",
        "p999_us",
        "served",
        "shed",
        "expired",
        "retries",
        "mean_batch",
        "qwait_us",
        "errors"
    );
}

fn print_row(label: &str, result: &RunResult) {
    let rps = result.latencies_ns.len() as f64 / result.wall.as_secs_f64();
    println!(
        "{label:>10} {:>10.0} {:>10.1} {:>10.1} {:>10.1} {:>10} {:>8} {:>8} {:>8} {:>11.2} {:>9.1} {:>9}",
        rps,
        percentile(&result.latencies_ns, 0.50),
        percentile(&result.latencies_ns, 0.99),
        percentile(&result.latencies_ns, 0.999),
        result.served,
        result.overloaded,
        result.deadline_expired,
        result.retries,
        result.mean_batch,
        result.queue_wait_mean_us,
        result.mismatches + result.errors
    );
}

/// One sweep entry of the `BENCH_serve.json` artifact.
fn sweep_entry(offered_rps: f64, result: &RunResult) -> Json {
    let achieved = result.latencies_ns.len() as f64 / result.wall.as_secs_f64();
    Json::obj([
        ("offered_rps", Json::Float(offered_rps)),
        ("achieved_rps", Json::Float(achieved)),
        (
            "p50_us",
            Json::Float(percentile(&result.latencies_ns, 0.50)),
        ),
        (
            "p99_us",
            Json::Float(percentile(&result.latencies_ns, 0.99)),
        ),
        (
            "p999_us",
            Json::Float(percentile(&result.latencies_ns, 0.999)),
        ),
        ("served", Json::Int(result.served as i64)),
        ("overloaded", Json::Int(result.overloaded as i64)),
        (
            "deadline_expired",
            Json::Int(result.deadline_expired as i64),
        ),
        ("retries", Json::Int(result.retries as i64)),
        ("max_queue_depth", Json::Int(result.max_queue_depth as i64)),
        ("mean_batch", Json::Float(result.mean_batch)),
        ("queue_wait_mean_us", Json::Float(result.queue_wait_mean_us)),
        ("mismatches", Json::Int(result.mismatches as i64)),
        ("errors", Json::Int(result.errors as i64)),
    ])
}

/// The SLO harness: an open-loop rate sweep at the first configured
/// linger, then a deliberate overload probe (single worker, tiny queue,
/// long linger) that must shed — demonstrating bounded queue depth and a
/// bounded accepted-request tail while the server is saturated. Results
/// land in `BENCH_serve.json`.
fn run_slo(engines: &[Arc<ClassifierEngine>], args: &Args) -> ExitCode {
    let quick = std::env::var("POETBIN_SERVE_QUICK").is_ok_and(|v| v == "1");
    let rates: Vec<f64> = if !args.sweep.is_empty() {
        args.sweep.clone()
    } else if quick {
        vec![10_000.0, 40_000.0]
    } else {
        vec![10_000.0, 40_000.0, 120_000.0]
    };
    let requests = if quick {
        args.requests.min(4_000)
    } else {
        args.requests
    };
    let linger_us = args.lingers_us[0];

    println!(
        "SLO sweep: {requests} requests round-robin over {} models · {} senders · \
         {} workers · linger {linger_us} µs · queue cap {} · rates {rates:?}",
        engines.len(),
        args.clients,
        args.workers,
        args.queue_cap,
    );
    print_header();
    let mut failed = false;
    let mut sweep_rows: Vec<Json> = Vec::new();
    for &rate in &rates {
        let result = run_open(
            engines,
            args.clients,
            requests,
            build_config(args, linger_us),
            rate,
        );
        print_row(&format!("{rate:.0}"), &result);
        if result.mismatches > 0 || result.errors > 0 {
            eprintln!(
                "loadgen: rate {rate:.0}: {} mismatches, {} transport errors",
                result.mismatches, result.errors
            );
            failed = true;
        }
        sweep_rows.push(sweep_entry(rate, &result));
    }

    // Overload probe: one worker, a 16-slot queue, and a 2 ms linger
    // throttle the server far below the offered rate, so the bounded
    // queue must shed. Accepted requests still clear in ~one linger, so
    // their p99 stays bounded even though the server is saturated.
    let probe_rate = if quick { 30_000.0 } else { 60_000.0 };
    let probe_requests = if quick { 2_000 } else { 8_000 };
    let probe_queue_cap = 16usize;
    let probe_linger_us = 2_000u64;
    let probe_config = ServeConfig {
        workers: 1,
        linger: Duration::from_micros(probe_linger_us),
        max_batch: args.max_batch,
        queue_cap: probe_queue_cap,
        ..ServeConfig::default()
    };
    println!(
        "overload probe: {probe_requests} requests at {probe_rate:.0} req/s offered · \
         1 worker · queue cap {probe_queue_cap} · linger {probe_linger_us} µs"
    );
    print_header();
    let probe = run_open(
        engines,
        args.clients,
        probe_requests,
        probe_config,
        probe_rate,
    );
    print_row("overload", &probe);
    if probe.mismatches > 0 || probe.errors > 0 {
        eprintln!(
            "loadgen: overload probe: {} mismatches, {} transport errors",
            probe.mismatches, probe.errors
        );
        failed = true;
    }
    if probe.overloaded == 0 {
        eprintln!("loadgen: overload probe shed nothing — backpressure untested");
        failed = true;
    }
    if probe.max_queue_depth > probe_queue_cap {
        eprintln!(
            "loadgen: overload probe queue depth {} exceeded its bound",
            probe.max_queue_depth
        );
        failed = true;
    }

    let doc = Json::obj([
        ("bench", Json::str("serve")),
        ("quick", Json::Bool(quick)),
        (
            "config",
            Json::obj([
                ("models", Json::Int(engines.len() as i64)),
                ("requests", Json::Int(requests as i64)),
                ("clients", Json::Int(args.clients as i64)),
                ("workers", Json::Int(args.workers as i64)),
                ("linger_us", Json::Int(linger_us as i64)),
                ("max_batch", Json::Int(args.max_batch as i64)),
                ("queue_cap", Json::Int(args.queue_cap as i64)),
            ]),
        ),
        ("sweep", Json::Arr(sweep_rows)),
        (
            "overload",
            Json::obj([
                ("offered_rps", Json::Float(probe_rate)),
                ("queue_cap", Json::Int(probe_queue_cap as i64)),
                ("linger_us", Json::Int(probe_linger_us as i64)),
                ("requests", Json::Int(probe_requests as i64)),
                ("served", Json::Int(probe.served as i64)),
                ("overloaded", Json::Int(probe.overloaded as i64)),
                ("deadline_expired", Json::Int(probe.deadline_expired as i64)),
                ("retries", Json::Int(probe.retries as i64)),
                ("max_queue_depth", Json::Int(probe.max_queue_depth as i64)),
                (
                    "p99_accepted_us",
                    Json::Float(percentile(&probe.latencies_ns, 0.99)),
                ),
                ("mismatches", Json::Int(probe.mismatches as i64)),
                ("errors", Json::Int(probe.errors as i64)),
            ]),
        ),
    ]);
    match report::write_named_root("serve", &doc) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => {
            eprintln!("loadgen: writing BENCH_serve.json: {e}");
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all accepted responses matched the offline batch path of their target model");
        ExitCode::SUCCESS
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("loadgen: {e}");
            return ExitCode::from(2);
        }
    };
    let mut engines: Vec<Arc<ClassifierEngine>> = Vec::with_capacity(args.models.len());
    for path in &args.models {
        match load_engine_with(path, None, args.backend) {
            Ok(engine) => {
                println!(
                    "model {} = {} · {} features · {} classes · {} tape ops · {} backend",
                    engines.len(),
                    path.display(),
                    engine.num_features(),
                    engine.classes(),
                    engine.engine().plan().tape_len(),
                    engine.backend_name()
                );
                engines.push(Arc::new(engine));
            }
            Err(e) => {
                eprintln!("loadgen: {}: {e}", path.display());
                return ExitCode::FAILURE;
            }
        }
    }
    if args.slo {
        return run_slo(&engines, &args);
    }
    match args.open_loop {
        Some(rate) => println!(
            "{} requests round-robin over {} models · {} open-loop senders at {rate:.0} req/s \
             offered · {} workers · max batch {}",
            args.requests,
            engines.len(),
            args.clients,
            args.workers,
            args.max_batch
        ),
        None => println!(
            "{} requests round-robin over {} models · {} closed-loop clients · {} workers · \
             max batch {}",
            args.requests,
            engines.len(),
            args.clients,
            args.workers,
            args.max_batch
        ),
    }
    print_header();

    let mut failed = false;
    for &linger_us in &args.lingers_us {
        let config = build_config(&args, linger_us);
        let result = match args.open_loop {
            Some(rate) => run_open(&engines, args.clients, args.requests, config, rate),
            None => run_closed(&engines, args.clients, args.requests, config),
        };
        print_row(&format!("{linger_us}us"), &result);
        if result.mismatches > 0 || result.errors > 0 {
            eprintln!(
                "loadgen: linger {linger_us} µs: {} mismatches, {} transport errors",
                result.mismatches, result.errors
            );
            failed = true;
        }
    }
    if failed {
        ExitCode::FAILURE
    } else {
        println!("all accepted responses matched the offline batch path of their target model");
        ExitCode::SUCCESS
    }
}
