//! Chaos suite: replays deterministic seeded fault schedules
//! ([`FaultPlan::from_seed`]) against live servers — short reads/writes,
//! spurious `EAGAIN`/`EINTR`, delayed poller wakeups, injected worker
//! panics, and poisoned frames — and asserts the accounting invariant at
//! quiescence:
//!
//! `received == served + overloaded + deadline_expired + rejected +
//! protocol_errors`
//!
//! with zero lost and zero duplicated responses on every connection, and
//! a bounded graceful drain at the end of every run. On schedules with no
//! worker panic the queue-wait stage counter reconciles too:
//! `queue_wait_count == served + deadline_expired`.

mod common;

use std::collections::{HashMap, HashSet};
use std::io::Write;
use std::net::TcpStream;
use std::sync::Once;
use std::time::{Duration, Instant};

use common::{offline, start_test_server, test_row};
use poetbin_bits::BitVec;
use poetbin_serve::protocol;
use poetbin_serve::{Client, FaultPlan, InjectedPanic, Response, ServeConfig};

/// Requests each well-behaved client pipelines per run.
const REQUESTS: usize = 400;

/// Valid frames the poisoner sends before its garbage length prefix.
const POISON_PREFIX: u64 = 5;

/// Injected worker panics are deliberate; keep them out of the test
/// output so a *real* panic stays visible. Installed once per process.
fn silence_injected_panics() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            if info.payload().downcast_ref::<InjectedPanic>().is_none() {
                previous(info);
            }
        }));
    });
}

/// Response tally observed by one client: (served, shed, expired).
type Tally = (u64, u64, u64);

/// One full chaos run: a seeded server, two pipelined clients, an
/// optional frame poisoner, quiescence, the invariant, and a bounded
/// drain.
fn chaos_run(seed: u64, plan: FaultPlan) {
    silence_injected_panics();
    let f = 24;
    // The knobs vary with the seed so the sweep covers worker counts,
    // queue pressure, linger settings, and deadline shedding — not just
    // fault mixes.
    let config = ServeConfig {
        workers: 1 + (seed as usize) % 3,
        queue_cap: 16 << (seed % 3),
        linger: Duration::from_micros(200 * (seed % 4)),
        deadline: seed.is_multiple_of(3).then(|| Duration::from_millis(50)),
        fault: Some(plan),
        ..ServeConfig::default()
    };
    let (server, engine) = start_test_server(seed ^ 0x5eed, f, config);
    let addr = server.local_addr();

    let mut clients = Vec::new();
    for t in 0..2usize {
        let rows: Vec<BitVec> = (0..REQUESTS).map(|i| test_row(f, t, i)).collect();
        let expected = offline(&engine, &rows);
        clients.push(std::thread::spawn(move || -> Tally {
            let client = Client::connect(addr).expect("connect");
            let (mut tx, mut rx) = client.into_split();
            let mut want: HashMap<u64, usize> = HashMap::new();
            for (i, row) in rows.iter().enumerate() {
                let id = tx.send(row).expect("send");
                want.insert(id, expected[i]);
            }
            // Exactly one response per request: an unknown or repeated id
            // is a lost/duplicated answer and fails the run.
            let (mut ok, mut shed, mut expired) = (0u64, 0u64, 0u64);
            for _ in 0..REQUESTS {
                let (id, response) = rx.recv().expect("recv");
                let expect = want
                    .remove(&id)
                    .unwrap_or_else(|| panic!("unknown or duplicate response {id} (seed {seed})"));
                match response {
                    Response::Class(c) => {
                        assert_eq!(c, expect, "request {id} wrong class (seed {seed})");
                        ok += 1;
                    }
                    Response::Overloaded => shed += 1,
                    Response::DeadlineExceeded => expired += 1,
                    other => panic!("unexpected response {other:?} (seed {seed})"),
                }
            }
            assert!(
                want.is_empty(),
                "{} responses lost (seed {seed})",
                want.len()
            );
            (ok, shed, expired)
        }));
    }

    // Even seeds add a poisoner: a few valid frames, then a garbage
    // length prefix. The valid frames must each get exactly one answer,
    // then the server closes the stream (one `protocol_errors` unit).
    let poisoned = seed.is_multiple_of(2);
    if poisoned {
        let mut stream = TcpStream::connect(addr).expect("connect poisoner");
        stream.set_nodelay(true).expect("nodelay");
        protocol::read_hello(&mut stream).expect("hello");
        let mut wire = Vec::new();
        for i in 0..POISON_PREFIX {
            let frame = protocol::encode_request(0, i, &test_row(f, 9, i as usize));
            protocol::write_frame(&mut wire, &frame).expect("vec write");
        }
        wire.extend_from_slice(&u32::MAX.to_le_bytes());
        stream.write_all(&wire).expect("poison write");
        let mut seen: HashSet<u64> = HashSet::new();
        // Reads until a clean EOF or a reset — either way the server hung
        // up after answering what it accepted.
        while let Ok(Some(payload)) = protocol::read_frame(&mut stream, protocol::RESPONSE_LEN) {
            let (id, _, _) = protocol::decode_response(&payload).expect("well-formed");
            assert!(
                id < POISON_PREFIX,
                "answer for an id never sent (seed {seed})"
            );
            assert!(seen.insert(id), "duplicate response {id} (seed {seed})");
        }
        assert_eq!(
            seen.len() as u64,
            POISON_PREFIX,
            "poisoner's valid frames must all be answered before the close (seed {seed})"
        );
    }

    let mut totals = (0u64, 0u64, 0u64);
    for c in clients {
        let (ok, shed, expired) = c.join().expect("client thread panicked");
        totals = (totals.0 + ok, totals.1 + shed, totals.2 + expired);
    }

    // Quiescence: the queue drains and every counter stops moving for
    // two consecutive sample windows.
    let snapshot = || {
        let s = server.stats();
        (
            s.received(),
            s.served(),
            s.overloaded(),
            s.deadline_expired(),
            s.rejected(),
            s.protocol_errors(),
            s.queue_wait_count(),
        )
    };
    let wall = Instant::now() + Duration::from_secs(30);
    let mut last = snapshot();
    let mut quiet = 0;
    while quiet < 2 {
        assert!(
            Instant::now() < wall,
            "no quiescence (seed {seed}): counters {last:?}, depth {}",
            server.queue_depth()
        );
        std::thread::sleep(Duration::from_millis(50));
        let now = snapshot();
        quiet = if now == last && server.queue_depth() == 0 {
            quiet + 1
        } else {
            0
        };
        last = now;
    }

    let (received, served, overloaded, deadline_expired, rejected, protocol_errors, queue_waits) =
        last;
    assert_eq!(
        received,
        served + overloaded + deadline_expired + rejected + protocol_errors,
        "accounting invariant violated (seed {seed}): received {received} served {served} \
         overloaded {overloaded} deadline_expired {deadline_expired} rejected {rejected} \
         protocol_errors {protocol_errors}"
    );
    // Every wire frame the clients sent is accounted: the two pipelined
    // clients observed one typed answer each, the poisoner's prefix was
    // answered, and its garbage tail is the single protocol-error unit.
    let client_frames = 2 * REQUESTS as u64 + if poisoned { POISON_PREFIX + 1 } else { 0 };
    assert_eq!(
        received, client_frames,
        "wire-frame count drifted (seed {seed})"
    );
    assert_eq!(
        totals.0 + totals.1 + totals.2,
        2 * REQUESTS as u64,
        "client-observed outcomes must cover every request (seed {seed})"
    );
    // Every request a worker drained recorded its queue wait. Only a
    // contained worker panic sheds drained requests as `overloaded`;
    // without one the drains are exactly the served and expired ones.
    if server.stats().worker_panics() == 0 {
        assert_eq!(
            queue_waits,
            served + deadline_expired,
            "queue-wait count drifted (seed {seed})"
        );
    } else {
        assert!(
            (served + deadline_expired..=served + deadline_expired + overloaded)
                .contains(&queue_waits),
            "queue-wait count {queue_waits} outside [served + expired, + overloaded] (seed {seed})"
        );
    }
    assert_eq!(protocol_errors, u64::from(poisoned), "seed {seed}");
    assert_eq!(
        rejected, 0,
        "no malformed-but-parseable frames were sent (seed {seed})"
    );

    // Graceful drain: bounded, and it reports completing in time.
    assert!(
        server.shutdown_within(Duration::from_secs(10)),
        "drain watchdog expired (seed {seed})"
    );
}

#[test]
fn quiet_baseline_control() {
    // The control run: same harness, no injected faults. Everything the
    // clients sent is answered and the invariant holds trivially.
    chaos_run(1, FaultPlan::quiet(1));
}

#[test]
fn chaos_seeds_00_to_05() {
    for seed in 0..6 {
        chaos_run(seed, FaultPlan::from_seed(seed));
    }
}

#[test]
fn chaos_seeds_06_to_11() {
    for seed in 6..12 {
        chaos_run(seed, FaultPlan::from_seed(seed));
    }
}

#[test]
fn chaos_seeds_12_to_17() {
    for seed in 12..18 {
        chaos_run(seed, FaultPlan::from_seed(seed));
    }
}

#[test]
fn chaos_seeds_18_to_23() {
    for seed in 18..24 {
        chaos_run(seed, FaultPlan::from_seed(seed));
    }
}
