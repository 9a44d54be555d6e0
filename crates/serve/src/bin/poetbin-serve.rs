//! Standalone server binary: load one or more persisted models (either
//! `POETBIN` format), serve them all forever.
//!
//! ```text
//! poetbin-serve MODEL... [--addr ADDR] [--workers N] [--linger-us U] \
//!               [--max-batch B] [--features F] [--queue-cap Q] \
//!               [--stats-addr ADDR] [--backend interp|jit|auto] \
//!               [--deadline-us U] [--idle-timeout-ms MS] [--fault-plan SEED]
//! ```
//!
//! Each `MODEL` path is registered under its file stem (`deep.poetbin2`
//! serves as model `deep`), with wire ids assigned in argument order —
//! the first model is id 0, the one plain clients address by default.
//! `--addr` defaults to `127.0.0.1:9009`; a bare positional address after
//! the first model is still accepted for compatibility. `--features`
//! applies to every model (each model's own minimum width is used when
//! absent). Batching is work-conserving by default: a worker serves
//! whatever is queued the moment it is free; `--linger-us` opts into
//! holding a partial batch up to that long for stragglers, trading p50
//! latency for fewer tape passes. `--queue-cap` bounds each worker's
//! pending queue (full ⇒ requests are shed with `STATUS_OVERLOADED`);
//! `--stats-addr` pins the plain-text stats/health listener (an
//! ephemeral port on the data address otherwise — the chosen port is
//! printed at startup).
//! `--backend` selects the tape execution backend for every model:
//! `auto` (default) runs the in-process JIT where available and falls
//! back to the interpreter, `jit`/`interp` pin one (a pinned `jit` still
//! falls back on hosts without JIT support; each model's resolved
//! backend is printed at load and reported in the stats listener).
//!
//! Robustness knobs: `--deadline-us` sheds requests that wait longer
//! than the budget with `STATUS_DEADLINE_EXCEEDED`; `--idle-timeout-ms`
//! reaps connections with nothing in flight and no complete frame inside
//! the window (slow-loris defence). `--fault-plan SEED` (or the
//! `POETBIN_FAULT_SEED` environment variable, flag wins) arms the
//! deterministic fault injector with the schedule derived from SEED —
//! short reads/writes, spurious `EAGAIN`/`EINTR`, delayed poller
//! wakeups, injected worker panics — for chaos drills against a real
//! process. On `SIGINT`/`SIGTERM` the server drains gracefully: it stops
//! accepting, flushes in-flight work, and exits 0 if the drain finishes
//! inside its watchdog (exit 1 if the watchdog expires).

use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use poetbin_engine::Backend;
use poetbin_serve::{load_engine_with, FaultPlan, ModelRegistry, ServeConfig, Server};

/// Grace budget for the signal-triggered drain before the process gives
/// up and reports failure.
const DRAIN_GRACE: Duration = Duration::from_secs(10);

fn usage() -> ExitCode {
    eprintln!(
        "usage: poetbin-serve MODEL... [--addr ADDR] [--workers N] [--linger-us U] \
         [--max-batch B] [--features F] [--queue-cap Q] [--stats-addr ADDR] \
         [--backend interp|jit|auto] [--deadline-us U] [--idle-timeout-ms MS] \
         [--fault-plan SEED]"
    );
    ExitCode::from(2)
}

/// The registry name for a model path: its file stem.
fn model_name(path: &str) -> String {
    std::path::Path::new(path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| path.to_string())
}

/// A positional that looks like `host:port` rather than a model path.
fn looks_like_addr(arg: &str) -> bool {
    use std::net::ToSocketAddrs;
    !std::path::Path::new(arg).exists() && arg.to_socket_addrs().is_ok()
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut models: Vec<String> = Vec::new();
    let mut addr = "127.0.0.1:9009".to_string();
    let mut addr_given = false;
    let mut config = ServeConfig::default();
    let mut features = None;
    let mut backend = Backend::default();

    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut flag_value = |name: &str| -> Option<usize> {
            match it.next().and_then(|v| v.parse().ok()) {
                Some(v) => Some(v),
                None => {
                    eprintln!("{name} needs a numeric value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--addr" => match it.next() {
                Some(v) => {
                    addr = v.clone();
                    addr_given = true;
                }
                None => {
                    eprintln!("--addr needs a value");
                    return usage();
                }
            },
            "--workers" => match flag_value("--workers") {
                Some(v) if v > 0 => config.workers = v,
                _ => return usage(),
            },
            "--linger-us" => match flag_value("--linger-us") {
                Some(v) => config.linger = Duration::from_micros(v as u64),
                None => return usage(),
            },
            "--max-batch" => match flag_value("--max-batch") {
                Some(v) if (1..=512).contains(&v) => config.max_batch = v,
                _ => return usage(),
            },
            "--features" => match flag_value("--features") {
                Some(v) => features = Some(v),
                None => return usage(),
            },
            "--queue-cap" => match flag_value("--queue-cap") {
                Some(v) if v > 0 => config.queue_cap = v,
                _ => return usage(),
            },
            "--stats-addr" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => config.stats_addr = Some(v),
                _ => {
                    eprintln!("--stats-addr needs an IP:PORT value");
                    return usage();
                }
            },
            "--backend" => match it.next().map(|v| v.parse()) {
                Some(Ok(v)) => backend = v,
                _ => {
                    eprintln!("--backend must be one of interp, jit, auto");
                    return usage();
                }
            },
            "--deadline-us" => match flag_value("--deadline-us") {
                Some(v) if v > 0 => config.deadline = Some(Duration::from_micros(v as u64)),
                _ => return usage(),
            },
            "--idle-timeout-ms" => match flag_value("--idle-timeout-ms") {
                Some(v) if v > 0 => config.idle_timeout = Some(Duration::from_millis(v as u64)),
                _ => return usage(),
            },
            "--fault-plan" => match it.next().and_then(|v| v.parse().ok()) {
                Some(seed) => config.fault = Some(FaultPlan::from_seed(seed)),
                None => {
                    eprintln!("--fault-plan needs a numeric seed");
                    return usage();
                }
            },
            other if other.starts_with("--") => {
                eprintln!("unknown flag {other}");
                return usage();
            }
            other if !models.is_empty() && !addr_given && looks_like_addr(other) => {
                addr = other.to_string();
                addr_given = true;
            }
            other => models.push(other.to_string()),
        }
    }
    if models.is_empty() {
        return usage();
    }
    // Environment fallback for chaos drills on an unmodified command
    // line; an explicit --fault-plan wins.
    if config.fault.is_none() {
        if let Ok(value) = std::env::var("POETBIN_FAULT_SEED") {
            match value.parse() {
                Ok(seed) => config.fault = Some(FaultPlan::from_seed(seed)),
                Err(_) => {
                    eprintln!("POETBIN_FAULT_SEED must be a numeric seed, got {value:?}");
                    return usage();
                }
            }
        }
    }
    if let Some(plan) = &config.fault {
        eprintln!(
            "poetbin-serve: FAULT INJECTION ARMED (seed {}) — not for production",
            plan.seed
        );
    }

    let mut registry = ModelRegistry::new();
    for path in &models {
        let engine = match load_engine_with(path, features, backend) {
            Ok(engine) => engine,
            Err(e) => {
                eprintln!("poetbin-serve: {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let name = model_name(path);
        if registry.id_of(&name).is_some() {
            eprintln!("poetbin-serve: duplicate model name {name:?} (from {path})");
            return ExitCode::FAILURE;
        }
        eprintln!(
            "poetbin-serve: model {} = {} ({} features, {} classes, {} tape ops, {} backend)",
            registry.len(),
            path,
            engine.num_features(),
            engine.classes(),
            engine.engine().plan().tape_len(),
            engine.backend_name()
        );
        registry.register(name, Arc::new(engine));
    }

    let server = match Server::start(Arc::new(registry), addr.as_str(), config.clone()) {
        Ok(server) => server,
        Err(e) => {
            eprintln!("poetbin-serve: bind {addr}: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "poetbin-serve: listening on {} ({} models, {} workers, linger {:?}, max batch {}, \
         queue cap {}/worker), stats on {}",
        server.local_addr(),
        server.registry().len(),
        config.workers,
        config.linger,
        config.max_batch,
        config.queue_cap,
        server.stats_addr()
    );
    // Serve until SIGINT/SIGTERM, then drain gracefully: stop accepting,
    // flush the in-flight work, and exit under a bounded watchdog.
    if let Err(e) = epoll::install_shutdown_flag() {
        eprintln!("poetbin-serve: cannot install signal handlers: {e}");
        return ExitCode::FAILURE;
    }
    while !epoll::shutdown_requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    let stats = server.stats_handle();
    eprintln!("poetbin-serve: shutdown requested, draining (grace {DRAIN_GRACE:?})");
    let drained = server.shutdown_within(DRAIN_GRACE);
    eprintln!(
        "poetbin-serve: drained — received {} served {} overloaded {} deadline_expired {} \
         rejected {} protocol_errors {}",
        stats.received(),
        stats.served(),
        stats.overloaded(),
        stats.deadline_expired(),
        stats.rejected(),
        stats.protocol_errors()
    );
    if drained {
        ExitCode::SUCCESS
    } else {
        eprintln!("poetbin-serve: drain watchdog expired; exiting with in-flight work lost");
        ExitCode::FAILURE
    }
}
