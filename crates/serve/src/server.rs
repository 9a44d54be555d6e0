//! The serving core: one epoll poller thread owning every socket, N
//! engine worker threads draining bounded per-worker queues, and the
//! orchestration (startup, stats, two-phase shutdown) tying them
//! together.
//!
//! Thread layout (contrast with the old thread-per-connection design,
//! which spent two threads on every socket):
//!
//! * **`poetbin-poller`** — the event loop
//!   ([`event_loop`](crate::event_loop) module): nonblocking accept,
//!   read, frame reassembly, request decode, shard dispatch (or typed
//!   shed when every queue is full), response writes, and the stats
//!   endpoint. The only thread that touches a socket.
//! * **`poetbin-worker-{i}`** — one per [`ServeConfig::workers`]; each
//!   owns one bounded [`Shard`], blocks on it for the next micro-batch
//!   (whatever backlog is queued, or an opt-in linger), evaluates it on
//!   the compiled engine, and hands completions back to the poller
//!   through a channel + waker.
//!
//! Shutdown is two-phase so no response is dropped: `stop` closes the
//! shards (workers drain what is queued, then exit) and stops the poller
//! accepting/parsing; once the workers are joined, `finishing` lets the
//! poller route the last completions, flush every socket, and exit.

use std::collections::HashMap;
use std::fmt;
use std::io;
use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use epoll::Waker;
use poetbin_bits::pack_block_rows_into;
use poetbin_core::persist::{load_classifier_from, PersistError};
use poetbin_engine::{Backend, ClassifierEngine, Scratch, MAX_BLOCK_WORDS};
use poetbin_fpga::NetlistError;

use crate::batcher::{Pending, Shard};
use crate::event_loop::{Completion, EventLoop, EventLoopParts};
use crate::fault::{FaultInjector, FaultPlan, InjectedPanic};
use crate::protocol::{
    STATUS_DEADLINE_EXCEEDED, STATUS_OK, STATUS_OVERLOADED, STATUS_UNKNOWN_MODEL,
};
use crate::registry::ModelRegistry;

/// Tuning knobs for [`Server::start`].
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Engine worker threads, each draining its own bounded queue shard.
    /// Each owns one reusable [`poetbin_engine::Scratch`] per model; more
    /// workers overlap tape evaluation with request decode on multi-core
    /// hosts.
    pub workers: usize,
    /// How long a worker holding a partial batch waits for stragglers
    /// before serving it, measured **from the oldest queued request's
    /// arrival** (a worker that was busy has already spent its linger and
    /// serves the backlog immediately).
    ///
    /// The default is zero: the batcher is *work-conserving*. A worker
    /// that finds a request serves it at once, and batches form only from
    /// the backlog that queued while the worker ran its previous pass — so
    /// a lone request never waits for lane-mates, while a loaded server
    /// still packs full blocks. A positive linger is an explicit opt-in
    /// that trades up to one linger of p50 latency for fewer, fuller tape
    /// passes under open-loop traffic.
    pub linger: Duration,
    /// Requests per queue drain, at most 512 (64 lanes × the engine's
    /// 8-word lane blocks). A worker drains up to this many requests,
    /// groups them by model, packs each group into a lane-word block and
    /// evaluates it in one blocked pass
    /// ([`ClassifierEngine::predict_block_into`]), the final partial word
    /// masked.
    pub max_batch: usize,
    /// Capacity of each worker's pending queue. A request arriving while
    /// **every** shard is full is shed with
    /// [`STATUS_OVERLOADED`](crate::protocol::STATUS_OVERLOADED) instead
    /// of queueing — this is what bounds server memory and the queueing
    /// delay of accepted requests under open-loop overload.
    pub queue_cap: usize,
    /// Per-connection write backlog (bytes) past which the server stops
    /// *reading* that connection until the backlog halves. A peer that
    /// does not consume its responses therefore stops generating engine
    /// work instead of growing an unbounded buffer.
    pub write_buf_cap: usize,
    /// Where to bind the plain-text stats/health listener. `None` binds
    /// an ephemeral port on the data listener's address (see
    /// [`Server::stats_addr`]).
    pub stats_addr: Option<SocketAddr>,
    /// Kernel socket buffer clamp (`SO_SNDBUF`/`SO_RCVBUF`, bytes) for
    /// accepted data connections; `None` keeps the kernel defaults.
    /// Bounding these caps the kernel-side memory a slow or dead peer
    /// can pin, and makes the [`write_buf_cap`](Self::write_buf_cap)
    /// read-pausing backpressure engage promptly instead of after
    /// megabytes of kernel buffering.
    pub sock_buf: Option<usize>,
    /// Per-request deadline, measured from the moment the event loop
    /// decoded the request. A request still queued past its deadline is
    /// shed with
    /// [`STATUS_DEADLINE_EXCEEDED`](crate::protocol::STATUS_DEADLINE_EXCEEDED)
    /// instead of evaluated — under transient overload the server sheds
    /// stale work rather than burning engine time on answers nobody is
    /// still waiting for. `None` (the default) disables deadlines.
    pub deadline: Option<Duration>,
    /// Idle-connection reaping. A data connection with no in-flight
    /// requests whose last *productive* activity (a complete parsed
    /// frame, or forward progress flushing its responses) is older than
    /// this is closed — which evicts slow-loris peers dripping partial
    /// frames, clients that never read their responses, and plain idle
    /// sockets. `None` (the default) never reaps.
    pub idle_timeout: Option<Duration>,
    /// Deterministic fault-injection plan for chaos testing; `None` (the
    /// default) injects nothing and costs one branch per I/O call.
    pub fault: Option<FaultPlan>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            linger: Duration::ZERO,
            max_batch: 64 * MAX_BLOCK_WORDS,
            queue_cap: 4096,
            write_buf_cap: 256 * 1024,
            stats_addr: None,
            sock_buf: None,
            deadline: None,
            idle_timeout: None,
            fault: None,
        }
    }
}

/// Monotonic whole-server counters; read them through [`Server::stats`].
/// Per-model counters live in the registry
/// ([`ModelRegistry::stats`](crate::ModelRegistry::stats)).
///
/// The counters reconcile: every request frame taken off the wire is
/// counted exactly once on the outcome side, so at quiescence
///
/// ```text
/// received == served + overloaded + deadline_expired
///           + rejected + protocol_errors
/// ```
///
/// holds — even across worker panics, injected faults, and a shutdown
/// that sheds its tail. The chaos suite replays seeded fault schedules
/// against exactly this equation.
///
/// Every request a worker drains from its shard also records its queue
/// wait, so with no worker panics `queue_wait_count == served +
/// deadline_expired` at quiescence as well.
#[derive(Debug, Default)]
pub struct ServerStats {
    pub(crate) received: AtomicU64,
    pub(crate) served: AtomicU64,
    pub(crate) batches: AtomicU64,
    pub(crate) connections: AtomicU64,
    pub(crate) protocol_errors: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) overloaded: AtomicU64,
    pub(crate) deadline_expired: AtomicU64,
    pub(crate) worker_panics: AtomicU64,
    pub(crate) reaped: AtomicU64,
    /// One queue-wait cell per worker, merged when read.
    pub(crate) queue_wait: Box<[QueueWait]>,
}

/// One worker's queue-wait tally: how long each request it drained sat
/// in its shard, from [`Pending::arrived`] (decode) to the drain. Kept
/// per worker, on its own cache line, so recording never contends.
#[derive(Debug, Default)]
#[repr(align(64))]
pub(crate) struct QueueWait {
    count: AtomicU64,
    sum_ns: AtomicU64,
    max_ns: AtomicU64,
}

impl QueueWait {
    /// Records the wait of every request in `drained` as of `now`: three
    /// atomic updates per drain, no allocation.
    fn record<'a>(&self, now: Instant, drained: impl Iterator<Item = &'a Pending>) {
        let (mut count, mut sum, mut max) = (0u64, 0u64, 0u64);
        for p in drained {
            let ns = now.saturating_duration_since(p.arrived).as_nanos() as u64;
            count += 1;
            sum += ns;
            max = max.max(ns);
        }
        self.count.fetch_add(count, Ordering::Relaxed);
        self.sum_ns.fetch_add(sum, Ordering::Relaxed);
        self.max_ns.fetch_max(max, Ordering::Relaxed);
    }
}

impl ServerStats {
    /// Complete request frames consumed off the wire so far (all
    /// models), plus one for each connection whose stream became
    /// unparseable — the poisoned tail counts as a single final unit so
    /// [`protocol_errors`](Self::protocol_errors) reconciles. Every unit
    /// counted here later lands in exactly one of
    /// [`served`](Self::served), [`overloaded`](Self::overloaded),
    /// [`deadline_expired`](Self::deadline_expired),
    /// [`rejected`](Self::rejected), or
    /// [`protocol_errors`](Self::protocol_errors).
    pub fn received(&self) -> u64 {
        self.received.load(Ordering::Relaxed)
    }

    /// Predictions routed back toward clients so far (all models).
    pub fn served(&self) -> u64 {
        self.served.load(Ordering::Relaxed)
    }

    /// Engine tape passes (per-model batch groups) evaluated so far.
    pub fn batches(&self) -> u64 {
        self.batches.load(Ordering::Relaxed)
    }

    /// Connections accepted so far.
    pub fn connections(&self) -> u64 {
        self.connections.load(Ordering::Relaxed)
    }

    /// Connections whose *stream* became unparseable (a length prefix
    /// past the server's frame limit) and were therefore closed.
    /// Malformed but well-framed requests are answered, not dropped —
    /// see [`rejected`](Self::rejected).
    pub fn protocol_errors(&self) -> u64 {
        self.protocol_errors.load(Ordering::Relaxed)
    }

    /// Typed error responses sent (unknown model id, wrong row width,
    /// short request payload). The connection survives these.
    pub fn rejected(&self) -> u64 {
        self.rejected.load(Ordering::Relaxed)
    }

    /// Well-formed requests shed with
    /// [`STATUS_OVERLOADED`](crate::protocol::STATUS_OVERLOADED) because
    /// every bounded queue shard was full (or closing under shutdown),
    /// or because a worker panic shed the requests it was holding.
    pub fn overloaded(&self) -> u64 {
        self.overloaded.load(Ordering::Relaxed)
    }

    /// Accepted requests shed with
    /// [`STATUS_DEADLINE_EXCEEDED`](crate::protocol::STATUS_DEADLINE_EXCEEDED)
    /// because they aged past [`ServeConfig::deadline`] while queued.
    pub fn deadline_expired(&self) -> u64 {
        self.deadline_expired.load(Ordering::Relaxed)
    }

    /// Worker batch evaluations that panicked and were contained: the
    /// worker shed the requests it was holding (they count under
    /// [`overloaded`](Self::overloaded)) and kept running instead of
    /// wedging the poller.
    pub fn worker_panics(&self) -> u64 {
        self.worker_panics.load(Ordering::Relaxed)
    }

    /// Idle data connections closed by the reaper
    /// ([`ServeConfig::idle_timeout`]): slow-loris peers, clients that
    /// never read responses, and plain idle sockets.
    pub fn reaped(&self) -> u64 {
        self.reaped.load(Ordering::Relaxed)
    }

    /// Requests drained from the queue shards so far — evaluated, shed
    /// past their deadline, or shed by a contained worker panic — each
    /// with its queue wait recorded.
    pub fn queue_wait_count(&self) -> u64 {
        self.queue_wait
            .iter()
            .map(|w| w.count.load(Ordering::Relaxed))
            .sum()
    }

    /// Total queue wait of the [`queue_wait_count`](Self::queue_wait_count)
    /// drained requests, in microseconds: the time from decode to the
    /// worker's drain, the first stage of a served request's latency.
    pub fn queue_wait_us_sum(&self) -> u64 {
        self.queue_wait
            .iter()
            .map(|w| w.sum_ns.load(Ordering::Relaxed))
            .sum::<u64>()
            / 1000
    }

    /// Longest queue wait of any drained request so far, in microseconds.
    pub fn queue_wait_us_max(&self) -> u64 {
        self.queue_wait
            .iter()
            .map(|w| w.max_ns.load(Ordering::Relaxed))
            .max()
            .unwrap_or(0)
            / 1000
    }

    /// Mean requests per evaluated batch — the lane-occupancy figure the
    /// linger setting exists to maximise.
    pub fn mean_batch(&self) -> f64 {
        let batches = self.batches();
        if batches == 0 {
            0.0
        } else {
            self.served() as f64 / batches as f64
        }
    }
}

/// Failure to turn a model file into a compiled serving engine.
#[derive(Debug)]
pub enum LoadError {
    /// The model file (either `POETBIN` format) failed to decode.
    Persist(PersistError),
    /// The decoded classifier's lowered netlist failed compilation.
    Compile(NetlistError),
    /// The requested width is narrower than some tree's feature index.
    WidthTooNarrow {
        /// Width the caller asked for.
        requested: usize,
        /// Width the model actually needs.
        required: usize,
    },
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Persist(e) => write!(f, "loading model: {e}"),
            LoadError::Compile(e) => write!(f, "compiling model: {e}"),
            LoadError::WidthTooNarrow {
                requested,
                required,
            } => write!(
                f,
                "requested width {requested} but the model reads feature {}",
                required - 1
            ),
        }
    }
}

impl std::error::Error for LoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadError::Persist(e) => Some(e),
            LoadError::Compile(e) => Some(e),
            LoadError::WidthTooNarrow { .. } => None,
        }
    }
}

/// Loads a model file (`POETBIN1` or `POETBIN2`, sniffed from the magic)
/// and compiles it once for serving, on the default
/// (auto-selected) execution backend. Use [`load_engine_with`] to pin
/// one.
///
/// `num_features` fixes the row width clients must send; `None` uses the
/// narrowest width the model supports
/// ([`poetbin_core::PoetBinClassifier::min_features`]).
///
/// # Errors
///
/// Returns [`LoadError`] when the file fails to decode, the width is
/// narrower than the model needs, or netlist compilation fails.
pub fn load_engine(
    path: impl AsRef<Path>,
    num_features: Option<usize>,
) -> Result<ClassifierEngine, LoadError> {
    load_engine_with(path, num_features, Backend::default())
}

/// [`load_engine`] with an explicit execution backend.
///
/// The worker loop eagerly compiles ([`poetbin_engine::Engine::prepare`])
/// every width the batcher can produce before taking traffic, so a JIT
/// backend never pays codegen on a request path. What actually runs
/// after availability fallback is reported per model in the stats
/// listener's `model.*.backend` lines.
///
/// # Errors
///
/// As [`load_engine`].
pub fn load_engine_with(
    path: impl AsRef<Path>,
    num_features: Option<usize>,
    backend: Backend,
) -> Result<ClassifierEngine, LoadError> {
    let clf = load_classifier_from(path).map_err(LoadError::Persist)?;
    let required = clf.min_features();
    let width = num_features.unwrap_or(required);
    if width < required {
        return Err(LoadError::WidthTooNarrow {
            requested: width,
            required,
        });
    }
    ClassifierEngine::compile(&clf, width)
        .map(|engine| engine.with_backend(backend))
        .map_err(LoadError::Compile)
}

/// A running inference server; dropping or [`Server::shutdown`]ing it
/// stops every thread.
///
/// A single poller thread owns every socket: it accepts nonblocking
/// connections, reassembles request frames from per-connection read
/// buffers, and dispatches decoded requests round-robin into the
/// workers' **bounded** queue shards — answering
/// [`STATUS_OVERLOADED`](crate::protocol::STATUS_OVERLOADED) immediately
/// when every shard is full, so neither queue memory nor the queueing
/// delay of accepted requests grows without bound. Worker threads
/// blocked on their shard drain up to `max_batch ≤ 512` queued requests
/// at once (serving a lone request immediately unless an opt-in linger,
/// measured from the oldest request's arrival, holds it), group them by
/// model, and evaluate each group as a single packed lane-word block in
/// one blocked tape pass — each model's immutable compiled plan is
/// shared behind an [`Arc`], so every worker evaluates the same tape
/// with its own scratch. Completions flow back to the poller over a
/// channel (an `eventfd` waker interrupts its `epoll_wait`), which
/// writes responses as far as each socket allows and buffers the rest —
/// pausing reads on any connection whose peer stops draining its
/// responses.
///
/// A second, plain-text listener ([`Server::stats_addr`]) answers every
/// connection with a `key value` health report (counters, queue depths,
/// per-model lines) and closes.
///
/// Engines can be hot-swapped through the shared [`ModelRegistry`] while
/// the server runs: batches in flight finish on the engine they
/// snapshotted, later batches use the replacement.
///
/// # Example
///
/// ```no_run
/// use std::sync::Arc;
/// use poetbin_serve::{Client, ModelRegistry, ServeConfig, Server};
/// # let engine: poetbin_engine::ClassifierEngine = unimplemented!();
/// # let row: poetbin_bits::BitVec = unimplemented!();
///
/// let mut registry = ModelRegistry::new();
/// registry.register("default", Arc::new(engine));
/// let server = Server::start(Arc::new(registry), "127.0.0.1:0", ServeConfig::default())?;
/// let mut client = Client::connect(server.local_addr())?;
/// let class = client.predict(&row)?;
/// server.shutdown();
/// # Ok::<(), std::io::Error>(())
/// ```
pub struct Server {
    addr: SocketAddr,
    stats_addr: SocketAddr,
    registry: Arc<ModelRegistry>,
    shards: Arc<Vec<Shard>>,
    stats: Arc<ServerStats>,
    stopping: Arc<AtomicBool>,
    finishing: Arc<AtomicBool>,
    waker: Arc<Waker>,
    worker_threads: Vec<JoinHandle<()>>,
    poller_thread: Option<JoinHandle<()>>,
}

impl Server {
    /// Binds `addr` (use port 0 for an ephemeral port) plus the stats
    /// listener, and starts the poller and `config.workers` engine
    /// workers serving every model in `registry`.
    ///
    /// # Errors
    ///
    /// Propagates bind, epoll/eventfd setup, or thread-spawn failure.
    ///
    /// # Panics
    ///
    /// Panics if the registry is empty, `config.workers == 0`,
    /// `config.max_batch` is not in `1..=512`, or a capacity is zero.
    pub fn start(
        registry: Arc<ModelRegistry>,
        addr: impl ToSocketAddrs,
        config: ServeConfig,
    ) -> io::Result<Server> {
        assert!(!registry.is_empty(), "registry has no models to serve");
        assert!(config.workers > 0, "need at least one worker");
        assert!(
            (1..=64 * MAX_BLOCK_WORDS).contains(&config.max_batch),
            "max_batch must be in 1..={}",
            64 * MAX_BLOCK_WORDS
        );
        assert!(config.queue_cap > 0, "queue_cap must be positive");
        assert!(config.write_buf_cap > 0, "write_buf_cap must be positive");

        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stats_listener = TcpListener::bind(
            config
                .stats_addr
                .unwrap_or_else(|| SocketAddr::new(addr.ip(), 0)),
        )?;
        let stats_addr = stats_listener.local_addr()?;

        let shards: Arc<Vec<Shard>> = Arc::new(
            (0..config.workers)
                .map(|_| Shard::new(config.queue_cap))
                .collect(),
        );
        let stats = Arc::new(ServerStats {
            queue_wait: (0..config.workers).map(|_| QueueWait::default()).collect(),
            ..ServerStats::default()
        });
        let stopping = Arc::new(AtomicBool::new(false));
        let finishing = Arc::new(AtomicBool::new(false));
        let waker = Arc::new(Waker::new()?);
        let fault = config
            .fault
            .clone()
            .map(|plan| Arc::new(FaultInjector::new(plan)));
        let (completion_tx, completion_rx) = mpsc::channel::<Completion>();

        // Build the event loop up front so fd registration failures
        // surface here instead of inside a silent thread.
        let event_loop = EventLoop::new(EventLoopParts {
            listener,
            stats_listener,
            registry: Arc::clone(&registry),
            shards: Arc::clone(&shards),
            stats: Arc::clone(&stats),
            waker: Arc::clone(&waker),
            completions: completion_rx,
            stopping: Arc::clone(&stopping),
            finishing: Arc::clone(&finishing),
            linger: config.linger,
            max_batch: config.max_batch,
            write_buf_cap: config.write_buf_cap,
            sock_buf: config.sock_buf,
            idle_timeout: config.idle_timeout,
            fault: fault.clone(),
        })?;

        let mut worker_threads = Vec::with_capacity(config.workers);
        for i in 0..config.workers {
            let shards = Arc::clone(&shards);
            let worker = Worker {
                index: i,
                registry: Arc::clone(&registry),
                stats: Arc::clone(&stats),
                completions: completion_tx.clone(),
                waker: Arc::clone(&waker),
                max_batch: config.max_batch,
                linger: config.linger,
                deadline: config.deadline,
                fault: fault.clone(),
            };
            worker_threads.push(
                std::thread::Builder::new()
                    .name(format!("poetbin-worker-{i}"))
                    .spawn(move || worker.run(&shards[i]))?,
            );
        }
        // Only workers hold senders now: once they exit, the poller's
        // drain sees the disconnect and knows nothing more is coming.
        drop(completion_tx);

        let poller_thread = std::thread::Builder::new()
            .name("poetbin-poller".into())
            .spawn(move || event_loop.run())?;

        Ok(Server {
            addr,
            stats_addr,
            registry,
            shards,
            stats,
            stopping,
            finishing,
            waker,
            worker_threads,
            poller_thread: Some(poller_thread),
        })
    }

    /// The bound data address (with the real port when started on port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The stats/health listener's address. Any connection to it is
    /// answered with a plain-text `key value` report (global counters,
    /// per-shard queue depths, per-model lines) behind a minimal HTTP
    /// response header, then closed.
    pub fn stats_addr(&self) -> SocketAddr {
        self.stats_addr
    }

    /// The registry this server routes requests through — the handle for
    /// hot-swapping engines and reading per-model stats.
    pub fn registry(&self) -> &Arc<ModelRegistry> {
        &self.registry
    }

    /// The server's monotonic counters.
    pub fn stats(&self) -> &ServerStats {
        &self.stats
    }

    /// An owned handle to the counters that outlives the server — for
    /// reading the final tallies after [`shutdown`](Self::shutdown)
    /// consumes it.
    pub fn stats_handle(&self) -> Arc<ServerStats> {
        Arc::clone(&self.stats)
    }

    /// Requests currently parked across all queue shards (diagnostics
    /// only — stale by the time the caller reads it). Bounded by
    /// `workers × queue_cap` by construction.
    pub fn queue_depth(&self) -> usize {
        self.shards.iter().map(|s| s.depth()).sum()
    }

    /// Stops accepting, drains the queues, flushes every response, and
    /// joins every thread. Already-queued requests are still evaluated;
    /// their responses reach any connection that is still open.
    pub fn shutdown(mut self) {
        self.stop();
        // Workers drain their closed shards, push the last completions,
        // and exit.
        for t in self.worker_threads.drain(..) {
            let _ = t.join();
        }
        // Now every completion is in the channel: let the poller route
        // and flush them, then exit.
        self.finishing.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        if let Some(t) = self.poller_thread.take() {
            let _ = t.join();
        }
    }

    /// Graceful drain with a watchdog: like [`shutdown`](Self::shutdown)
    /// — stop accepting, evaluate what is queued, flush every response —
    /// but bounded by `grace`. Returns `true` when every thread joined
    /// within the budget; `false` abandons whatever is still wedged
    /// (those detached threads die with the process — the watchdog
    /// guarantees the *caller* makes progress, not that a stuck thread
    /// is reclaimed).
    pub fn shutdown_within(mut self, grace: Duration) -> bool {
        let deadline = Instant::now() + grace;
        self.stop();
        let mut workers = std::mem::take(&mut self.worker_threads);
        let workers_done = join_all_within(&mut workers, deadline);
        // Even with a wedged worker, let the poller flush what it has:
        // `finishing` drives its exit without waiting on the channel.
        self.finishing.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
        let mut poller: Vec<JoinHandle<()>> = self.poller_thread.take().into_iter().collect();
        // Give the poller at least a tick even when the workers ate the
        // whole grace budget.
        let poller_by = deadline.max(Instant::now() + Duration::from_millis(10));
        let poller_done = join_all_within(&mut poller, poller_by);
        workers_done && poller_done
    }

    fn stop(&self) {
        self.stopping.store(true, Ordering::SeqCst);
        for shard in self.shards.iter() {
            shard.close();
        }
        let _ = self.waker.wake();
    }
}

/// Joins every handle that finishes before `deadline`; handles still
/// running then are dropped (detached). Returns whether all joined.
fn join_all_within(handles: &mut Vec<JoinHandle<()>>, deadline: Instant) -> bool {
    loop {
        let mut i = 0;
        while i < handles.len() {
            if handles[i].is_finished() {
                let _ = handles.swap_remove(i).join();
            } else {
                i += 1;
            }
        }
        if handles.is_empty() {
            return true;
        }
        if Instant::now() >= deadline {
            handles.clear();
            return false;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // `shutdown` consumed-and-dropped lands here too; both flags are
        // already set then and the extra wake is harmless. A bare drop
        // stops every thread without joining it.
        if !self.stopping.load(Ordering::SeqCst) {
            self.stop();
        }
        self.finishing.store(true, Ordering::SeqCst);
        let _ = self.waker.wake();
    }
}

/// How one model group's evaluation ended (inside the panic boundary).
enum GroupEval {
    /// `preds[..lanes]` holds the argmaxes; account and send `STATUS_OK`.
    Served,
    /// The registry had no such model (defensive — the poller validates
    /// ids, and registered models are never removed).
    UnknownModel,
}

/// One engine worker: block on this worker's shard for up to a lane
/// block's worth of requests (`64 · B`), shed anything that aged past
/// the deadline, group the rest by model, pack each group and evaluate
/// it in one blocked tape pass, hand each argmax to the poller as a
/// [`Completion`] and ring the waker.
///
/// Each group is evaluated inside a panic boundary: a panic (engine bug,
/// or an injected chaos fault) is contained to the batch in hand — the
/// worker sheds the unanswered requests with `STATUS_OVERLOADED`, drops
/// its scratch cache, and keeps serving instead of wedging the poller.
/// Completions are only sent *after* the boundary, so a panicked group
/// never double-answers: every request is answered exactly once, as a
/// prediction or as a typed shed.
///
/// Scratch buffers are cached per model and invalidated by the slot
/// version, so a hot-swapped engine (whose compiled plan may differ in
/// size) never sees scratch sized for its predecessor.
struct Worker {
    /// This worker's shard and [`ServerStats::queue_wait`] cell.
    index: usize,
    registry: Arc<ModelRegistry>,
    stats: Arc<ServerStats>,
    completions: mpsc::Sender<Completion>,
    waker: Arc<Waker>,
    max_batch: usize,
    linger: Duration,
    deadline: Option<Duration>,
    fault: Option<Arc<FaultInjector>>,
}

impl Worker {
    fn run(&self, shard: &Shard) {
        let mut scratch_cache: HashMap<u16, (u64, Scratch)> = HashMap::new();
        let mut batch: Vec<Pending> = Vec::with_capacity(self.max_batch);
        let mut expired: Vec<Pending> = Vec::new();
        let mut blocks: Vec<u64> = Vec::new();
        let mut preds = vec![0usize; self.max_batch];
        while shard.pop_batch(
            self.max_batch,
            self.linger,
            self.deadline,
            &mut batch,
            &mut expired,
        ) {
            self.stats.queue_wait[self.index].record(Instant::now(), batch.iter().chain(&expired));
            if !expired.is_empty() {
                self.shed(&expired, STATUS_DEADLINE_EXCEEDED);
            }
            if batch.is_empty() {
                continue;
            }
            // Group by model; stable, so FIFO order survives within a model.
            batch.sort_by_key(|p| p.model_id);
            let mut idx = 0;
            while idx < batch.len() {
                let model_id = batch[idx].model_id;
                let split = batch[idx..].partition_point(|p| p.model_id == model_id);
                let group = &batch[idx..idx + split];
                // The panic boundary. `AssertUnwindSafe` is sound here:
                // on unwind the scratch cache is discarded wholesale and
                // `blocks`/`preds` are fully overwritten before any
                // later read, so no torn state is ever observed.
                let outcome = catch_unwind(AssertUnwindSafe(|| {
                    self.eval_group(model_id, group, &mut scratch_cache, &mut blocks, &mut preds)
                }));
                match outcome {
                    Ok(GroupEval::Served) => {
                        let lanes = group.len();
                        // Account the batch BEFORE sending its
                        // completions: once a response is observable by
                        // a client, the counters must already cover it,
                        // so the reconciliation invariant holds at any
                        // externally-visible quiescent point.
                        self.stats.batches.fetch_add(1, Ordering::Relaxed);
                        self.stats.served.fetch_add(lanes as u64, Ordering::Relaxed);
                        if let Some(model_stats) = self.registry.stats(model_id) {
                            model_stats.add_served_batch(lanes as u64);
                        }
                        for (pending, &class) in group.iter().zip(&preds) {
                            // A send error only means the poller is
                            // already gone (abandoned drop); nothing to
                            // route the reply to.
                            let _ = self.completions.send(Completion {
                                conn: pending.conn,
                                id: pending.id,
                                status: STATUS_OK,
                                class: class as u16,
                            });
                        }
                        let _ = self.waker.wake();
                        idx += split;
                    }
                    Ok(GroupEval::UnknownModel) => {
                        // Counted as rejected so the global equation
                        // still reconciles on this (unreachable) path.
                        self.stats
                            .rejected
                            .fetch_add(group.len() as u64, Ordering::Relaxed);
                        for p in group {
                            let _ = self.completions.send(Completion {
                                conn: p.conn,
                                id: p.id,
                                status: STATUS_UNKNOWN_MODEL,
                                class: 0,
                            });
                        }
                        let _ = self.waker.wake();
                        idx += split;
                    }
                    Err(_panic) => {
                        // Contain the crash: no completion was sent for
                        // this group, so shedding the whole tail answers
                        // every outstanding request exactly once. The
                        // scratch cache may hold torn state — rebuild.
                        self.stats.worker_panics.fetch_add(1, Ordering::Relaxed);
                        scratch_cache.clear();
                        self.shed(&batch[idx..], STATUS_OVERLOADED);
                        idx = batch.len();
                    }
                }
            }
            batch.clear();
        }
    }

    /// Evaluates one same-model group into `preds[..group.len()]`.
    /// Runs inside the worker's panic boundary.
    fn eval_group(
        &self,
        model_id: u16,
        group: &[Pending],
        scratch_cache: &mut HashMap<u16, (u64, Scratch)>,
        blocks: &mut Vec<u64>,
        preds: &mut [usize],
    ) -> GroupEval {
        let Some((engine, version)) = self.registry.snapshot(model_id) else {
            return GroupEval::UnknownModel;
        };
        // First visit or the slot was swapped: (re)build the scratch
        // for the engine actually in hand.
        let stale = !matches!(scratch_cache.get(&model_id), Some((v, _)) if *v == version);
        if stale {
            scratch_cache.insert(model_id, (version, engine.scratch()));
        }
        let (_, scratch) = scratch_cache.get_mut(&model_id).expect("just inserted");
        let lanes = group.len();
        let words = lanes.div_ceil(64);
        pack_block_rows_into(
            group.iter().map(|p| &p.row),
            engine.num_features(),
            words,
            blocks,
        );
        engine.predict_block_into(blocks, scratch, &mut preds[..lanes]);
        if let Some(fault) = &self.fault {
            if fault.should_panic() {
                // After evaluation, before accounting: the worst spot —
                // work done, nothing recorded yet.
                std::panic::panic_any(InjectedPanic);
            }
        }
        GroupEval::Served
    }

    /// Answers every request in `group` with a typed shed status and
    /// accounts them (globally, and per-model for deadline sheds).
    fn shed(&self, group: &[Pending], status: u8) {
        if group.is_empty() {
            return;
        }
        if status == STATUS_DEADLINE_EXCEEDED {
            self.stats
                .deadline_expired
                .fetch_add(group.len() as u64, Ordering::Relaxed);
            let mut by_model: HashMap<u16, u64> = HashMap::new();
            for p in group {
                *by_model.entry(p.model_id).or_default() += 1;
            }
            for (model_id, n) in by_model {
                if let Some(model_stats) = self.registry.stats(model_id) {
                    model_stats.add_deadline_expired(n);
                }
            }
        } else {
            self.stats
                .overloaded
                .fetch_add(group.len() as u64, Ordering::Relaxed);
        }
        for p in group {
            let _ = self.completions.send(Completion {
                conn: p.conn,
                id: p.id,
                status,
                class: 0,
            });
        }
        let _ = self.waker.wake();
    }
}
