//! The single poller thread: nonblocking accept/read/write over every
//! connection, frame reassembly, bounded-queue dispatch, and response
//! routing — replacing the old per-connection reader+writer thread pairs.
//!
//! One thread owns every socket. An [`epoll::Poller`] (level-triggered)
//! watches the data listener, the stats listener, an [`epoll::Waker`]
//! the engine workers ring when results are ready, and every live
//! connection. Each connection carries its own read buffer (frames are
//! reassembled across arbitrarily split reads) and write buffer (frames
//! are flushed as far as the socket allows; the rest waits for
//! `EPOLLOUT`).
//!
//! Two backpressure mechanisms keep every buffer bounded:
//!
//! * **Queue shedding** — decoded requests go round-robin into the
//!   workers' bounded [`Shard`]s; when every shard is full the request
//!   is answered `STATUS_OVERLOADED` immediately instead of queueing.
//! * **Slow-reader pausing** — when a connection's write buffer passes
//!   its cap, the loop stops *reading* that connection (and therefore
//!   stops feeding the engine on behalf of a peer that is not consuming
//!   answers); reading resumes once the backlog halves. A peer that
//!   never drains is eventually bounded by its kernel socket buffers.
//!
//! A connection whose write half dies is torn down completely — the
//! read half goes with it, so the engine never burns tape passes for a
//! peer that can no longer receive answers.

use std::collections::HashMap;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

use epoll::{Event, Interest, Poller, Waker};

use crate::batcher::{Pending, Shard};
use crate::fault::{FaultInjector, IoFault};
use crate::protocol::{
    self, BAD_FRAME_ID, RESPONSE_LEN, STATUS_BAD_REQUEST, STATUS_OVERLOADED, STATUS_UNKNOWN_MODEL,
};
use crate::registry::ModelRegistry;
use crate::server::ServerStats;

/// One evaluated request on its way back from a worker to the poller.
pub(crate) struct Completion {
    /// Event-loop token of the originating connection.
    pub conn: u64,
    /// Client-chosen request id.
    pub id: u64,
    /// Response status byte.
    pub status: u8,
    /// Predicted class (meaningless unless `status == STATUS_OK`).
    pub class: u16,
}

const TOKEN_LISTENER: u64 = 0;
const TOKEN_STATS_LISTENER: u64 = 1;
const TOKEN_WAKER: u64 = 2;
const FIRST_CONN_TOKEN: u64 = 8;

/// A byte buffer with an explicit consumed prefix, compacted lazily so
/// steady-state reads/writes never shift memory.
struct Buf {
    data: Vec<u8>,
    start: usize,
}

impl Buf {
    fn new() -> Buf {
        Buf {
            data: Vec::new(),
            start: 0,
        }
    }

    fn len(&self) -> usize {
        self.data.len() - self.start
    }

    fn is_empty(&self) -> bool {
        self.start == self.data.len()
    }

    fn bytes(&self) -> &[u8] {
        &self.data[self.start..]
    }

    fn extend(&mut self, bytes: &[u8]) {
        self.data.extend_from_slice(bytes);
    }

    fn consume(&mut self, n: usize) {
        self.start += n;
        debug_assert!(self.start <= self.data.len());
        // Compact once the dead prefix dominates, so the buffer tracks
        // the live payload instead of the connection's lifetime traffic.
        if self.start >= 4096 && self.start * 2 >= self.data.len() {
            self.data.drain(..self.start);
            self.start = 0;
        }
    }

    fn clear(&mut self) {
        self.data.clear();
        self.start = 0;
    }
}

struct Conn {
    stream: TcpStream,
    rbuf: Buf,
    wbuf: Buf,
    /// Interest currently registered with the poller.
    interest: Interest,
    /// Reads suspended because the write buffer passed its cap.
    paused: bool,
    /// No more reads ever (peer EOF, unparseable frame, or server
    /// shutdown); the connection closes once `wbuf` is flushed and no
    /// requests are in flight.
    closing: bool,
    /// Requests enqueued/being evaluated whose responses have not yet
    /// been routed back to this connection.
    inflight: usize,
    /// `false` for stats/health connections (write-report-and-close).
    data_plane: bool,
    /// Last *productive* moment: a complete frame parsed, or forward
    /// progress flushing responses. The idle reaper's clock — partial
    /// frames dripped by a slow-loris peer deliberately do not count.
    last_activity: Instant,
}

/// Everything [`EventLoop::new`] needs, bundled (it crosses a thread
/// boundary as one move anyway).
pub(crate) struct EventLoopParts {
    pub listener: TcpListener,
    pub stats_listener: TcpListener,
    pub registry: Arc<ModelRegistry>,
    pub shards: Arc<Vec<Shard>>,
    pub stats: Arc<ServerStats>,
    pub waker: Arc<Waker>,
    pub completions: mpsc::Receiver<Completion>,
    pub stopping: Arc<AtomicBool>,
    pub finishing: Arc<AtomicBool>,
    pub linger: Duration,
    pub max_batch: usize,
    pub write_buf_cap: usize,
    pub sock_buf: Option<usize>,
    pub idle_timeout: Option<Duration>,
    pub fault: Option<Arc<FaultInjector>>,
}

pub(crate) struct EventLoop {
    poller: Poller,
    listener: Option<TcpListener>,
    stats_listener: Option<TcpListener>,
    registry: Arc<ModelRegistry>,
    shards: Arc<Vec<Shard>>,
    stats: Arc<ServerStats>,
    waker: Arc<Waker>,
    completions: mpsc::Receiver<Completion>,
    stopping: Arc<AtomicBool>,
    finishing: Arc<AtomicBool>,
    conns: HashMap<u64, Conn>,
    next_token: u64,
    /// Round-robin cursor for shard dispatch.
    rr: usize,
    max_payload: usize,
    /// Batching policy, reported on the stats endpoint.
    linger: Duration,
    max_batch: usize,
    write_buf_cap: usize,
    sock_buf: Option<usize>,
    idle_timeout: Option<Duration>,
    fault: Option<Arc<FaultInjector>>,
    hello: Vec<u8>,
    started: Instant,
    /// Listeners torn down (the `stopping` transition ran).
    stopped: bool,
}

impl EventLoop {
    /// Registers the listeners and waker; everything else is lazy.
    pub(crate) fn new(parts: EventLoopParts) -> io::Result<EventLoop> {
        parts.listener.set_nonblocking(true)?;
        parts.stats_listener.set_nonblocking(true)?;
        let poller = Poller::new()?;
        poller.add(parts.listener.as_raw_fd(), TOKEN_LISTENER, Interest::READ)?;
        poller.add(
            parts.stats_listener.as_raw_fd(),
            TOKEN_STATS_LISTENER,
            Interest::READ,
        )?;
        poller.add(parts.waker.as_raw_fd(), TOKEN_WAKER, Interest::READ)?;
        if let Some(fault) = &parts.fault {
            // Delayed-wakeup injection rides the shim's wait hook; when
            // no plan is set the hook is never installed and the wait
            // path costs one relaxed atomic load.
            let fault = Arc::clone(fault);
            poller.set_wait_hook(Box::new(move || {
                fault.wait_fault().map(epoll::WaitFault::Delay)
            }));
        }
        let mut hello = Vec::new();
        protocol::write_hello(&mut hello, &parts.registry.infos())
            .expect("writing a hello to a Vec cannot fail");
        let max_payload = parts.registry.max_request_payload();
        Ok(EventLoop {
            poller,
            listener: Some(parts.listener),
            stats_listener: Some(parts.stats_listener),
            registry: parts.registry,
            shards: parts.shards,
            stats: parts.stats,
            waker: parts.waker,
            completions: parts.completions,
            stopping: parts.stopping,
            finishing: parts.finishing,
            conns: HashMap::new(),
            next_token: FIRST_CONN_TOKEN,
            rr: 0,
            max_payload,
            linger: parts.linger,
            max_batch: parts.max_batch,
            write_buf_cap: parts.write_buf_cap,
            sock_buf: parts.sock_buf,
            idle_timeout: parts.idle_timeout,
            fault: parts.fault,
            hello,
            started: Instant::now(),
            stopped: false,
        })
    }

    /// The poller thread body. Returns (dropping every fd) once
    /// `finishing` is set and the completion channel is drained.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        // With idle reaping on, bound the wait so the sweep runs even
        // when no fd ever becomes ready (the defining property of an
        // idle connection is that it generates no events).
        let wait_timeout = self
            .idle_timeout
            .map(|t| (t / 2).max(Duration::from_millis(1)));
        loop {
            if self.poller.wait(&mut events, wait_timeout).is_err() {
                // Persistent wait failure would spin; back off and keep
                // checking the shutdown flags.
                std::thread::sleep(Duration::from_millis(1));
            }
            for &ev in &events {
                match ev.token {
                    TOKEN_WAKER => self.waker.drain(),
                    TOKEN_LISTENER => self.accept_all(true),
                    TOKEN_STATS_LISTENER => self.accept_all(false),
                    token => self.conn_event(token, ev),
                }
            }
            self.drain_completions();
            self.reap_idle();
            if self.stopping.load(Ordering::SeqCst) && !self.stopped {
                self.enter_stopping();
            }
            if self.finishing.load(Ordering::SeqCst) {
                // Workers are joined (or abandoned) by now; route
                // whatever is left and let Drop close every socket.
                self.drain_completions();
                return;
            }
        }
    }

    /// Accepts until the listener would block.
    fn accept_all(&mut self, data_plane: bool) {
        loop {
            let accepted = {
                let listener = if data_plane {
                    self.listener.as_ref()
                } else {
                    self.stats_listener.as_ref()
                };
                let Some(listener) = listener else { return };
                listener.accept()
            };
            match accepted {
                Ok((stream, _)) => self.install_conn(stream, data_plane),
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                // Transient accept failure (fd exhaustion, aborted
                // handshake): the level trigger retries next wait.
                Err(_) => return,
            }
        }
    }

    fn install_conn(&mut self, stream: TcpStream, data_plane: bool) {
        if stream.set_nonblocking(true).is_err() {
            return; // dropping the stream closes it
        }
        let _ = stream.set_nodelay(true);
        if data_plane && self.sock_buf.is_some() {
            let _ = epoll::set_socket_buffers(stream.as_raw_fd(), self.sock_buf, self.sock_buf);
        }
        let token = self.next_token;
        self.next_token += 1;
        let mut conn = Conn {
            stream,
            rbuf: Buf::new(),
            wbuf: Buf::new(),
            interest: Interest {
                read: data_plane,
                write: true,
            },
            paused: false,
            closing: !data_plane,
            inflight: 0,
            data_plane,
            last_activity: Instant::now(),
        };
        if data_plane {
            conn.wbuf.extend(&self.hello);
            self.stats.connections.fetch_add(1, Ordering::Relaxed);
        } else {
            let report = self.stats_report();
            conn.wbuf
                .extend(b"HTTP/1.0 200 OK\r\nContent-Type: text/plain; charset=utf-8\r\n\r\n");
            conn.wbuf.extend(report.as_bytes());
        }
        if self
            .poller
            .add(conn.stream.as_raw_fd(), token, conn.interest)
            .is_err()
        {
            return; // dropping the conn closes the socket
        }
        self.conns.insert(token, conn);
        self.service_conn(token);
    }

    fn conn_event(&mut self, token: u64, ev: Event) {
        if !self.conns.contains_key(&token) {
            return; // torn down earlier in this same event batch
        }
        if ev.error {
            // Hard error / full hang-up: push out what the socket still
            // takes, then tear the whole connection down (read half
            // included — see the module docs on dead-writer teardown).
            let _ = self.flush_writes(token);
            self.drop_conn(token);
            return;
        }
        if ev.writable {
            self.service_conn(token);
        }
        if ev.readable {
            self.read_ready(token);
        }
    }

    /// Reads until the socket would block (or the connection pauses /
    /// starts closing), parsing frames as they complete. Injected faults
    /// shrink reads to one byte (`Short`), end the pass early (`Again` —
    /// the level trigger re-reports the readiness), or retry (`Intr`),
    /// exactly like their kernel-born counterparts.
    fn read_ready(&mut self, token: u64) {
        let mut chunk = [0u8; 16 * 1024];
        loop {
            let limit = match self.fault.as_ref().and_then(|f| f.on_read()) {
                Some(IoFault::Again) => break,
                Some(IoFault::Intr) => continue,
                Some(IoFault::Short) => 1,
                None => chunk.len(),
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                return;
            };
            if conn.paused || conn.closing || !conn.data_plane {
                break;
            }
            match conn.stream.read(&mut chunk[..limit]) {
                Ok(0) => {
                    conn.closing = true;
                    break;
                }
                Ok(n) => {
                    conn.rbuf.extend(&chunk[..n]);
                    self.parse_frames(token);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.drop_conn(token);
                    return;
                }
            }
        }
        self.service_conn(token);
    }

    /// Consumes every complete frame in the read buffer. Stops early
    /// when the connection pauses (write backpressure) or turns fatal
    /// (unparseable length prefix).
    fn parse_frames(&mut self, token: u64) {
        loop {
            let payload = {
                let Some(conn) = self.conns.get_mut(&token) else {
                    return;
                };
                if conn.paused || conn.closing {
                    return;
                }
                let buf = conn.rbuf.bytes();
                if buf.len() < 4 {
                    return;
                }
                let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
                if len > self.max_payload {
                    // The stream cannot be resynchronised past a garbage
                    // length prefix; stop reading, flush, close. The
                    // poisoned tail counts as one final received unit so
                    // `protocol_errors` reconciles in the global
                    // equation.
                    conn.closing = true;
                    conn.rbuf.clear();
                    self.stats.received.fetch_add(1, Ordering::Relaxed);
                    self.stats.protocol_errors.fetch_add(1, Ordering::Relaxed);
                    return;
                }
                if buf.len() < 4 + len {
                    return; // partial frame: wait for more bytes
                }
                let payload = buf[4..4 + len].to_vec();
                conn.rbuf.consume(4 + len);
                // A complete frame is productive activity; a slow-loris
                // drip of partial bytes deliberately is not.
                conn.last_activity = Instant::now();
                payload
            };
            self.handle_request(token, &payload);
        }
    }

    /// Decodes one request payload: typed rejections are answered
    /// inline, well-formed requests go to a bounded shard or get shed.
    fn handle_request(&mut self, token: u64, payload: &[u8]) {
        // `received` counts every complete frame taken off the wire —
        // each lands in exactly one outcome counter below (served /
        // overloaded / deadline_expired / rejected), so the global
        // equation reconciles at quiescence.
        self.stats.received.fetch_add(1, Ordering::Relaxed);
        let Some((model_id, id, bits)) = protocol::decode_request(payload) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            self.push_response(token, BAD_FRAME_ID, STATUS_BAD_REQUEST, 0);
            return;
        };
        let Some(num_features) = self.registry.num_features(model_id) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            self.push_response(token, id, STATUS_UNKNOWN_MODEL, 0);
            return;
        };
        let Some(row) = protocol::decode_row(bits, num_features) else {
            self.stats.rejected.fetch_add(1, Ordering::Relaxed);
            self.push_response(token, id, STATUS_BAD_REQUEST, 0);
            return;
        };
        let mut pending = Pending {
            model_id,
            id,
            conn: token,
            row,
            arrived: Instant::now(),
        };
        let n = self.shards.len();
        let start = self.rr;
        self.rr = self.rr.wrapping_add(1);
        for k in 0..n {
            match self.shards[(start + k) % n].try_push(pending) {
                Ok(()) => {
                    // Per-model `received` keeps acceptance semantics:
                    // only requests that actually entered a queue.
                    if let Some(model_stats) = self.registry.stats(model_id) {
                        model_stats.add_received(1);
                    }
                    if let Some(conn) = self.conns.get_mut(&token) {
                        conn.inflight += 1;
                    }
                    return;
                }
                Err(p) => pending = p,
            }
        }
        // Every shard full (or closed under shutdown): shed.
        self.stats.overloaded.fetch_add(1, Ordering::Relaxed);
        self.push_response(token, id, STATUS_OVERLOADED, 0);
    }

    /// Appends one response frame to a connection's write buffer and
    /// applies the slow-reader pause when the backlog passes the cap.
    fn push_response(&mut self, token: u64, id: u64, status: u8, class: u16) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return; // connection died before its answer was ready
        };
        let payload = protocol::encode_response(id, status, class);
        let mut frame = [0u8; 4 + RESPONSE_LEN];
        frame[..4].copy_from_slice(&(RESPONSE_LEN as u32).to_le_bytes());
        frame[4..].copy_from_slice(&payload);
        conn.wbuf.extend(&frame);
        if conn.data_plane && !conn.paused && conn.wbuf.len() >= self.write_buf_cap {
            conn.paused = true;
        }
    }

    /// Writes as much of the buffered output as the socket takes.
    /// Returns `false` when the connection was torn down (a dead write
    /// half kills the read half too). Injected faults shrink writes to
    /// one byte (`Short`), end the pass early (`Again` — `EPOLLOUT`
    /// interest re-arms it), or retry (`Intr`).
    fn flush_writes(&mut self, token: u64) -> bool {
        let mut dead = false;
        loop {
            let limit = match self.fault.as_ref().and_then(|f| f.on_write()) {
                Some(IoFault::Again) => break,
                Some(IoFault::Intr) => continue,
                Some(IoFault::Short) => 1,
                None => usize::MAX,
            };
            let Some(conn) = self.conns.get_mut(&token) else {
                return false;
            };
            if conn.wbuf.is_empty() {
                break;
            }
            let bytes = conn.wbuf.bytes();
            let bytes = &bytes[..bytes.len().min(limit)];
            match conn.stream.write(bytes) {
                Ok(0) => {
                    dead = true;
                    break;
                }
                Ok(n) => {
                    conn.wbuf.consume(n);
                    // Forward flush progress means the peer is draining
                    // its responses — productive activity.
                    conn.last_activity = Instant::now();
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    dead = true;
                    break;
                }
            }
        }
        if dead {
            self.drop_conn(token);
            return false;
        }
        self.conns.contains_key(&token)
    }

    /// Flush, resume paused reads when the backlog has halved, re-arm
    /// interest, and tear down when the connection is finished.
    ///
    /// Flush → resume → re-parse runs as a loop: re-parsing frames that
    /// buffered while paused can shed `STATUS_OVERLOADED` answers that
    /// push the write buffer back over its cap and re-pause the
    /// connection, and the next flush may then drain the buffer
    /// completely. Stopping there would leave a paused connection with
    /// nothing armed — no `EPOLLOUT` pending, reads off — wedged
    /// forever. Looping re-checks the resume condition after every
    /// flush. It terminates: each pass either breaks (no resume) or
    /// consumes buffered frames, and the read buffer is finite.
    fn service_conn(&mut self, token: u64) {
        loop {
            if !self.flush_writes(token) {
                return;
            }
            let resume = match self.conns.get_mut(&token) {
                Some(conn) if conn.paused && conn.wbuf.len() <= self.write_buf_cap / 2 => {
                    conn.paused = false;
                    true
                }
                Some(_) => false,
                None => return,
            };
            if !resume {
                break;
            }
            // Frames already buffered while paused parse first; the
            // level-triggered read interest re-arms below for the rest.
            self.parse_frames(token);
        }
        self.update_interest(token);
        self.maybe_teardown(token);
    }

    fn update_interest(&mut self, token: u64) {
        let Some(conn) = self.conns.get_mut(&token) else {
            return;
        };
        let desired = Interest {
            read: conn.data_plane && !conn.closing && !conn.paused,
            write: !conn.wbuf.is_empty(),
        };
        if desired != conn.interest {
            if self
                .poller
                .modify(conn.stream.as_raw_fd(), token, desired)
                .is_ok()
            {
                conn.interest = desired;
            } else {
                // A failed re-arm would leave the connection deaf or
                // spinning; neither is recoverable.
                self.drop_conn(token);
            }
        }
    }

    fn maybe_teardown(&mut self, token: u64) {
        let done = matches!(
            self.conns.get(&token),
            Some(conn) if conn.closing && conn.wbuf.is_empty() && conn.inflight == 0
        );
        if done {
            self.drop_conn(token);
        }
    }

    /// Closes data connections whose last productive activity is older
    /// than the idle timeout and that have nothing in flight: slow-loris
    /// peers dripping partial frames, clients that never read their
    /// responses (no flush progress), and plain idle sockets. No-op
    /// without [`ServeConfig::idle_timeout`](crate::ServeConfig).
    fn reap_idle(&mut self) {
        let Some(limit) = self.idle_timeout else {
            return;
        };
        let now = Instant::now();
        let stale: Vec<u64> = self
            .conns
            .iter()
            .filter(|(_, c)| {
                c.data_plane
                    && c.inflight == 0
                    && now.saturating_duration_since(c.last_activity) > limit
            })
            .map(|(&t, _)| t)
            .collect();
        for token in stale {
            self.stats.reaped.fetch_add(1, Ordering::Relaxed);
            self.drop_conn(token);
        }
    }

    fn drop_conn(&mut self, token: u64) {
        if let Some(conn) = self.conns.remove(&token) {
            let _ = self.poller.delete(conn.stream.as_raw_fd());
            // Dropping the stream closes the socket.
        }
    }

    /// Routes every queued completion into its connection's write
    /// buffer, then services each touched connection once.
    fn drain_completions(&mut self) {
        let mut touched: Vec<u64> = Vec::new();
        while let Ok(c) = self.completions.try_recv() {
            if let Some(conn) = self.conns.get_mut(&c.conn) {
                conn.inflight = conn.inflight.saturating_sub(1);
            } else {
                continue; // connection died before its answer was ready
            }
            self.push_response(c.conn, c.id, c.status, c.class);
            touched.push(c.conn);
        }
        touched.sort_unstable();
        touched.dedup();
        for token in touched {
            self.service_conn(token);
        }
    }

    /// The `stopping` transition: refuse new connections, stop reading
    /// new requests everywhere, keep flushing in-flight responses.
    fn enter_stopping(&mut self) {
        self.stopped = true;
        if let Some(listener) = self.listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        if let Some(listener) = self.stats_listener.take() {
            let _ = self.poller.delete(listener.as_raw_fd());
        }
        let tokens: Vec<u64> = self.conns.keys().copied().collect();
        for token in tokens {
            if let Some(conn) = self.conns.get_mut(&token) {
                conn.closing = true;
            }
            self.service_conn(token);
        }
    }

    /// The plain-text health report served on the stats listener.
    fn stats_report(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::with_capacity(512);
        let live = self.conns.values().filter(|c| c.data_plane).count();
        out.push_str("status ok\n");
        let _ = writeln!(out, "uptime_us {}", self.started.elapsed().as_micros());
        let _ = writeln!(out, "connections_total {}", self.stats.connections());
        let _ = writeln!(out, "connections_live {live}");
        let _ = writeln!(out, "received {}", self.stats.received());
        let _ = writeln!(out, "served {}", self.stats.served());
        let _ = writeln!(out, "rejected {}", self.stats.rejected());
        let _ = writeln!(out, "overloaded {}", self.stats.overloaded());
        let _ = writeln!(out, "deadline_expired {}", self.stats.deadline_expired());
        let _ = writeln!(out, "protocol_errors {}", self.stats.protocol_errors());
        let _ = writeln!(out, "worker_panics {}", self.stats.worker_panics());
        let _ = writeln!(out, "reaped {}", self.stats.reaped());
        let _ = writeln!(out, "batches {}", self.stats.batches());
        let _ = writeln!(out, "mean_batch {:.2}", self.stats.mean_batch());
        let _ = writeln!(out, "queue_wait_count {}", self.stats.queue_wait_count());
        let _ = writeln!(out, "queue_wait_us_sum {}", self.stats.queue_wait_us_sum());
        let _ = writeln!(out, "queue_wait_us_max {}", self.stats.queue_wait_us_max());
        let _ = writeln!(out, "workers {}", self.shards.len());
        let _ = writeln!(out, "linger_us {}", self.linger.as_micros());
        let _ = writeln!(out, "max_batch {}", self.max_batch);
        let depths: Vec<usize> = self.shards.iter().map(|s| s.depth()).collect();
        let _ = writeln!(out, "queue_depth_total {}", depths.iter().sum::<usize>());
        for (i, d) in depths.iter().enumerate() {
            let _ = writeln!(out, "queue_depth_{i} {d}");
        }
        for info in self.registry.infos() {
            if let Some(m) = self.registry.stats(info.id) {
                let _ = writeln!(
                    out,
                    "model_{} name={} backend={} received={} served={} batches={} swaps={} \
                     deadline_expired={}",
                    info.id,
                    info.name,
                    self.registry.backend_name(info.id).unwrap_or("unknown"),
                    m.received(),
                    m.served(),
                    m.batches(),
                    m.swaps(),
                    m.deadline_expired()
                );
            }
        }
        out
    }
}
