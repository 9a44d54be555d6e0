//! The bounded, sharded micro-batching queues between the event loop and
//! the engine workers.
//!
//! Each worker owns exactly one [`Shard`]. The poller thread distributes
//! decoded requests round-robin with [`Shard::try_push`] — which **never
//! blocks and never grows past the shard's capacity**: a push into a
//! full (or closed) shard hands the request back, and the caller answers
//! `STATUS_OVERLOADED` instead of queueing unbounded memory. Keeping one
//! producer-side syscall thread and N single-consumer shards means the
//! mutexes are uncontended in the common case; the condvar exists only
//! to park an idle worker.

use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

use poetbin_bits::BitVec;

/// One parked request: the decoded feature row plus everything needed to
/// route the prediction back to its originating connection.
#[derive(Debug)]
pub(crate) struct Pending {
    /// Registry id of the model this request is aimed at.
    pub model_id: u16,
    /// Client-chosen request id, echoed back in the response.
    pub id: u64,
    /// Event-loop token of the originating connection.
    pub conn: u64,
    /// The decoded feature row.
    pub row: BitVec,
    /// When the event loop decoded the request — the anchor for the
    /// deadline-aware linger, the deadline, and the queue-wait stats.
    pub arrived: Instant,
}

struct ShardState {
    queue: VecDeque<Pending>,
    open: bool,
}

/// One worker's bounded pending queue with work-conserving, adaptive
/// draining.
///
/// With a zero linger (the server default) [`Shard::pop_batch`] never
/// waits once a request is queued: a worker that finds one request serves
/// it alone at once, and a worker returning from a tape pass drains the
/// whole backlog that queued meanwhile (up to `max_batch`) as one batch.
/// Batch size thus follows the load without holding anyone back.
///
/// An opt-in positive linger is anchored to the **oldest queued
/// request's arrival time**, not to the moment the worker woke: a worker
/// that was busy evaluating the previous batch has already "spent" its
/// linger and serves the backlog immediately, while a lone request on an
/// idle worker waits out the window for lane-mates. No request is ever
/// held in the queue longer than the linger bound by batching alone.
pub(crate) struct Shard {
    state: Mutex<ShardState>,
    arrived: Condvar,
    cap: usize,
}

impl Shard {
    /// An open shard holding at most `cap` requests.
    pub(crate) fn new(cap: usize) -> Shard {
        assert!(cap > 0, "a shard must hold at least one request");
        Shard {
            state: Mutex::new(ShardState {
                queue: VecDeque::with_capacity(cap.min(4096)),
                open: true,
            }),
            arrived: Condvar::new(),
            cap,
        }
    }

    /// Parks one request for the owning worker's next batch, or hands it
    /// back when the shard is full or closed — the caller sheds it with
    /// a typed `STATUS_OVERLOADED` response. Never blocks.
    pub(crate) fn try_push(&self, pending: Pending) -> Result<(), Pending> {
        let mut state = self.state.lock().unwrap();
        if !state.open || state.queue.len() >= self.cap {
            return Err(pending);
        }
        state.queue.push_back(pending);
        drop(state);
        self.arrived.notify_one();
        Ok(())
    }

    /// Closes the shard: blocked and future `pop_batch` calls drain any
    /// remaining requests, then return `false`; pushes bounce.
    pub(crate) fn close(&self) {
        self.state.lock().unwrap().open = false;
        self.arrived.notify_all();
    }

    /// Queue depth right now (stats/diagnostics only — stale by the time
    /// the caller reads it).
    pub(crate) fn depth(&self) -> usize {
        self.state.lock().unwrap().queue.len()
    }

    /// Blocks for the next batch, draining up to `max_batch` requests
    /// into `out` (cleared first). Returns `false` — and drains nothing —
    /// only once the shard is closed *and* empty.
    ///
    /// The first request is waited for indefinitely; once one is in hand
    /// a zero `linger` drains at once, and a positive one waits only until
    /// `oldest.arrived + linger` for the block to fill before serving a
    /// partial batch.
    ///
    /// With a per-request `deadline`, drained requests that have already
    /// aged past `arrived + deadline` are diverted into `expired`
    /// (cleared first) instead of `out`: the caller sheds them with
    /// `STATUS_DEADLINE_EXCEEDED` rather than spending engine time on
    /// answers nobody is still waiting for. A `true` return can therefore
    /// leave `out` empty while `expired` is not.
    pub(crate) fn pop_batch(
        &self,
        max_batch: usize,
        linger: Duration,
        deadline: Option<Duration>,
        out: &mut Vec<Pending>,
        expired: &mut Vec<Pending>,
    ) -> bool {
        out.clear();
        expired.clear();
        let mut state = self.state.lock().unwrap();
        loop {
            while state.queue.is_empty() {
                if !state.open {
                    return false;
                }
                state = self.arrived.wait(state).unwrap();
            }
            if state.queue.len() >= max_batch || linger.is_zero() || !state.open {
                break;
            }
            // Deadline-aware: the window is measured from when the head
            // request arrived, so queue time from batching is bounded by
            // `linger` no matter how late the worker got here.
            let fill_by = state.queue.front().expect("non-empty").arrived + linger;
            loop {
                let now = Instant::now();
                if now >= fill_by || state.queue.len() >= max_batch || !state.open {
                    break;
                }
                let (next, timeout) = self.arrived.wait_timeout(state, fill_by - now).unwrap();
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
            // Defensive: never return an empty "batch" (the queue cannot
            // drain under a single-consumer shard, but the invariant is
            // cheap to keep).
            if !state.queue.is_empty() {
                break;
            }
        }
        let take = state.queue.len().min(max_batch);
        match deadline {
            None => out.extend(state.queue.drain(..take)),
            Some(limit) => {
                let now = Instant::now();
                for p in state.queue.drain(..take) {
                    if now.saturating_duration_since(p.arrived) > limit {
                        expired.push(p);
                    } else {
                        out.push(p);
                    }
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    fn pending(id: u64) -> Pending {
        Pending {
            model_id: 0,
            id,
            conn: 0,
            row: BitVec::zeros(4),
            arrived: Instant::now(),
        }
    }

    #[test]
    fn drains_in_fifo_order_up_to_max_batch() {
        let q = Shard::new(64);
        for id in 0..5 {
            q.try_push(pending(id)).expect("open and not full");
        }
        let mut out = Vec::new();
        assert!(q.pop_batch(3, Duration::ZERO, None, &mut out, &mut Vec::new()));
        assert_eq!(out.iter().map(|p| p.id).collect::<Vec<_>>(), [0, 1, 2]);
        assert!(q.pop_batch(3, Duration::ZERO, None, &mut out, &mut Vec::new()));
        assert_eq!(out.iter().map(|p| p.id).collect::<Vec<_>>(), [3, 4]);
        assert_eq!(q.depth(), 0);
    }

    #[test]
    fn full_shard_bounces_the_push_back() {
        let q = Shard::new(3);
        for id in 0..3 {
            q.try_push(pending(id)).expect("under capacity");
        }
        let bounced = q.try_push(pending(99)).expect_err("full shard must bounce");
        assert_eq!(bounced.id, 99, "the rejected request comes back intact");
        assert_eq!(q.depth(), 3, "a bounced push must not grow the queue");
        // Draining frees capacity again.
        let mut out = Vec::new();
        assert!(q.pop_batch(64, Duration::ZERO, None, &mut out, &mut Vec::new()));
        assert_eq!(out.len(), 3);
        q.try_push(pending(100)).expect("space after drain");
    }

    #[test]
    fn close_drains_leftovers_then_reports_empty_and_bounces_pushes() {
        let q = Shard::new(64);
        q.try_push(pending(9)).expect("open");
        q.close();
        assert!(
            q.try_push(pending(10)).is_err(),
            "a closed shard must hand the request back, not drop it silently"
        );
        let mut out = Vec::new();
        assert!(q.pop_batch(
            64,
            Duration::from_millis(50),
            None,
            &mut out,
            &mut Vec::new()
        ));
        assert_eq!(out.len(), 1);
        assert!(!q.pop_batch(
            64,
            Duration::from_millis(50),
            None,
            &mut out,
            &mut Vec::new()
        ));
        assert!(out.is_empty());
    }

    #[test]
    fn linger_coalesces_requests_arriving_apart() {
        let q = Arc::new(Shard::new(64));
        q.try_push(pending(1)).expect("open");
        let q2 = Arc::clone(&q);
        let pusher = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(5));
            q2.try_push(pending(2)).expect("open");
        });
        let mut out = Vec::new();
        assert!(q.pop_batch(
            64,
            Duration::from_millis(500),
            None,
            &mut out,
            &mut Vec::new()
        ));
        // The second request arrived well inside the linger window, so one
        // batch carries both.
        assert_eq!(out.len(), 2);
        pusher.join().unwrap();
    }

    #[test]
    fn linger_is_anchored_to_arrival_not_to_the_pop() {
        let q = Shard::new(64);
        q.try_push(pending(1)).expect("open");
        // Simulate a worker that was busy past the linger window: the
        // deadline (arrival + 20ms) is already behind us, so the pop must
        // not wait at all.
        std::thread::sleep(Duration::from_millis(25));
        let start = Instant::now();
        let mut out = Vec::new();
        assert!(q.pop_batch(
            64,
            Duration::from_millis(20),
            None,
            &mut out,
            &mut Vec::new()
        ));
        assert_eq!(out.len(), 1);
        assert!(
            start.elapsed() < Duration::from_millis(15),
            "an already-expired linger must serve immediately, waited {:?}",
            start.elapsed()
        );
    }

    #[test]
    fn full_block_skips_the_linger() {
        let q = Shard::new(128);
        for id in 0..64 {
            q.try_push(pending(id)).expect("open");
        }
        let start = Instant::now();
        let mut out = Vec::new();
        // A pathological linger must not delay an already-full block.
        assert!(q.pop_batch(64, Duration::from_secs(5), None, &mut out, &mut Vec::new()));
        assert_eq!(out.len(), 64);
        assert!(start.elapsed() < Duration::from_secs(1));
    }

    #[test]
    fn deadline_partitions_stale_requests_into_expired() {
        let q = Shard::new(64);
        // Two stale requests, then two fresh ones.
        for id in 0..2 {
            let mut p = pending(id);
            p.arrived = Instant::now() - Duration::from_millis(50);
            q.try_push(p).expect("open");
        }
        for id in 2..4 {
            q.try_push(pending(id)).expect("open");
        }
        let (mut out, mut expired) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(
            64,
            Duration::ZERO,
            Some(Duration::from_millis(10)),
            &mut out,
            &mut expired,
        ));
        assert_eq!(
            expired.iter().map(|p| p.id).collect::<Vec<_>>(),
            [0, 1],
            "aged-out requests divert to expired"
        );
        assert_eq!(
            out.iter().map(|p| p.id).collect::<Vec<_>>(),
            [2, 3],
            "fresh requests still batch"
        );
    }

    #[test]
    fn all_expired_returns_true_with_empty_batch() {
        let q = Shard::new(64);
        let mut p = pending(7);
        p.arrived = Instant::now() - Duration::from_secs(1);
        q.try_push(p).expect("open");
        let (mut out, mut expired) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(
            64,
            Duration::ZERO,
            Some(Duration::from_millis(1)),
            &mut out,
            &mut expired,
        ));
        assert!(out.is_empty());
        assert_eq!(expired.len(), 1);
        assert_eq!(q.depth(), 0, "expired requests leave the queue");
    }

    #[test]
    fn generous_deadline_expires_nothing() {
        let q = Shard::new(64);
        q.try_push(pending(1)).expect("open");
        let (mut out, mut expired) = (Vec::new(), Vec::new());
        assert!(q.pop_batch(
            64,
            Duration::ZERO,
            Some(Duration::from_secs(60)),
            &mut out,
            &mut expired,
        ));
        assert_eq!(out.len(), 1);
        assert!(expired.is_empty());
    }

    #[test]
    fn blocked_worker_wakes_on_close() {
        let q = Arc::new(Shard::new(64));
        let q2 = Arc::clone(&q);
        let worker = std::thread::spawn(move || {
            let mut out = Vec::new();
            q2.pop_batch(
                64,
                Duration::from_millis(1),
                None,
                &mut out,
                &mut Vec::new(),
            )
        });
        std::thread::sleep(Duration::from_millis(5));
        q.close();
        assert!(!worker.join().unwrap());
    }
}
