//! First-class shards: owned state behind a bounded inbox.
//!
//! A *shard* is the unit both concurrent engines in this crate are built
//! from: a worker thread that owns its state outright (detector slabs,
//! result buffers — never shared, never locked), fed through a bounded
//! `sync_channel` inbox, and drained by returning the state when its
//! inbox closes. The batch trial engine ([`parallel`](crate::parallel))
//! feeds shards trial indices; the streaming service
//! ([`service`](crate::service)) runs each session on one shard and feeds
//! it the session's trace events, one message per batch.
//!
//! The bounded inbox doubles as backpressure: a producer that outruns a
//! shard blocks (or diverts, with [`Inboxes::send_balanced`]) instead of
//! queueing unboundedly. Mid-stream synchronization — flush barriers,
//! checkpoint points — is expressed as ordinary messages carrying a reply
//! channel, so the shard loop itself stays a plain FIFO drain.
//!
//! # Supervision
//!
//! A shard worker that panics mid-drain is, by default, fatal: the panic
//! propagates through [`run_sharded`] at join. The streaming service
//! cannot afford that — one poisoned detector callback would take down
//! every live session — so [`Supervisor`] provides the bounded-restart
//! discipline from RESILIENCE.md *inside* the worker loop: each unit of
//! work runs under `catch_unwind`; on panic the caller-supplied rebuild
//! hook reconstructs the shard's state deterministically (the service
//! replays each session's retained event batches) and the unit is retried,
//! until the per-unit attempt budget is exhausted and the unit's owner
//! fails with a typed [`ShardLost`]. [`Inboxes::checked_send`] and
//! [`Inboxes::broadcast_live`] make producers robust to a shard that died
//! anyway (an organic bug outside supervision): they surface a typed
//! [`ShardDown`] instead of panicking the sending handler.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};

use crate::resilient::panic_message;

/// The send half of every shard inbox, handed to the feed closure of
/// [`run_sharded`]. Dropping it closes all inboxes, which is what ends
/// the shard workers.
pub struct Inboxes<M> {
    senders: Vec<SyncSender<M>>,
}

impl<M: Send> Inboxes<M> {
    /// Sends `msg` to one shard, blocking while its inbox is full. A dead
    /// shard is reported as a typed [`ShardDown`] instead of a panic, so
    /// one dead worker can never wedge or kill the accept loop.
    ///
    /// # Errors
    ///
    /// [`ShardDown`] when the shard worker terminated before its inbox
    /// closed.
    pub fn checked_send(&self, shard: usize, msg: M) -> Result<(), ShardDown> {
        self.senders[shard]
            .send(msg)
            .map_err(|_| ShardDown { shard })
    }

    /// Sends a copy of `msg` to every *live* shard, in shard-index
    /// order, skipping dead ones; returns how many copies were
    /// delivered. Callers using a reply channel as a barrier must wait
    /// for exactly this many replies.
    pub fn broadcast_live(&self, msg: M) -> usize
    where
        M: Clone,
    {
        let mut delivered = 0;
        for shard in 0..self.senders.len() {
            if self.senders[shard].send(msg.clone()).is_ok() {
                delivered += 1;
            }
        }
        delivered
    }

    /// Sends `msg` to `preferred`, or to the next shard (cyclically) with
    /// a free inbox slot when it is full — dynamic load balancing for
    /// feeds where any shard may take any message. Spins with a yield
    /// when every inbox is full.
    pub fn send_balanced(&self, preferred: usize, msg: M) {
        let n = self.senders.len();
        let mut msg = msg;
        loop {
            for k in 0..n {
                let shard = (preferred + k) % n;
                match self.senders[shard].try_send(msg) {
                    Ok(()) => return,
                    Err(TrySendError::Full(m)) => msg = m,
                    Err(TrySendError::Disconnected(_)) => {
                        panic!("shard {shard} terminated before its inbox closed")
                    }
                }
            }
            std::thread::yield_now();
        }
    }
}

/// Runs `shards` shard workers on scoped threads, feeds them from the
/// calling thread, and returns every shard's final state **in shard-index
/// order** along with the feed's own result.
///
/// Each worker runs `worker(shard_index, inbox)` to completion; the
/// conventional shape is a FIFO drain over the inbox that returns the
/// shard's owned state. `feed` receives the [`Inboxes`] by value and runs
/// on the calling thread; when it returns, the inboxes drop, the workers
/// see end-of-stream, and their states are joined in index order — so
/// any merge the caller performs over the returned `Vec` is deterministic
/// regardless of thread scheduling.
///
/// `capacity` bounds each inbox in messages (0 = rendezvous): the
/// backpressure depth.
///
/// A panic inside a worker or the feed propagates to the caller, exactly
/// like `std::thread::scope`.
///
/// # Panics
///
/// Panics if `shards` is zero, or to propagate a worker/feed panic.
pub fn run_sharded<M, S, T>(
    shards: usize,
    capacity: usize,
    worker: impl Fn(usize, Receiver<M>) -> S + Sync,
    feed: impl FnOnce(Inboxes<M>) -> T,
) -> (Vec<S>, T)
where
    M: Send,
    S: Send,
{
    assert!(shards > 0, "need at least one shard");
    std::thread::scope(|scope| {
        let worker = &worker;
        let mut senders = Vec::with_capacity(shards);
        let mut handles = Vec::with_capacity(shards);
        for shard in 0..shards {
            let (tx, rx) = sync_channel(capacity);
            senders.push(tx);
            handles.push(scope.spawn(move || worker(shard, rx)));
        }
        let fed = feed(Inboxes { senders });
        let states = handles
            .into_iter()
            .map(|h| match h.join() {
                Ok(state) => state,
                Err(panic) => std::panic::resume_unwind(panic),
            })
            .collect();
        (states, fed)
    })
}

/// A shard worker terminated before its inbox closed, as reported to a
/// producer that must survive it ([`Inboxes::checked_send`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ShardDown {
    /// Index of the dead shard.
    pub shard: usize,
}

impl std::fmt::Display for ShardDown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "shard {} terminated before its inbox closed", self.shard)
    }
}

impl std::error::Error for ShardDown {}

/// A supervised shard abandoned one unit of work: every attempt (the
/// original plus the rebuild-and-retry replays) panicked, so the unit's
/// owner — and only it — must fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLost {
    /// Panic message of the final attempt.
    pub reason: String,
    /// Attempts consumed before giving up (1 + retries).
    pub attempts: u32,
}

impl std::fmt::Display for ShardLost {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "shard lost after {} attempt(s): {}",
            self.attempts, self.reason
        )
    }
}

impl std::error::Error for ShardLost {}

/// Bounded-restart supervisor for a shard worker's drain loop.
///
/// [`supervise`](Supervisor::supervise) runs one unit of work (typically:
/// apply one event to the shard's state) under `catch_unwind`. On panic
/// the shard's state is assumed poisoned; the caller's `rebuild` hook
/// reconstructs it — deterministically, e.g. by replaying retained event
/// batches through fresh detectors — and the unit is retried with the next
/// attempt index (so deterministic fault plans with `limit=1` stop
/// firing and the retry succeeds). A unit whose every attempt panics is
/// abandoned with a typed [`ShardLost`]; the worker loop carries on with
/// its other sessions, so the blast radius of a poisoned unit is exactly
/// its owner.
///
/// Restart accounting is cumulative across units ([`restarts`]); the
/// per-unit attempt budget is fixed at construction.
///
/// [`restarts`]: Supervisor::restarts
pub struct Supervisor {
    retries_per_unit: u32,
    restarts: u64,
}

impl Supervisor {
    /// A supervisor giving each unit `retries_per_unit` replays after its
    /// first panicking attempt.
    pub fn new(retries_per_unit: u32) -> Supervisor {
        Supervisor {
            retries_per_unit,
            restarts: 0,
        }
    }

    /// Total panics caught (= rebuilds performed) so far, across units.
    pub fn restarts(&self) -> u64 {
        self.restarts
    }

    /// Runs `work(state, attempt)` under `catch_unwind`, rebuilding via
    /// `rebuild(state)` and retrying on panic, up to the per-unit budget.
    ///
    /// `rebuild` itself must not panic; if it does, the panic propagates
    /// (callers that can tolerate partial rebuilds should catch inside
    /// the hook and drop only the unrecoverable pieces).
    ///
    /// # Errors
    ///
    /// [`ShardLost`] carrying the final panic message once every attempt
    /// panicked.
    pub fn supervise<S, T>(
        &mut self,
        state: &mut S,
        mut work: impl FnMut(&mut S, u32) -> T,
        mut rebuild: impl FnMut(&mut S),
    ) -> Result<T, ShardLost> {
        let mut reason = String::new();
        for attempt in 0..=self.retries_per_unit {
            match catch_unwind(AssertUnwindSafe(|| work(state, attempt))) {
                Ok(value) => return Ok(value),
                Err(payload) => {
                    self.restarts += 1;
                    reason = panic_message(payload.as_ref());
                    rebuild(state);
                }
            }
        }
        Err(ShardLost {
            reason,
            attempts: self.retries_per_unit + 1,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn states_return_in_shard_order() {
        let (states, ()) = run_sharded(
            4,
            8,
            |shard, rx: Receiver<u64>| {
                let sum: u64 = rx.iter().sum();
                (shard, sum)
            },
            |inboxes| {
                for v in 0..100u64 {
                    assert_eq!(inboxes.checked_send((v % 4) as usize, v), Ok(()));
                }
            },
        );
        let shards: Vec<_> = states.iter().map(|(s, _)| *s).collect();
        assert_eq!(shards, vec![0, 1, 2, 3]);
        let total: u64 = states.iter().map(|(_, sum)| sum).sum();
        assert_eq!(total, (0..100).sum::<u64>());
    }

    #[test]
    fn broadcast_reaches_every_shard() {
        let (counts, ()) = run_sharded(
            3,
            4,
            |_, rx: Receiver<u32>| rx.iter().count(),
            |inboxes| {
                for _ in 0..5 {
                    assert_eq!(inboxes.broadcast_live(7), 3);
                }
            },
        );
        assert_eq!(counts, vec![5, 5, 5]);
    }

    #[test]
    fn balanced_send_diverts_from_full_inboxes() {
        // One shard sleeps; with capacity 1 the feed must divert most
        // messages to the others rather than blocking on the sleeper.
        let (counts, ()) = run_sharded(
            2,
            1,
            |shard, rx: Receiver<u32>| {
                let mut n = 0;
                for _ in rx {
                    if shard == 0 {
                        std::thread::sleep(std::time::Duration::from_millis(5));
                    }
                    n += 1;
                }
                n
            },
            |inboxes| {
                for _ in 0..40 {
                    inboxes.send_balanced(0, 1);
                }
            },
        );
        assert_eq!(counts[0] + counts[1], 40);
        assert!(counts[1] > counts[0], "idle shard should absorb the load");
    }

    #[test]
    fn reply_channels_make_flush_barriers() {
        #[derive(Clone)]
        enum Msg {
            Add(u64),
            Flush(SyncSender<u64>),
        }
        let (_, mid) = run_sharded(
            2,
            4,
            |_, rx: Receiver<Msg>| {
                let mut acc = 0;
                for msg in rx {
                    match msg {
                        Msg::Add(v) => acc += v,
                        Msg::Flush(reply) => {
                            let _ = reply.send(acc);
                        }
                    }
                }
            },
            |inboxes| {
                assert_eq!(inboxes.checked_send(0, Msg::Add(2)), Ok(()));
                assert_eq!(inboxes.checked_send(1, Msg::Add(3)), Ok(()));
                let (tx, rx) = sync_channel(2);
                let delivered = inboxes.broadcast_live(Msg::Flush(tx));
                assert_eq!(delivered, 2);
                rx.iter().take(delivered).sum::<u64>()
            },
        );
        assert_eq!(mid, 5, "flush observes everything sent before it");
    }

    #[test]
    fn supervisor_rebuilds_and_retries_then_gives_up() {
        let mut sup = Supervisor::new(2);

        // A unit that panics on its first two attempts: the rebuild hook
        // resets the state, the third attempt succeeds.
        let mut state = 10u32;
        let out = sup.supervise(
            &mut state,
            |s, attempt| {
                *s += 1;
                if attempt < 2 {
                    panic!("flaky unit (attempt {attempt})");
                }
                *s
            },
            |s| *s = 10,
        );
        assert_eq!(
            out,
            Ok(11),
            "two rebuilds reset the state, then a clean attempt"
        );
        assert_eq!(sup.restarts(), 2);

        // A unit that always panics exhausts its budget and is lost;
        // the supervisor (and its state) remain usable afterwards.
        let err = sup
            .supervise(
                &mut state,
                |_s: &mut u32, _attempt| -> u32 { panic!("hopeless") },
                |s| *s = 10,
            )
            .unwrap_err();
        assert_eq!(err.attempts, 3);
        assert!(err.reason.contains("hopeless"));
        assert_eq!(sup.restarts(), 5);
        let ok = sup.supervise(&mut state, |s, _| *s, |_| {});
        assert_eq!(ok, Ok(10), "a lost unit does not poison the next one");
    }

    #[test]
    fn checked_send_reports_dead_shards_without_panicking() {
        use std::sync::atomic::{AtomicUsize, Ordering};

        // Shard 1 returns early (its inbox closes while the feed still
        // holds senders), so checked sends to it must surface ShardDown
        // and broadcast_live must skip it — without panicking the feed.
        let delivered = AtomicUsize::new(usize::MAX);
        let (_, ()) = run_sharded(
            2,
            4,
            |shard, rx: Receiver<u32>| {
                for v in rx {
                    if shard == 1 && v == 99 {
                        return; // simulate the worker dying
                    }
                }
            },
            |inboxes| {
                assert_eq!(inboxes.checked_send(0, 1), Ok(()));
                let _ = inboxes.checked_send(1, 99);
                let dead = loop {
                    match inboxes.checked_send(1, 1) {
                        Ok(()) => std::thread::yield_now(),
                        Err(down) => break down,
                    }
                };
                assert_eq!(dead, ShardDown { shard: 1 });
                assert!(dead.to_string().contains("shard 1"));
                delivered.store(inboxes.broadcast_live(2), Ordering::Relaxed);
            },
        );
        assert_eq!(delivered.load(Ordering::Relaxed), 1);
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn worker_panics_propagate() {
        let _ = run_sharded(
            2,
            1,
            |shard, rx: Receiver<u32>| {
                for _ in rx {
                    if shard == 1 {
                        panic!("boom");
                    }
                }
            },
            |inboxes| inboxes.checked_send(1, 1).expect("shard 1 is live"),
        );
    }
}
