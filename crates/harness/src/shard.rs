//! First-class shards: owned state behind a bounded inbox.
//!
//! A *shard* is the unit the streaming service ([`service`](crate::service),
//! behind `pacer serve`) is built from: a worker thread that owns its
//! state outright (detector slabs, counters — never shared, never
//! locked), fed through a bounded `sync_channel` inbox, and drained by
//! returning the state when its inbox closes. The service runs each
//! session on one shard and feeds it the session's trace events, one
//! message per batch. (Batch trials need none of this: the trial engine in
//! [`parallel`](crate::parallel) has its workers claim indices from a
//! counter.)
//!
//! The bounded inbox doubles as backpressure: a producer that outruns a
//! shard blocks instead of queueing unboundedly. Mid-stream
//! synchronization — flush barriers, checkpoint points — is expressed as
//! ordinary messages carrying a reply channel, so the shard loop itself
//! stays a plain FIFO drain.
//!
//! # Supervision
//!
//! A shard worker that panics mid-drain is, by default, fatal: the panic
//! propagates through [`run_sharded`] at join. The streaming service
//! cannot afford that — one poisoned detector callback would take down
//! every live session — so it catches panics *inside* the worker loop
//! and fails only the owning session with a typed [`ShardLost`]. A unit
//! that panics before it changes any state (the `shard-panic` drill) is
//! safe to re-run, and the service retries it under the fleet engine's
//! bounded-retry discipline ([`attempt_one`](crate::resilient::attempt_one),
//! RESILIENCE.md). [`Inboxes::checked_send`] and
//! [`Inboxes::broadcast_live`] make producers robust to a shard that died
//! anyway (an organic bug outside supervision): they surface a typed
//! [`ShardDown`] instead of panicking the sending handler.

use std::sync::mpsc::{sync_channel, Receiver, SyncSender};

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

/// A shard abandoned one unit of work because it panicked — on every
/// attempt, for a unit that is retried — so the unit's owner, and only
/// it, must fail.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardLost {
    /// Panic message of the final attempt.
    pub reason: String,
    /// Attempts consumed before giving up: 1 + retries for a retried
    /// unit, 1 for a unit that is never retried.
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
