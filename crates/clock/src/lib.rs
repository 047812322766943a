//! Logical-time primitives for happens-before race detection.
//!
//! This crate provides the data structures that the GENERIC, FASTTRACK, and
//! PACER detectors (Bond, Coons, McKinley, PLDI 2010) are built from:
//!
//! * [`VectorClock`] — a map from thread identifier to clock value with the
//!   pointwise partial order `⊑` and least-upper-bound join `⊔` (§2.1, §A.1
//!   of the paper).
//! * [`Epoch`] — the scalar `c@t` representation FASTTRACK uses for totally
//!   ordered accesses, packed into a single `u64` (tid in the high bits,
//!   clock in the low [`CLOCK_BITS`]) with the constant-time order `≼`
//!   against vector clocks (§2.2).
//! * [`ReadMap`] — FASTTRACK's adaptive representation for last-reader
//!   metadata: an epoch while reads are totally ordered, inflated to a
//!   sparse map for concurrent reads.
//! * [`VersionVector`] and [`VersionEpoch`] — PACER's machinery for
//!   detecting *redundant* synchronization during non-sampling periods
//!   (§3.2, §A.2).
//! * [`CowClock`] — a reference-counted, copy-on-write vector clock
//!   implementing PACER's `isShared`/`setShared`/`clone` sharing protocol
//!   (Algorithms 9–11) with explicit deep/shallow accounting hooks.
//! * [`ClockArena`] — a slab allocator that recycles clock storage so the
//!   deep-copy/clone-on-write churn of a full-rate PACER trial stops paying
//!   the allocator; each PACER detector owns one arena.
//!
//! # Examples
//!
//! ```
//! use pacer_clock::{Epoch, ThreadId, VectorClock};
//!
//! let t0 = ThreadId::new(0);
//! let t1 = ThreadId::new(1);
//!
//! let mut a = VectorClock::new();
//! a.increment(t0); // a = [1, 0]
//! let mut b = VectorClock::new();
//! b.increment(t1); // b = [0, 1]
//!
//! assert!(!a.leq(&b), "concurrent clocks are unordered");
//! b.join(&a);
//! assert!(a.leq(&b), "after joining, a ⊑ b");
//!
//! let e = Epoch::new(1, t0);
//! assert!(e.leq_clock(&b), "the epoch 1@t0 happens before b");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arena;
mod cow;
mod epoch;
mod read_map;
mod thread_id;
mod vector;
mod version;

pub use arena::ClockArena;
pub use cow::CowClock;
pub use epoch::{Epoch, CLOCK_BITS, MAX_CLOCK, TID_BITS};
pub use read_map::{ReadEntry, ReadMap};
pub use thread_id::ThreadId;
pub use vector::VectorClock;
pub use version::{VersionEpoch, VersionVector};

/// The integer type used for clock values and version numbers.
///
/// Clock values only increase, one step per release/fork/join/volatile-write
/// in a sampling period. The API keeps the full 64-bit width, but values a
/// detector can produce are bounded by [`MAX_CLOCK`] (`2^48 − 1`) so every
/// component narrows losslessly into a packed [`Epoch`]. That is far more
/// than any realistic execution consumes, and increments are still
/// *checked*: hitting the boundary is a [`ClockOverflow`] from
/// [`VectorClock::try_increment`], a debug assertion (and saturation in
/// release) from [`VectorClock::increment`] — never a silent wrap that
/// would corrupt the happens-before order.
pub type ClockValue = u64;

/// A thread's logical clock reached [`MAX_CLOCK`] and cannot advance.
///
/// Wrapping back to zero would reorder every previously recorded access
/// after the current one — silently unsound — so the overflow is surfaced
/// as a typed error instead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ClockOverflow {
    /// The thread whose component saturated.
    pub thread: ThreadId,
}

impl std::fmt::Display for ClockOverflow {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "clock overflow: thread {} reached the maximum clock value",
            self.thread
        )
    }
}

impl std::error::Error for ClockOverflow {}
