//! Thread identifiers.

use std::fmt;

/// A dense thread identifier used to index vector clocks.
///
/// Thread identifiers are assigned in order of thread creation, starting at
/// zero. The paper's prototype "does not reuse thread identifiers, so vector
/// clock sizes are proportional to *Total* [threads started]" (§5.1).
/// `pacer-core`'s PACER indexes its clocks by clock slot instead, and a
/// joined thread's slot passes to a later fork; FASTTRACK and LITERACE
/// index them by thread id.
///
/// # Examples
///
/// ```
/// use pacer_clock::ThreadId;
///
/// let t = ThreadId::new(3);
/// assert_eq!(t.index(), 3);
/// assert_eq!(t.to_string(), "t3");
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ThreadId(u32);

impl ThreadId {
    /// Creates a thread identifier from its dense index.
    pub const fn new(index: u32) -> Self {
        ThreadId(index)
    }

    /// Returns the dense index of this thread, suitable for indexing
    /// vector-clock storage.
    pub const fn index(self) -> usize {
        self.0 as usize
    }

    /// Returns the raw `u32` value.
    pub const fn raw(self) -> u32 {
        self.0
    }
}

impl fmt::Display for ThreadId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "t{}", self.0)
    }
}

impl From<u32> for ThreadId {
    fn from(raw: u32) -> Self {
        ThreadId(raw)
    }
}

impl pacer_collections::DenseKey for ThreadId {
    fn index(&self) -> usize {
        self.0 as usize
    }

    fn from_index(index: usize) -> Self {
        ThreadId(u32::try_from(index).expect("index exceeds thread-id space"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn index_round_trips() {
        for raw in [0u32, 1, 7, 1024] {
            let t = ThreadId::new(raw);
            assert_eq!(t.index(), raw as usize);
            assert_eq!(t.raw(), raw);
            assert_eq!(ThreadId::from(raw), t);
        }
    }

    #[test]
    fn display_is_compact() {
        assert_eq!(ThreadId::new(42).to_string(), "t42");
    }

    #[test]
    fn ordering_follows_index() {
        assert!(ThreadId::new(1) < ThreadId::new(2));
    }
}
