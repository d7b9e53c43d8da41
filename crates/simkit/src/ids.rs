//! Dense simulation-local identifiers and bit-packed membership sets.
//!
//! A simulated world addresses its nodes by a dense index. Carrying that
//! index as a `usize` wastes half of every event payload on 64-bit targets
//! and makes per-node membership sets (subscriber interest, neighborhood
//! presence, dirty flags) cost a hash entry each. [`NodeId`] pins the index
//! to 32 bits — four billion nodes is comfortably past the million-node
//! regime the simulator targets — and [`BitSet`] stores node-indexed
//! membership at one bit per node, so a membership test is a single
//! load+mask instead of a hash probe or tree walk.

use std::fmt;

/// Dense identifier of a node inside one simulated world.
///
/// `NodeId` is an *index*, not a protocol-level identity: the pub/sub layer
/// keeps its own `ProcessId` (a wire-format `u64`). Worlds assign node ids
/// contiguously from zero, which is what lets positions, wake times, timer
/// slots and membership bitsets live in parallel arrays indexed by
/// [`NodeId::index`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct NodeId(pub u32);

impl NodeId {
    /// Creates an id from a dense array index.
    ///
    /// # Panics
    ///
    /// Panics if `index` exceeds `u32::MAX` — a population no real scenario
    /// reaches (the design ceiling is one million nodes).
    pub fn from_index(index: usize) -> Self {
        NodeId(u32::try_from(index).expect("node index exceeds u32"))
    }

    /// The dense array index of this node.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl From<u32> for NodeId {
    fn from(v: u32) -> Self {
        NodeId(v)
    }
}

impl From<NodeId> for usize {
    fn from(id: NodeId) -> usize {
        id.index()
    }
}

/// A fixed-stride bitset over `u64` words: membership in one load+mask.
///
/// Grows on demand (in whole words) and never shrinks, so a warmed set
/// performs no allocation in steady state. Indices are plain `usize` so the
/// set serves both [`NodeId`]-indexed membership and other dense domains.
///
/// # Examples
///
/// ```
/// use simkit::BitSet;
///
/// let mut set = BitSet::new();
/// set.insert(3);
/// set.insert(130);
/// assert!(set.contains(3));
/// assert!(!set.contains(4));
/// assert_eq!(set.iter().collect::<Vec<_>>(), vec![3, 130]);
/// set.remove(3);
/// assert_eq!(set.len(), 1);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct BitSet {
    words: Vec<u64>,
    /// Number of set bits; kept incrementally so `len` is O(1).
    len: usize,
}

impl BitSet {
    /// Creates an empty set.
    pub fn new() -> Self {
        BitSet::default()
    }

    /// Creates an empty set pre-sized for indices below `capacity`.
    pub fn with_capacity(capacity: usize) -> Self {
        BitSet {
            words: vec![0; capacity.div_ceil(64)],
            len: 0,
        }
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no bit is set.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// `true` if `index` is a member. Out-of-range indices are absent, not
    /// errors.
    pub fn contains(&self, index: usize) -> bool {
        self.words
            .get(index / 64)
            .is_some_and(|word| word & (1 << (index % 64)) != 0)
    }

    /// Inserts `index`, growing the word array if needed. Returns `true` if
    /// the index was newly inserted.
    pub fn insert(&mut self, index: usize) -> bool {
        let word = index / 64;
        if word >= self.words.len() {
            self.words.resize(word + 1, 0);
        }
        let mask = 1 << (index % 64);
        let newly = self.words[word] & mask == 0;
        self.words[word] |= mask;
        self.len += usize::from(newly);
        newly
    }

    /// Removes `index`. Returns `true` if it was a member.
    pub fn remove(&mut self, index: usize) -> bool {
        let Some(word) = self.words.get_mut(index / 64) else {
            return false;
        };
        let mask = 1 << (index % 64);
        let was = *word & mask != 0;
        *word &= !mask;
        self.len -= usize::from(was);
        was
    }

    /// Clears every bit, keeping the word allocation.
    pub fn clear(&mut self) {
        self.words.fill(0);
        self.len = 0;
    }

    /// Iterates the members in ascending index order.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        self.words.iter().enumerate().flat_map(|(at, &word)| {
            let mut bits = word;
            std::iter::from_fn(move || {
                if bits == 0 {
                    return None;
                }
                let bit = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                Some(at * 64 + bit)
            })
        })
    }
}

impl FromIterator<usize> for BitSet {
    fn from_iter<I: IntoIterator<Item = usize>>(iter: I) -> Self {
        let mut set = BitSet::new();
        for index in iter {
            set.insert(index);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn node_id_round_trips_through_index() {
        let id = NodeId::from_index(42);
        assert_eq!(id, NodeId(42));
        assert_eq!(id.index(), 42);
        assert_eq!(usize::from(id), 42);
        assert_eq!(NodeId::from(7u32), NodeId(7));
        assert_eq!(NodeId(9).to_string(), "n9");
    }

    #[test]
    fn empty_set_has_no_members() {
        let set = BitSet::new();
        assert!(set.is_empty());
        assert_eq!(set.len(), 0);
        assert!(!set.contains(0));
        assert!(!set.contains(1_000_000));
        assert_eq!(set.iter().count(), 0);
    }

    #[test]
    fn insert_remove_track_membership_and_len() {
        let mut set = BitSet::with_capacity(128);
        assert!(set.insert(0));
        assert!(set.insert(63));
        assert!(set.insert(64));
        assert!(!set.insert(64), "duplicate insert reports false");
        assert_eq!(set.len(), 3);
        assert!(set.contains(0) && set.contains(63) && set.contains(64));
        assert!(set.remove(63));
        assert!(!set.remove(63), "double remove reports false");
        assert!(!set.remove(4096), "out-of-range remove is a no-op");
        assert_eq!(set.len(), 2);
    }

    #[test]
    fn iter_is_ascending_and_matches_reference_set() {
        let indices = [517usize, 0, 63, 64, 65, 128, 1, 200];
        let set: BitSet = indices.iter().copied().collect();
        let mut reference: Vec<usize> = indices.to_vec();
        reference.sort_unstable();
        assert_eq!(set.iter().collect::<Vec<_>>(), reference);
    }

    #[test]
    fn clear_keeps_capacity_but_drops_members() {
        let mut set: BitSet = (0..200).collect();
        assert_eq!(set.len(), 200);
        set.clear();
        assert!(set.is_empty());
        assert!(!set.contains(100));
        assert!(set.insert(100));
    }
}
