//! Elastic (skid) buffers: the register boundaries of the MemPool
//! interconnect.

use std::collections::VecDeque;

/// A register stage with elastic-buffer flow control.
///
/// This models the register + elastic buffer pairs of
/// Michelogiannakis et al. ("Elastic-buffer flow control for on-chip
/// networks", HPCA 2009), which the MemPool paper inserts "at each output of
/// the switch … to break any combinational paths crossing the switch".
///
/// The buffer separates *arrivals* (pushed during the current cycle) from
/// *stored* items: a value pushed at cycle *t* only becomes visible at the
/// head from cycle *t + 1*, after [`ElasticBuffer::commit`] is called at the
/// end of the cycle. Pops during cycle *t* free space that same cycle, so a
/// full-throughput pipeline needs capacity 2 (the classic two-slot skid
/// buffer): one slot holds the in-flight item, the second absorbs the push
/// that was already decided when backpressure arrived.
///
/// # Examples
///
/// ```
/// use mempool_noc::ElasticBuffer;
///
/// let mut reg = ElasticBuffer::new(2);
/// reg.push(7u32);
/// assert_eq!(reg.head(), None); // not visible until commit
/// reg.commit();
/// assert_eq!(reg.head(), Some(&7));
/// assert_eq!(reg.pop(), Some(7));
/// ```
#[derive(Debug, Clone)]
pub struct ElasticBuffer<T> {
    stored: VecDeque<T>,
    arrivals: VecDeque<T>,
    capacity: usize,
    /// Fault-injection gate: while set, the register neither presents a
    /// head nor accepts pushes (valid/ready forced low), modeling a
    /// transient link stall. Contents are preserved.
    stalled: bool,
    /// Lifetime count of accepted pushes — the per-link traffic counter of
    /// the observability layer. Deterministic (one increment per accepted
    /// push) and part of the checkpointed state.
    pushes: u64,
}

impl<T> ElasticBuffer<T> {
    /// Creates a buffer holding at most `capacity` items.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "elastic buffer capacity must be nonzero");
        ElasticBuffer {
            stored: VecDeque::with_capacity(capacity),
            arrivals: VecDeque::with_capacity(capacity),
            capacity,
            stalled: false,
            pushes: 0,
        }
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of items currently stored or staged.
    pub fn len(&self) -> usize {
        self.stored.len() + self.arrivals.len()
    }

    /// Whether the buffer holds no items at all (stored or staged).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Whether a push would be accepted this cycle.
    pub fn can_push(&self) -> bool {
        !self.stalled && self.len() < self.capacity
    }

    /// Stages an item for arrival; it becomes visible after [`commit`].
    ///
    /// [`commit`]: ElasticBuffer::commit
    ///
    /// # Panics
    ///
    /// Panics if the buffer is full ([`can_push`] is `false`) — callers must
    /// check readiness first, as a hardware producer would sample `ready`.
    ///
    /// [`can_push`]: ElasticBuffer::can_push
    pub fn push(&mut self, item: T) {
        assert!(self.can_push(), "push into full elastic buffer");
        self.pushes += 1;
        self.arrivals.push_back(item);
    }

    /// Lifetime count of accepted pushes (the observability layer's
    /// per-link traffic counter). Survives [`clear`](ElasticBuffer::clear).
    pub fn pushes(&self) -> u64 {
        self.pushes
    }

    /// Restores the push counter from a checkpoint.
    pub fn set_pushes(&mut self, pushes: u64) {
        self.pushes = pushes;
    }

    /// The oldest *visible* item, if any (`None` while stalled).
    pub fn head(&self) -> Option<&T> {
        if self.stalled {
            return None;
        }
        self.stored.front()
    }

    /// Removes and returns the oldest visible item (`None` while stalled).
    pub fn pop(&mut self) -> Option<T> {
        if self.stalled {
            return None;
        }
        self.stored.pop_front()
    }

    /// Fault injection: gates the register's valid/ready handshake for the
    /// current cycle. Re-assert or clear every cycle; contents survive.
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Whether the register is currently stall-gated.
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Fault injection: silently discards the oldest stored item (a lost
    /// flit), bypassing the stall gate. Returns the dropped item.
    pub fn drop_head(&mut self) -> Option<T> {
        self.stored.pop_front()
    }

    /// Fault injection: mutable access to the oldest stored item, for
    /// payload corruption. Bypasses the stall gate.
    pub fn head_mut(&mut self) -> Option<&mut T> {
        self.stored.front_mut()
    }

    /// End-of-cycle commit: staged arrivals become visible.
    pub fn commit(&mut self) {
        self.stored.append(&mut self.arrivals);
        debug_assert!(self.stored.len() <= self.capacity);
    }

    /// Drops all contents (stored and staged) and clears any stall gate.
    pub fn clear(&mut self) {
        self.stored.clear();
        self.arrivals.clear();
        self.stalled = false;
    }

    /// Iterates over the visible items, oldest first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.stored.iter()
    }

    /// Iterates over the staged (pushed-but-uncommitted) items, oldest
    /// first (checkpointing).
    pub fn iter_arrivals(&self) -> impl Iterator<Item = &T> {
        self.arrivals.iter()
    }

    /// Restores the full buffer state from a checkpoint: stored items,
    /// staged arrivals, and the stall gate. The capacity is unchanged.
    ///
    /// # Panics
    ///
    /// Panics if the combined item count exceeds the capacity.
    pub fn load(
        &mut self,
        stored: impl IntoIterator<Item = T>,
        arrivals: impl IntoIterator<Item = T>,
        stalled: bool,
    ) {
        self.stored.clear();
        self.stored.extend(stored);
        self.arrivals.clear();
        self.arrivals.extend(arrivals);
        assert!(
            self.stored.len() + self.arrivals.len() <= self.capacity,
            "loaded state exceeds buffer capacity"
        );
        self.stalled = stalled;
    }
}

/// A bank of [`ElasticBuffer`] registers that commits only what changed.
///
/// In most cycles most of a network's registers are idle. A `RegFile`
/// records which registers took a push this cycle (the *dirty list*), so
/// [`commit`](RegFile::commit) visits only those, and keeps the number of
/// occupied slots as a counter, so [`occupied`](RegFile::occupied) is O(1).
///
/// Contents change through [`push`](RegFile::push) and
/// [`pop`](RegFile::pop), which keep both up to date. Every other change —
/// stall gates, fault drops and corruption, clears, checkpoint loads — goes
/// through [`edit`](RegFile::edit), which rebuilds them afterwards.
/// Committing only the dirty registers is exactly equivalent to committing
/// every register, because a commit of a register without arrivals is a
/// no-op.
///
/// # Examples
///
/// ```
/// use mempool_noc::RegFile;
///
/// let mut row = RegFile::new(64, 2);
/// row.push(5, 7u32);
/// assert_eq!(row.occupied(), 1);
/// assert_eq!(row[5].head(), None); // not visible until commit
/// row.commit(); // touches register 5 only
/// assert_eq!(row.pop(5), Some(7));
/// assert!(row.is_idle());
/// ```
#[derive(Debug, Clone)]
pub struct RegFile<T> {
    regs: Vec<ElasticBuffer<T>>,
    /// Registers holding staged arrivals, each listed once.
    dirty: Vec<usize>,
    /// Items stored or staged across all registers.
    occupied: usize,
    /// Slots across all registers.
    slots: usize,
}

impl<T> RegFile<T> {
    /// Creates `count` empty registers of `capacity` slots each.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(count: usize, capacity: usize) -> Self {
        RegFile {
            regs: (0..count).map(|_| ElasticBuffer::new(capacity)).collect(),
            dirty: Vec::new(),
            occupied: 0,
            slots: count * capacity,
        }
    }

    /// The registers, in index order.
    pub fn regs(&self) -> &[ElasticBuffer<T>] {
        &self.regs
    }

    /// Items stored or staged across all registers (the sum of every
    /// register's [`len`](ElasticBuffer::len)).
    pub fn occupied(&self) -> usize {
        self.occupied
    }

    /// Slots across all registers (the sum of their capacities).
    pub fn slots(&self) -> usize {
        self.slots
    }

    /// Whether no register holds an item, stored or staged.
    pub fn is_idle(&self) -> bool {
        self.occupied == 0
    }

    /// Stages `item` into register `index` (see [`ElasticBuffer::push`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range or the register cannot take a
    /// push.
    pub fn push(&mut self, index: usize, item: T) {
        let reg = &mut self.regs[index];
        reg.push(item);
        if reg.arrivals.len() == 1 {
            self.dirty.push(index);
        }
        self.occupied += 1;
    }

    /// Pops the visible head of register `index` (see
    /// [`ElasticBuffer::pop`]).
    ///
    /// # Panics
    ///
    /// Panics if `index` is out of range.
    pub fn pop(&mut self, index: usize) -> Option<T> {
        let item = self.regs[index].pop();
        if item.is_some() {
            self.occupied -= 1;
        }
        item
    }

    /// End-of-cycle commit of the registers pushed since the last commit.
    pub fn commit(&mut self) {
        for index in self.dirty.drain(..) {
            self.regs[index].commit();
        }
    }

    /// Runs `f` over all registers for a change outside push and pop, then
    /// rebuilds the occupancy counter and the dirty list from what `f`
    /// left behind.
    pub fn edit<R>(&mut self, f: impl FnOnce(&mut [ElasticBuffer<T>]) -> R) -> R {
        let out = f(&mut self.regs);
        self.occupied = self.regs.iter().map(ElasticBuffer::len).sum();
        self.dirty.clear();
        self.dirty.extend(
            self.regs
                .iter()
                .enumerate()
                .filter(|(_, reg)| !reg.arrivals.is_empty())
                .map(|(index, _)| index),
        );
        out
    }
}

impl<T> std::ops::Index<usize> for RegFile<T> {
    type Output = ElasticBuffer<T>;

    fn index(&self, index: usize) -> &ElasticBuffer<T> {
        &self.regs[index]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn arrival_invisible_until_commit() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        assert!(b.head().is_none());
        assert_eq!(b.len(), 1);
        b.commit();
        assert_eq!(b.head(), Some(&1));
    }

    #[test]
    fn fifo_order() {
        let mut b = ElasticBuffer::new(4);
        b.push(1);
        b.push(2);
        b.commit();
        b.push(3);
        b.commit();
        assert_eq!(b.pop(), Some(1));
        assert_eq!(b.pop(), Some(2));
        assert_eq!(b.pop(), Some(3));
        assert_eq!(b.pop(), None);
    }

    #[test]
    fn capacity_counts_staged_items() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        b.push(2);
        assert!(!b.can_push());
        b.commit();
        assert!(!b.can_push());
        b.pop();
        assert!(b.can_push());
    }

    #[test]
    fn full_throughput_with_same_cycle_drain() {
        // Depth-2 buffer sustains one item per cycle when drained every
        // cycle: pop happens before push within a cycle.
        let mut b = ElasticBuffer::new(2);
        b.push(0u32);
        b.commit();
        for i in 1..100u32 {
            let got = b.pop().expect("one item per cycle");
            assert_eq!(got, i - 1);
            assert!(b.can_push());
            b.push(i);
            b.commit();
        }
    }

    #[test]
    #[should_panic(expected = "full elastic buffer")]
    fn push_when_full_panics() {
        let mut b = ElasticBuffer::new(1);
        b.push(1);
        b.push(2);
    }

    #[test]
    #[should_panic(expected = "capacity must be nonzero")]
    fn zero_capacity_rejected() {
        let _ = ElasticBuffer::<u32>::new(0);
    }

    #[test]
    fn push_counter_is_cumulative() {
        let mut b = ElasticBuffer::new(2);
        assert_eq!(b.pushes(), 0);
        b.push(1);
        b.commit();
        b.pop();
        b.push(2);
        b.clear();
        b.push(3);
        assert_eq!(b.pushes(), 3, "clear must not reset the traffic counter");
        b.set_pushes(7);
        assert_eq!(b.pushes(), 7);
    }

    #[test]
    fn clear_empties_everything() {
        let mut b = ElasticBuffer::new(2);
        b.push(1);
        b.commit();
        b.push(2);
        b.clear();
        assert!(b.is_empty());
        b.commit();
        assert!(b.pop().is_none());
    }
}
