//! A priority queue for events that are mostly born in order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// An item ordered by a key it can state before it exists, so that a
/// queue can pick the item's place first and build it there.
pub(crate) trait Keyed: Ord {
    /// Orders exactly as the item does.
    type Key: Ord;

    fn key(&self) -> Self::Key;
}

/// Pops its items smallest first, exactly as one `BinaryHeap<Reverse<T>>`
/// would, without sifting the ones pushed in order. A simulation schedules
/// most events later than everything already pending, so a push that
/// orders at or after the back of `run` — sorted by construction — is
/// appended to it; any other falls through to `heap`. The smallest item is
/// the smaller of the two heads. Nothing is assumed about the pushes: one
/// that breaks the order costs what it would have cost anyway.
///
/// An item is written once and read where it lies: it is built in the
/// slot [`EventQueue::vacancy`] hands out, [`EventQueue::front`] lends
/// it, and [`EventQueue::discard_front`] or [`EventQueue::take_front`]
/// removes it.
pub(crate) struct EventQueue<T> {
    run: Ring<T>,
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Keyed> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            run: Ring::new(),
            heap: BinaryHeap::new(),
        }
    }

    /// Queues `item`. A hot path builds its item in place instead: it
    /// asks for the [`EventQueue::vacancy`] first and writes the item
    /// there, or hands it to [`EventQueue::push_to_heap`].
    pub(crate) fn push(&mut self, item: T) {
        match self.vacancy(item.key()) {
            Some(slot) => *slot = Some(item),
            None => self.push_to_heap(item),
        }
    }

    /// The empty slot at the back of the run where an item keyed `key`
    /// goes, counted in already; `None` if the item goes to the heap. The
    /// slot must be filled before the queue is used again.
    #[inline(always)]
    pub(crate) fn vacancy(&mut self, key: T::Key) -> Option<&mut Option<T>> {
        if self.run.back().is_none_or(|last| last.key() <= key) {
            Some(self.run.vacancy())
        } else {
            None
        }
    }

    /// Queues an item that orders before the back of the run.
    #[cold]
    #[inline(never)]
    pub(crate) fn push_to_heap(&mut self, item: T) {
        self.heap.push(Reverse(item));
    }

    /// True if the heap's head, not the run's, is the smallest item.
    #[inline(always)]
    fn heap_first(&self) -> bool {
        match (self.heap.peek(), self.run.front()) {
            (Some(Reverse(h)), Some(r)) => h < r,
            (h, _) => h.is_some(),
        }
    }

    /// The smallest item, left in place.
    #[inline(always)]
    pub(crate) fn front(&self) -> Option<&T> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(h)| h)
        } else {
            self.run.front()
        }
    }

    /// Drops the smallest item where it lies.
    #[inline(always)]
    pub(crate) fn discard_front(&mut self) {
        if self.heap_first() {
            self.heap.pop();
        } else {
            self.run.discard_front();
        }
    }

    /// Removes the smallest item and returns it.
    #[inline]
    pub(crate) fn take_front(&mut self) -> Option<T> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(h)| h)
        } else {
            self.run.take_front()
        }
    }

    /// Drops every item, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
    }
}

/// A FIFO over a power-of-two array of slots. A push makes room first
/// and then hands out the empty slot, so the caller writes its item
/// straight into it; `Option<T>` costs no space where `T` has a niche.
struct Ring<T> {
    slots: Vec<Option<T>>,
    /// Slot of the front item.
    head: usize,
    len: usize,
}

impl<T> Ring<T> {
    fn new() -> Self {
        Ring {
            slots: Vec::new(),
            head: 0,
            len: 0,
        }
    }

    #[inline(always)]
    fn slot(&self, i: usize) -> usize {
        (self.head + i) & (self.slots.len() - 1)
    }

    #[inline(always)]
    fn front(&self) -> Option<&T> {
        self.slots.get(self.head)?.as_ref()
    }

    #[inline(always)]
    fn back(&self) -> Option<&T> {
        match self.len {
            0 => None,
            n => self.slots[self.slot(n - 1)].as_ref(),
        }
    }

    /// Makes room for one more item and returns its (empty) slot.
    #[inline(always)]
    fn vacancy(&mut self) -> &mut Option<T> {
        if self.len == self.slots.len() {
            self.grow();
        }
        let at = self.slot(self.len);
        self.len += 1;
        let slot = &mut self.slots[at];
        debug_assert!(slot.is_none());
        // Already empty. Emptying it in so many words shows the compiler
        // that writing it drops nothing, so the item is built in place.
        *slot = None;
        slot
    }

    #[inline(always)]
    fn discard_front(&mut self) {
        if self.len > 0 {
            // `take`, not `= None`: the assignment compiles to a copy of a
            // whole `None` built on the stack.
            drop(self.slots[self.head].take());
            self.head = self.slot(1);
            self.len -= 1;
        }
    }

    #[inline]
    fn take_front(&mut self) -> Option<T> {
        let item = self.slots.get_mut(self.head)?.take()?;
        self.head = self.slot(1);
        self.len -= 1;
        Some(item)
    }

    /// Doubles the slots (to at least 8), moving the items to the front of
    /// the new array in order.
    #[cold]
    #[inline(never)]
    fn grow(&mut self) {
        let cap = (2 * self.slots.len()).max(8);
        let mut slots = Vec::with_capacity(cap);
        slots.extend((0..self.len).map(|i| {
            let at = self.slot(i);
            self.slots[at].take()
        }));
        slots.resize_with(cap, || None);
        self.slots = slots;
        self.head = 0;
    }

    fn clear(&mut self) {
        while self.len > 0 {
            self.discard_front();
        }
        self.head = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::VecDeque;

    impl Keyed for (u64, usize) {
        type Key = Self;

        fn key(&self) -> Self {
            *self
        }
    }

    impl Keyed for u32 {
        type Key = Self;

        fn key(&self) -> Self {
            *self
        }
    }

    proptest! {
        /// Any interleaving of pushes and removals yields exactly what one
        /// `BinaryHeap` yields, whether the front is taken or read in place
        /// and discarded. Items are `(time, seq)` with `seq` unique, as
        /// every caller's are; times come from a small range around a clock
        /// that often stands still, so equal times (decided by `seq`),
        /// in-order appends and out-of-order pushes are all common.
        /// Inverting the head comparison fails this.
        #[test]
        fn pops_in_single_heap_order(
            steps in proptest::collection::vec(0u64..32, 1..300),
        ) {
            let mut queue = EventQueue::new();
            let mut single = BinaryHeap::new();
            let mut now = 0u64;
            for (seq, step) in steps.into_iter().enumerate() {
                // One draw → take, discard, or push this far ahead of the
                // clock.
                let (kind, ahead) = (step % 4, step / 4);
                if kind == 0 {
                    let expect = single.pop().map(|Reverse(e)| e);
                    prop_assert_eq!(queue.front(), expect.as_ref());
                    if ahead % 2 == 0 {
                        prop_assert_eq!(queue.take_front(), expect);
                    } else {
                        queue.discard_front();
                    }
                } else {
                    now += u64::from(kind == 3);
                    queue.push((now + ahead, seq));
                    single.push(Reverse((now + ahead, seq)));
                }
                prop_assert_eq!(queue.run.len + queue.heap.len(), single.len());
            }
            while let Some(Reverse(expect)) = single.pop() {
                prop_assert_eq!(queue.front(), Some(&expect));
                prop_assert_eq!(queue.take_front(), Some(expect));
            }
            prop_assert!(queue.front().is_none() && queue.take_front().is_none());
        }

        /// The ring is a `VecDeque` used as a FIFO: any mix of pushes,
        /// takes, discards and clears — through growth from empty, with
        /// the head wrapped round the end of the slots, and after a clear
        /// that keeps the slots — leaves the same items in the same order.
        #[test]
        fn ring_is_a_fifo(steps in proptest::collection::vec(0u8..100, 1..600)) {
            let mut ring = Ring::new();
            let mut model = VecDeque::new();
            for (i, step) in steps.into_iter().enumerate() {
                match step {
                    0..=54 => {
                        *ring.vacancy() = Some(i);
                        model.push_back(i);
                    }
                    55..=74 => prop_assert_eq!(ring.take_front(), model.pop_front()),
                    75..=98 => {
                        prop_assert_eq!(ring.front(), model.front());
                        ring.discard_front();
                        model.pop_front();
                    }
                    _ => {
                        ring.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(ring.len, model.len());
                prop_assert_eq!((ring.front(), ring.back()), (model.front(), model.back()));
                prop_assert!(ring.slots.len().is_power_of_two() || ring.slots.is_empty());
                let live = ring.slots.iter().filter(|slot| slot.is_some()).count();
                prop_assert_eq!(live, model.len(), "no slot outlives its item");
            }
            let drained: Vec<_> = std::iter::from_fn(|| ring.take_front()).collect();
            prop_assert_eq!(drained, Vec::from(model));
        }
    }

    #[test]
    fn in_order_pushes_never_reach_the_heap() {
        let mut queue = EventQueue::new();
        for i in [1u32, 2, 2, 5] {
            queue.push(i);
        }
        assert!(queue.heap.is_empty());
        queue.push(3);
        assert_eq!((queue.run.len, queue.heap.len()), (4, 1));
        assert_eq!(
            std::iter::from_fn(|| queue.take_front()).collect::<Vec<_>>(),
            [1, 2, 2, 3, 5]
        );
        queue.push(9);
        queue.clear();
        assert!(queue.front().is_none() && queue.take_front().is_none());
    }
}
