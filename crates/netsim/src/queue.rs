//! A priority queue for events that are mostly born in order.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Pops its items smallest first, exactly as one `BinaryHeap<Reverse<T>>`
/// would, without sifting the ones pushed in order. A simulation schedules
/// most events later than everything already pending, so a push that
/// orders at or after the back of `run` — sorted by construction — is
/// appended to it; any other falls through to `heap`. The smallest item is
/// the smaller of the two heads. Nothing is assumed about the pushes: one
/// that breaks the order costs what it would have cost anyway.
pub(crate) struct EventQueue<T> {
    run: VecDeque<T>,
    heap: BinaryHeap<Reverse<T>>,
}

impl<T: Ord> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            run: VecDeque::new(),
            heap: BinaryHeap::new(),
        }
    }

    #[inline]
    pub(crate) fn push(&mut self, item: T) {
        if self.run.back().is_none_or(|last| *last <= item) {
            self.run.push_back(item);
        } else {
            self.heap.push(Reverse(item));
        }
    }

    /// True if the heap's head, not the run's, is the smallest item.
    #[inline]
    fn heap_first(&self) -> bool {
        match (self.heap.peek(), self.run.front()) {
            (Some(Reverse(h)), Some(r)) => h < r,
            (h, _) => h.is_some(),
        }
    }

    #[inline]
    pub(crate) fn peek(&self) -> Option<&T> {
        if self.heap_first() {
            self.heap.peek().map(|Reverse(h)| h)
        } else {
            self.run.front()
        }
    }

    #[inline]
    pub(crate) fn pop(&mut self) -> Option<T> {
        if self.heap_first() {
            self.heap.pop().map(|Reverse(h)| h)
        } else {
            self.run.pop_front()
        }
    }

    /// Drops every item, keeping the storage.
    pub(crate) fn clear(&mut self) {
        self.run.clear();
        self.heap.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Any interleaving of pushes and pops yields exactly what one
        /// `BinaryHeap` yields. Items are `(time, seq)` with `seq` unique,
        /// as every caller's are; times come from a small range around a
        /// clock that often stands still, so equal times (decided by
        /// `seq`), in-order appends and out-of-order pushes are all common.
        /// Inverting the head comparison fails this.
        #[test]
        fn pops_in_single_heap_order(
            steps in proptest::collection::vec(0u64..24, 1..300),
        ) {
            let mut queue = EventQueue::new();
            let mut single = BinaryHeap::new();
            let mut now = 0u64;
            for (seq, step) in steps.into_iter().enumerate() {
                // One draw → pop, or push this far ahead of the clock.
                let (kind, ahead) = (step % 4, step / 4);
                if kind == 0 {
                    prop_assert_eq!(queue.peek(), single.peek().map(|Reverse(e)| e));
                    prop_assert_eq!(queue.pop(), single.pop().map(|Reverse(e)| e));
                } else {
                    now += u64::from(kind == 3);
                    queue.push((now + ahead, seq));
                    single.push(Reverse((now + ahead, seq)));
                }
                prop_assert_eq!(queue.run.len() + queue.heap.len(), single.len());
            }
            while let Some(Reverse(expect)) = single.pop() {
                prop_assert_eq!(queue.peek(), Some(&expect));
                prop_assert_eq!(queue.pop(), Some(expect));
            }
            prop_assert!(queue.peek().is_none() && queue.pop().is_none());
        }
    }

    #[test]
    fn in_order_pushes_never_reach_the_heap() {
        let mut queue = EventQueue::new();
        for i in [1, 2, 2, 5] {
            queue.push(i);
        }
        assert!(queue.heap.is_empty());
        queue.push(3);
        assert_eq!((queue.run.len(), queue.heap.len()), (4, 1));
        assert_eq!(
            std::iter::from_fn(|| queue.pop()).collect::<Vec<_>>(),
            [1, 2, 2, 3, 5]
        );
        queue.push(9);
        queue.clear();
        assert!(queue.peek().is_none() && queue.pop().is_none());
    }
}
