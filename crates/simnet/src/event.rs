//! A time-ordered event queue with stable FIFO tie-breaking and keyed
//! entries that can be replaced or withdrawn in place.

use std::marker::PhantomData;

use crate::time::SimTime;

/// Index slot of unkeyed entries: a sink the sifts write like any other
/// slot, so moving an entry never branches on whether it is keyed. Key
/// `k` lives in slot `k + 1`.
const NO_KEY: usize = 0;
/// Position-index value of a key with nothing pending.
const ABSENT: usize = usize::MAX;

/// How a queue reads the key an entry is filed under from its payload.
pub trait KeyOf<T> {
    /// The key `payload` is filed under, if any.
    fn key_of(payload: &T) -> Option<usize>;
}

/// The key reader of a queue whose entries are never keyed.
impl<T> KeyOf<T> for () {
    fn key_of(_: &T) -> Option<usize> {
        None
    }
}

/// A pending event: payload `T` scheduled at a [`SimTime`]. Its key is
/// read from the payload, so an entry is no larger than its payload
/// plus the two ordering words.
///
/// Events at equal times pop in insertion order (`seq`), which keeps the
/// simulation deterministic regardless of heap internals.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Entry<T> {
    time: SimTime,
    seq: u64,
    payload: T,
}

impl<T> Entry<T> {
    /// `(time, seq)` as one integer: ordering two entries is then a single
    /// comparison the sifts can use without a branch.
    fn rank(&self) -> u128 {
        (u128::from(self.time.as_nanos()) << 64) | u128::from(self.seq)
    }

    fn before(&self, other: &Self) -> bool {
        self.rank() < other.rank()
    }

    /// Slot in the key index: `NO_KEY`, or key + 1.
    fn slot<K: KeyOf<T>>(&self) -> usize {
        K::key_of(&self.payload).map_or(NO_KEY, |k| k + 1)
    }
}

/// A min-queue of `(SimTime, T)` events with stable ordering for ties.
///
/// A queue can also file entries under a key its [`KeyOf`] reader takes
/// from the payload (the engine keys a flow's completion on its slab
/// slot): at most one entry per key is pending, pushing a keyed payload
/// replaces it and, inside the crate, `remove_key` withdraws it. Keyed
/// and unkeyed entries share one heap and one insertion counter, so ties
/// between them pop in push order either way. Payloads are `Copy`: the
/// heap moves entries by value.
///
/// ```
/// use datagrid_simnet::event::EventQueue;
/// use datagrid_simnet::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.push(SimTime::from_nanos(20), "late");
/// q.push(SimTime::from_nanos(10), "early");
/// assert_eq!(q.pop(), Some((SimTime::from_nanos(10), "early")));
/// ```
#[derive(Debug, Clone)]
pub struct EventQueue<T, K = ()> {
    /// Binary min-heap on `(time, seq)`.
    heap: Vec<Entry<T>>,
    /// Key slot -> heap index of its pending entry, or `ABSENT`; slot
    /// `NO_KEY` is the unkeyed sink.
    pos: Vec<usize>,
    next_seq: u64,
    keys: PhantomData<K>,
}

impl<T, K> Default for EventQueue<T, K> {
    fn default() -> Self {
        EventQueue {
            heap: Vec::new(),
            pos: vec![ABSENT],
            next_seq: 0,
            keys: PhantomData,
        }
    }
}

impl<T: Copy> EventQueue<T> {
    /// Creates an empty queue of unkeyed entries.
    pub fn new() -> Self {
        EventQueue::default()
    }
}

impl<T: Copy, K: KeyOf<T>> EventQueue<T, K> {
    fn take_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedules `payload` at `time`. A keyed payload becomes the one
    /// entry pending under its key, replacing any entry already there;
    /// either way the entry ties after everything pushed before it.
    pub fn push(&mut self, time: SimTime, payload: T) {
        let seq = self.take_seq();
        let e = Entry { time, seq, payload };
        let slot = e.slot::<K>();
        match self.pos.get(slot) {
            Some(&i) if slot != NO_KEY && i != ABSENT => {
                self.heap[i] = e;
                self.restore(i);
            }
            _ => {
                if slot >= self.pos.len() {
                    self.pos.resize(slot + 1, ABSENT);
                }
                self.insert(e);
            }
        }
    }

    /// Sizes the key index for keys `0..n`, and the heap for one more
    /// entry per key on top of what is queued now, so keyed pushes below
    /// `n` allocate nothing. Grows only; call it as the key space grows.
    pub(crate) fn reserve_keys(&mut self, n: usize) {
        if n + 1 > self.pos.len() {
            self.heap.reserve(n);
            self.pos.resize(n + 1, ABSENT);
        }
    }

    /// Withdraws the entry pending under `key`, if any, returning it.
    pub(crate) fn remove_key(&mut self, key: usize) -> Option<(SimTime, T)> {
        let i = *self.pos.get(key + 1)?;
        if i == ABSENT {
            return None;
        }
        let e = self.remove_at(i);
        Some((e.time, e.payload))
    }

    /// `true` while an entry is pending under `key`.
    #[cfg(test)]
    pub(crate) fn contains_key(&self, key: usize) -> bool {
        self.pos.get(key + 1).is_some_and(|&i| i != ABSENT)
    }

    /// Removes and returns the earliest event (clearing its key).
    pub fn pop(&mut self) -> Option<(SimTime, T)> {
        let last = self.heap.pop()?;
        let top = if self.heap.is_empty() {
            last
        } else {
            // Bottom-up: walk the hole from the root to a leaf along the
            // earlier children, then sift the old last entry up from
            // there. It came from the bottom and usually belongs there,
            // so this costs one comparison per level instead of two.
            let heap = &mut self.heap[..];
            let pos = &mut self.pos[..];
            let top = heap[0];
            let n = heap.len();
            let mut i = 0;
            let mut child = 1;
            while child + 1 < n {
                child += usize::from(heap[child + 1].before(&heap[child]));
                place::<T, K>(heap, pos, i, heap[child]);
                i = child;
                child = 2 * i + 1;
            }
            if child + 1 == n {
                place::<T, K>(heap, pos, i, heap[child]);
                i = child;
            }
            heap[i] = last;
            sift_up::<T, K>(heap, pos, i);
            top
        };
        self.pos[top.slot::<K>()] = ABSENT;
        Some((top.time, top.payload))
    }

    /// The time of the earliest event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Releases the key index's capacity above the largest key still
    /// pending. Pending entries are untouched; the index regrows on
    /// demand.
    pub(crate) fn shrink_key_index(&mut self) {
        while self.pos.len() > 1 && self.pos.last() == Some(&ABSENT) {
            self.pos.pop();
        }
        self.pos.shrink_to_fit();
    }

    fn insert(&mut self, entry: Entry<T>) {
        self.heap.push(entry);
        let last = self.heap.len() - 1;
        sift_up::<T, K>(&mut self.heap, &mut self.pos, last);
    }

    fn remove_at(&mut self, i: usize) -> Entry<T> {
        let e = self.heap.swap_remove(i);
        self.pos[e.slot::<K>()] = ABSENT;
        if i < self.heap.len() {
            self.restore(i);
        }
        e
    }

    /// Re-establishes heap order after the entry at `i` changed.
    fn restore(&mut self, i: usize) {
        if sift_up::<T, K>(&mut self.heap, &mut self.pos, i) == i {
            sift_down::<T, K>(&mut self.heap, &mut self.pos, i);
        }
    }
}

/// Writes `e` to heap position `i` and records it in the key index.
fn place<T, K: KeyOf<T>>(heap: &mut [Entry<T>], pos: &mut [usize], i: usize, e: Entry<T>) {
    pos[e.slot::<K>()] = i;
    heap[i] = e;
}

/// Moves the entry at `i` toward the root, shifting the entries it
/// passes down one level; returns where it settled.
fn sift_up<T: Copy, K: KeyOf<T>>(heap: &mut [Entry<T>], pos: &mut [usize], mut i: usize) -> usize {
    let moving = heap[i];
    while i > 0 {
        let parent = (i - 1) / 2;
        if !moving.before(&heap[parent]) {
            break;
        }
        place::<T, K>(heap, pos, i, heap[parent]);
        i = parent;
    }
    place::<T, K>(heap, pos, i, moving);
    i
}

/// Moves the entry at `i` toward the leaves, shifting the earlier child
/// up at each level it passes.
fn sift_down<T: Copy, K: KeyOf<T>>(heap: &mut [Entry<T>], pos: &mut [usize], mut i: usize) {
    let moving = heap[i];
    let n = heap.len();
    loop {
        let left = 2 * i + 1;
        if left >= n {
            break;
        }
        let child = left + usize::from(left + 1 < n && heap[left + 1].before(&heap[left]));
        if !heap[child].before(&moving) {
            break;
        }
        place::<T, K>(heap, pos, i, heap[child]);
        i = child;
    }
    place::<T, K>(heap, pos, i, moving);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(n: u64) -> SimTime {
        SimTime::from_nanos(n)
    }

    fn drain<T: Copy, K: KeyOf<T>>(q: &mut EventQueue<T, K>) -> Vec<(SimTime, T)> {
        std::iter::from_fn(|| q.pop()).collect()
    }

    /// Test payloads `(key, value)`, filed under `key` when it is set.
    struct FirstField;

    impl<V> KeyOf<(Option<usize>, V)> for FirstField {
        fn key_of(payload: &(Option<usize>, V)) -> Option<usize> {
            payload.0
        }
    }

    type Keyed<V> = EventQueue<(Option<usize>, V), FirstField>;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(t(30), 'c');
        q.push(t(10), 'a');
        q.push(t(20), 'b');
        assert_eq!(q.pop(), Some((t(10), 'a')));
        assert_eq!(q.pop(), Some((t(20), 'b')));
        assert_eq!(q.pop(), Some((t(30), 'c')));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn ties_pop_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(t(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((t(5), i)));
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        q.push(t(7), ());
        assert_eq!(q.peek_time(), Some(t(7)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn clone_preserves_order() {
        let mut q = EventQueue::new();
        q.push(t(2), "b");
        q.push(t(1), "a");
        q.push(t(1), "a2");
        let mut c = q.clone();
        assert_eq!(c.pop(), Some((t(1), "a")));
        assert_eq!(c.pop(), Some((t(1), "a2")));
        assert_eq!(c.pop(), Some((t(2), "b")));
        // Original untouched.
        assert_eq!(q.len(), 3);
    }

    #[test]
    fn keyed_push_replaces_and_takes_a_fresh_tie_position() {
        let mut q = Keyed::default();
        q.push(t(5), (Some(0), "k0 first"));
        q.push(t(5), (None, "plain"));
        // Same instant, re-pushed: it now ties after "plain".
        q.push(t(5), (Some(0), "k0 again"));
        q.push(t(9), (Some(1), "k1 late"));
        q.push(t(1), (Some(1), "k1 early"));
        assert_eq!(q.len(), 3);
        let order: Vec<_> = drain(&mut q)
            .into_iter()
            .map(|(at, (_, v))| (at, v))
            .collect();
        assert_eq!(
            order,
            vec![(t(1), "k1 early"), (t(5), "plain"), (t(5), "k0 again")]
        );
        assert!(!q.contains_key(0) && !q.contains_key(1));
    }

    #[test]
    fn remove_key_withdraws_only_that_entry() {
        let mut q = Keyed::default();
        for k in 0..8 {
            q.push(t(10 + k as u64), (Some(k), k));
        }
        q.push(t(12), (None, 100));
        assert_eq!(q.remove_key(3), Some((t(13), (Some(3), 3))));
        assert_eq!(q.remove_key(3), None);
        assert_eq!(q.remove_key(99), None);
        assert!(!q.contains_key(3) && q.contains_key(4));
        let order: Vec<usize> = drain(&mut q).into_iter().map(|(_, (_, v))| v).collect();
        assert_eq!(order, vec![0, 1, 2, 100, 4, 5, 6, 7]);
    }

    #[test]
    fn keyed_queue_matches_a_stale_entry_reference() {
        // Reference model: every push appends (time, seq, key, generation);
        // a keyed entry is live while its generation is the key's latest.
        // Popping the keyed queue must yield exactly the reference's live
        // entries in (time, seq) order.
        let mut q = Keyed::default();
        let mut reference: Vec<(u64, u64, Option<usize>, u64)> = Vec::new();
        let mut generation = [0u64; 16];
        let mut live = [false; 16];
        let mut seq = 0u64;
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = |m: u64| {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state % m
        };
        let mut popped = Vec::new();
        let mut expected = Vec::new();
        for _ in 0..4000 {
            let key = usize::from(u8::try_from(next(16)).unwrap());
            let time = next(50);
            match next(5) {
                0 => {
                    q.push(t(time), (None, seq));
                    reference.push((time, seq, None, 0));
                }
                1 => {
                    q.remove_key(key);
                    generation[key] += 1;
                    live[key] = false;
                    continue;
                }
                2 => {
                    // Pop the earliest live entry from both.
                    reference.retain(|&(_, _, k, g)| k.is_none_or(|k| g == generation[k]));
                    reference.sort_unstable();
                    if let Some(&(rt, rs, rk, _)) = reference.first() {
                        reference.remove(0);
                        if let Some(k) = rk {
                            live[k] = false;
                            generation[k] += 1;
                        }
                        expected.push((rt, rs));
                    }
                    if let Some((pt, (_, ps))) = q.pop() {
                        popped.push((pt.as_nanos(), ps));
                    }
                    continue;
                }
                _ => {
                    generation[key] += 1;
                    live[key] = true;
                    q.push(t(time), (Some(key), seq));
                    reference.push((time, seq, Some(key), generation[key]));
                }
            }
            seq += 1;
            for (k, &l) in live.iter().enumerate() {
                assert_eq!(q.contains_key(k), l);
            }
        }
        reference.retain(|&(_, _, k, g)| k.is_none_or(|k| g == generation[k]));
        reference.sort_unstable();
        assert_eq!(q.len(), reference.len());
        expected.extend(reference.iter().map(|&(rt, rs, _, _)| (rt, rs)));
        popped.extend(
            drain(&mut q)
                .into_iter()
                .map(|(pt, (_, ps))| (pt.as_nanos(), ps)),
        );
        assert_eq!(popped, expected);
    }

    #[test]
    fn shrink_key_index_keeps_pending_keys() {
        let mut q = Keyed::default();
        q.push(t(1), (Some(2), 'a'));
        q.push(t(2), (Some(500), 'b'));
        q.remove_key(500);
        q.shrink_key_index();
        assert_eq!(q.pos.len(), 4, "sink slot plus keys 0..=2");
        assert!(q.pos.capacity() < 500);
        assert!(q.contains_key(2));
        q.push(t(0), (Some(700), 'c'));
        assert_eq!(
            drain(&mut q),
            vec![(t(0), (Some(700), 'c')), (t(1), (Some(2), 'a'))]
        );
    }
}
