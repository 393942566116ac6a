//! The workspace's one bounded memo of pure functions.
//!
//! STEM memoizes three things, each a pure function of its key: a
//! group's deterministic timing core and a workload's ground-truth total
//! (`gpu-sim`'s `SimCache`), and a workload's profile → ROOT clustering
//! (`stem-core`'s `StemRootSampler`). [`Memo`] is the one implementation
//! behind all three, with one policy:
//!
//! * **Budget.** Every entry has a cost: 1 for a memo bounded by entry
//!   count, its bytes for one bounded by size. Past the budget the memo
//!   evicts whole entries, oldest computation first, but never the newest,
//!   so a caller always gets to reuse what it just computed.
//! * **One compute per key at a time.** Callers of the same key wait for
//!   one compute and share its value; different keys compute in parallel.
//! * **No failure is kept.** A compute that returns `Err` or panics
//!   leaves nothing behind, so the next caller of that key computes
//!   again; a caller already waiting on it takes the key over.
//! * **Poisoning.** A panic under the memo's own table lock clears the
//!   table, which later misses rebuild.
//!
//! Each value is a pure function of its key, so none of this can move a
//! result bit: an evicted, failed or cleared entry is recomputed to the
//! same value. Only the counters move.

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};

use crate::lock_unpoisoned;

/// A thread-safe memo from keys to values, bounded by a cost budget (see
/// the module docs for the policy).
#[derive(Debug)]
pub struct Memo<K, V> {
    budget: usize,
    cost: fn(&V) -> usize,
    table: Mutex<Table<K, V>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

/// The memo's slots, and the computed ones in computation order.
#[derive(Debug)]
struct Table<K, V> {
    slots: HashMap<K, Slot<V>>,
    /// Keys of computed slots with their costs, oldest first.
    order: VecDeque<(K, usize)>,
    /// The sum of `order`'s costs.
    cost: usize,
}

/// One key's memoized value, or the gate of its compute in flight.
#[derive(Debug)]
enum Slot<V> {
    Ready(V),
    /// Locked by the caller computing the key; its other callers wait on
    /// it, then take the value or compute in turn.
    Computing(Arc<Mutex<()>>),
}

impl<V> Slot<V> {
    fn computing() -> Self {
        Slot::Computing(Arc::default())
    }
}

/// Removes a key's gate when its compute ends without a value (it failed
/// or panicked) and no other caller waits on it, so nothing of a failure
/// stays in the memo. A caller waiting on the gate takes the key over.
struct Vacate<'a, K: Copy + Eq + Hash, V: Clone> {
    memo: &'a Memo<K, V>,
    key: K,
    gate: &'a Arc<Mutex<()>>,
}

impl<K: Copy + Eq + Hash, V: Clone> Drop for Vacate<'_, K, V> {
    fn drop(&mut self) {
        let mut table = self.memo.table();
        let ours = matches!(table.slots.get(&self.key),
            Some(Slot::Computing(g)) if Arc::ptr_eq(g, self.gate));
        // Only the table and this caller hold the gate: nobody waits.
        if ours && Arc::strong_count(self.gate) == 2 {
            table.slots.remove(&self.key);
        }
    }
}

impl<K: Copy + Eq + Hash, V: Clone> Memo<K, V> {
    /// An empty memo holding entries whose costs sum to at most `budget`,
    /// apart from the newest entry, which it keeps whatever its cost.
    /// `cost` prices one value; `|_| 1` bounds the entry count.
    pub fn new(budget: usize, cost: fn(&V) -> usize) -> Self {
        Memo {
            budget,
            cost,
            table: Mutex::new(Table {
                slots: HashMap::new(),
                order: VecDeque::new(),
                cost: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The value memoized for `key`, or `compute`'s, which is memoized
    /// when it succeeds. `compute` runs outside the table lock, and at
    /// most one caller of `key` runs it at a time: the others wait and
    /// take its value, or run their own compute if it failed or panicked.
    ///
    /// # Errors
    ///
    /// Whatever `compute` returns; the error is not memoized.
    pub fn get_or_compute<E>(
        &self,
        key: K,
        compute: impl FnOnce() -> Result<V, E>,
    ) -> Result<V, E> {
        loop {
            let mut table = self.table();
            let gate = match table.slots.entry(key).or_insert_with(Slot::computing) {
                Slot::Ready(value) => return Ok(self.hit(value)),
                Slot::Computing(gate) => Arc::clone(gate),
            };
            drop(table);
            let _turn = lock_unpoisoned(&gate);
            // While this caller waited, the one before it may have left a
            // value, or the key may have been evicted and another caller
            // may have opened a new gate: then go round again.
            match self.table().slots.get(&key) {
                Some(Slot::Ready(value)) => return Ok(self.hit(value)),
                Some(Slot::Computing(g)) if Arc::ptr_eq(g, &gate) => {}
                _ => continue,
            }
            let _vacate = Vacate {
                memo: self,
                key,
                gate: &gate,
            };
            let value = compute()?;
            self.misses.fetch_add(1, Ordering::Relaxed);
            self.admit(key, V::clone(&value));
            return Ok(value);
        }
    }

    /// Counts a hit on `value` and returns a copy of it.
    fn hit(&self, value: &V) -> V {
        self.hits.fetch_add(1, Ordering::Relaxed);
        V::clone(value)
    }

    /// Stores a computed value and counts it against the budget, then
    /// evicts the oldest entries while the memo is over it, keeping the
    /// newest. An evicted value stays alive for as long as a caller holds
    /// it. A key that is already memoized (its compute raced a table
    /// cleared on poisoning) is not counted twice.
    fn admit(&self, key: K, value: V) {
        let cost = (self.cost)(&value);
        let mut table = self.table();
        if let Some(Slot::Ready(_)) = table.slots.insert(key, Slot::Ready(value)) {
            return;
        }
        table.order.push_back((key, cost));
        table.cost += cost;
        while table.cost > self.budget && table.order.len() > 1 {
            if let Some((oldest, freed)) = table.order.pop_front() {
                table.slots.remove(&oldest);
                table.cost -= freed;
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// The table, cleared if a panic poisoned its lock: the panic may have
    /// left slots, order and cost disagreeing.
    fn table(&self) -> MutexGuard<'_, Table<K, V>> {
        self.table.lock().unwrap_or_else(|poisoned| {
            self.table.clear_poison();
            let mut table = poisoned.into_inner();
            table.slots.clear();
            table.order.clear();
            table.cost = 0;
            table
        })
    }

    /// Number of memoized values.
    pub fn len(&self) -> usize {
        self.table().order.len()
    }

    /// True if nothing is memoized.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lookups served from the memo.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Computes that succeeded and were memoized.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Entries evicted to keep within the budget.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::convert::Infallible;
    use std::sync::mpsc;

    fn ok(v: u64) -> Result<u64, Infallible> {
        Ok(v)
    }

    #[test]
    fn a_count_budget_evicts_the_oldest_computation() {
        let memo: Memo<u32, u64> = Memo::new(2, |_| 1);
        for key in 0..3 {
            memo.get_or_compute(key, || ok(key as u64)).ok();
        }
        assert_eq!((memo.len(), memo.evictions(), memo.misses()), (2, 1, 3));
        // Key 0 was computed first, so it went; 1 is a hit.
        assert_eq!(memo.get_or_compute(1, || ok(99)), Ok(1));
        assert_eq!(memo.get_or_compute(0, || ok(99)), Ok(99));
        assert_eq!((memo.hits(), memo.evictions()), (1, 2));
    }

    #[test]
    fn a_byte_budget_counts_each_entry_at_its_cost() {
        let memo: Memo<u32, Arc<Vec<u8>>> = Memo::new(10, |v| v.len());
        let bytes = |n: usize| -> Result<Arc<Vec<u8>>, Infallible> { Ok(Arc::new(vec![0; n])) };
        memo.get_or_compute(0, || bytes(4)).ok();
        memo.get_or_compute(1, || bytes(6)).ok();
        assert_eq!((memo.len(), memo.evictions()), (2, 0), "4 + 6 fits 10");
        memo.get_or_compute(2, || bytes(3)).ok();
        // 13 > 10: the 4-byte entry goes, leaving 6 + 3.
        assert_eq!((memo.len(), memo.evictions()), (2, 1));
        memo.get_or_compute(3, || bytes(8)).ok();
        // 17 > 10, then 11 > 10: both older entries go.
        assert_eq!((memo.len(), memo.evictions()), (1, 3));
    }

    #[test]
    fn the_newest_entry_is_kept_over_budget() {
        let memo: Memo<u32, u64> = Memo::new(0, |_| 1);
        for key in [7, 8, 7] {
            memo.get_or_compute(key, || ok(key as u64)).ok();
            // An immediate repeat reuses the entry just computed.
            assert_eq!(memo.get_or_compute(key, || ok(0)), Ok(key as u64));
            assert_eq!(memo.len(), 1);
        }
        assert_eq!((memo.hits(), memo.misses()), (3, 3));
    }

    #[test]
    fn a_failure_is_not_kept() {
        let memo: Memo<u32, f64> = Memo::new(4, |_| 1);
        assert_eq!(memo.get_or_compute(7, || Err("rejected")), Err("rejected"));
        assert!(memo.is_empty());
        assert!(memo.table().slots.is_empty(), "no gate is left");
        assert_eq!(memo.misses(), 0, "a failed compute is not a miss");
        assert_eq!(memo.get_or_compute(7, || Ok::<_, ()>(1.5)), Ok(1.5));
        assert_eq!(memo.get_or_compute(7, || Ok::<_, ()>(9.0)), Ok(1.5));
        assert_eq!((memo.misses(), memo.hits()), (1, 1));
    }

    #[test]
    fn concurrent_callers_of_one_key_share_one_compute() {
        let memo = &Memo::<u32, u64>::new(usize::MAX, |_| 1);
        let (started, wait_started) = mpsc::channel();
        let (release, wait_release) = mpsc::channel();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                memo.get_or_compute(5, || {
                    started.send(()).ok();
                    wait_release.recv().ok();
                    ok(42)
                })
            });
            wait_started.recv().ok();
            let waiters: Vec<_> = (0..3)
                .map(|_| scope.spawn(|| memo.get_or_compute(5, || ok(0))))
                .collect();
            // The table and all four callers hold the key's gate: the
            // three late callers are blocked on the compute in flight.
            while gate_holders(memo, 5) < 5 {
                std::thread::yield_now();
            }
            release.send(()).ok();
            for caller in waiters.into_iter().chain([first]) {
                assert_eq!(caller.join().ok(), Some(Ok(42)));
            }
        });
        assert_eq!((memo.misses(), memo.hits()), (1, 3));
    }

    #[test]
    fn a_poisoned_table_is_cleared_and_rebuilt() {
        let memo: Memo<u32, u64> = Memo::new(8, |_| 1);
        for key in 0..4 {
            memo.get_or_compute(key, || ok(key as u64)).ok();
        }
        let _ = std::panic::catch_unwind(|| {
            let _guard = memo.table.lock();
            std::panic::panic_any("injected memo poisoning");
        });
        assert!(memo.is_empty(), "recovery clears the table");
        assert!(!memo.table.is_poisoned());
        assert_eq!(memo.get_or_compute(2, || ok(2)), Ok(2));
        assert_eq!((memo.len(), memo.misses()), (1, 5));
    }

    fn panics() -> Result<u64, Infallible> {
        std::panic::panic_any("injected compute panic")
    }

    /// How many hold `key`'s gate (the table counts as one), or 0 if the
    /// key has no compute in flight.
    fn gate_holders(memo: &Memo<u32, u64>, key: u32) -> usize {
        match memo.table().slots.get(&key) {
            Some(Slot::Computing(gate)) => Arc::strong_count(gate),
            _ => 0,
        }
    }

    #[test]
    fn a_compute_that_panics_leaves_its_key_to_the_next_caller() {
        let memo: Memo<u32, u64> = Memo::new(8, |_| 1);
        assert!(std::panic::catch_unwind(|| memo.get_or_compute(3, panics)).is_err());
        assert!(memo.table().slots.is_empty(), "no gate is left");
        assert_eq!(memo.get_or_compute(3, || ok(30)), Ok(30));
        assert_eq!(memo.get_or_compute(3, || ok(0)), Ok(30));
        assert_eq!((memo.misses(), memo.hits()), (1, 1));
    }

    #[test]
    fn a_caller_waiting_on_a_compute_that_panics_takes_the_key_over() {
        let memo = &Memo::<u32, u64>::new(8, |_| 1);
        let (started, wait_started) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            let first = scope.spawn(move || {
                memo.get_or_compute(4, || {
                    started.send(()).ok();
                    wait_release.recv().ok();
                    panics()
                })
            });
            wait_started.recv().ok();
            let waiter = scope.spawn(|| memo.get_or_compute(4, || ok(40)));
            while gate_holders(memo, 4) < 3 {
                std::thread::yield_now();
            }
            release.send(()).ok();
            assert!(first.join().is_err(), "the first compute panicked");
            assert_eq!(waiter.join().ok(), Some(Ok(40)));
        });
        assert_eq!((memo.len(), memo.misses(), memo.hits()), (1, 1, 0));
    }

    #[test]
    fn a_waiter_whose_key_was_evicted_waits_on_the_new_compute() {
        let memo = &Memo::<u32, u64>::new(1, |_| 1);
        // A compute of key 9 in flight, standing in for a caller that has
        // since admitted and lost the key to eviction.
        let old_gate: Arc<Mutex<()>> = Arc::default();
        let old_turn = lock_unpoisoned(&old_gate);
        memo.table()
            .slots
            .insert(9, Slot::Computing(Arc::clone(&old_gate)));
        let late_computes = &AtomicU64::new(0);
        let (started, wait_started) = mpsc::channel();
        let (release, wait_release) = mpsc::channel::<()>();
        std::thread::scope(|scope| {
            // The late caller clones the old gate and blocks on it.
            let late = scope.spawn(move || {
                memo.get_or_compute(9, || {
                    late_computes.fetch_add(1, Ordering::Relaxed);
                    ok(0)
                })
            });
            while Arc::strong_count(&old_gate) < 3 {
                std::thread::yield_now();
            }
            // The key is evicted and a new caller opens a new gate.
            memo.table().slots.remove(&9);
            let new = scope.spawn(move || {
                memo.get_or_compute(9, || {
                    started.send(()).ok();
                    wait_release.recv().ok();
                    ok(90)
                })
            });
            wait_started.recv().ok();
            // The old gate opens: the late caller must find the new gate
            // and wait on it, not compute beside the new caller.
            drop(old_turn);
            while gate_holders(memo, 9) < 3 && !late.is_finished() {
                std::thread::yield_now();
            }
            release.send(()).ok();
            assert_eq!(new.join().ok(), Some(Ok(90)));
            assert_eq!(late.join().ok(), Some(Ok(90)));
        });
        assert_eq!(late_computes.load(Ordering::Relaxed), 0);
        assert_eq!((memo.len(), memo.misses(), memo.hits()), (1, 1, 1));
    }

    #[test]
    fn a_key_computed_twice_across_a_cleared_table_is_counted_once() {
        let memo: Memo<u32, u64> = Memo::new(8, |_| 1);
        memo.admit(6, 60);
        memo.admit(6, 60);
        assert_eq!(memo.len(), 1);
        assert_eq!(memo.table().cost, 1);
    }
}
