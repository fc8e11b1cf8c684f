//! Epoch-style published state: lock-free reads of an `Arc`-swapped value.
//!
//! The daemon's per-tenant state is read-mostly: thousands of queries share one
//! [`RobustnessSession`](mvrc_robustness::RobustnessSession) between rare program edits. An
//! [`EpochCell`] publishes the current state as an `Arc` guarded by a monotonically
//! increasing epoch counter; readers keep a per-connection [`EpochCache`] of
//! `(epoch, Arc)` and revalidate with **one atomic acquire-load** per request. Only when the
//! epoch moved (an edit was published) does a reader touch the mutex to refresh its cached
//! `Arc` — in the steady state reads take no lock at all, which is what gives the daemon
//! linear read scaling with no reader/writer convoy.
//!
//! Writers never mutate published state in place: an edit clones the current `Arc`'s value
//! (cheap — a session clone shares its cached graphs), applies the incremental edit off to
//! the side, and [`publish`](EpochCell::publish)es the successor, so a reader holding the old
//! `Arc` keeps a fully consistent pre-edit view for as long as it wants.

#![forbid(unsafe_code)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// A published `Arc<T>` with an epoch counter; see the module docs.
#[derive(Debug)]
pub struct EpochCell<T> {
    epoch: AtomicU64,
    slot: Mutex<Arc<T>>,
}

impl<T> EpochCell<T> {
    /// Publishes an initial value at epoch 0.
    pub fn new(value: Arc<T>) -> Self {
        EpochCell {
            epoch: AtomicU64::new(0),
            slot: Mutex::new(value),
        }
    }

    /// The current epoch (acquire load). Increases by exactly one per [`publish`](Self::publish).
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// The current value and its epoch (slow path: takes the slot lock briefly to clone the
    /// `Arc`). Readers should prefer [`EpochCache::get`].
    pub fn load(&self) -> (u64, Arc<T>) {
        // Lock first: the epoch is bumped inside the same critical section, so the pair is
        // always consistent.
        let slot = self.lock_slot();
        (self.epoch.load(Ordering::Acquire), Arc::clone(&slot))
    }

    /// Atomically publishes a successor value and bumps the epoch. Returns the new epoch.
    pub fn publish(&self, value: Arc<T>) -> u64 {
        let mut slot = self.lock_slot();
        let previous = std::mem::replace(&mut *slot, value);
        // Release pairs with the acquire in `epoch()`: a reader that observes the new epoch
        // and then takes the lock is guaranteed to see the new value.
        let epoch = self.epoch.fetch_add(1, Ordering::Release) + 1;
        drop(slot);
        // The replaced value is dropped outside the critical section, so no user `Drop` runs
        // under the slot lock.
        drop(previous);
        epoch
    }

    /// The slot lock, recovered if poisoned: every critical section leaves a complete `Arc` in
    /// the slot and runs no user code, so a poisoned lock still guards a consistent value.
    fn lock_slot(&self) -> MutexGuard<'_, Arc<T>> {
        self.slot.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A reader's cached `(epoch, Arc)` pair; one per connection (or per thread) per cell.
#[derive(Debug)]
pub struct EpochCache<T> {
    cached: Option<(u64, Arc<T>)>,
}

// Manual impl: the derive would needlessly bound `T: Default`.
impl<T> Default for EpochCache<T> {
    fn default() -> Self {
        EpochCache::new()
    }
}

impl<T> EpochCache<T> {
    /// An empty cache (first [`get`](Self::get) loads through the lock).
    pub fn new() -> Self {
        EpochCache { cached: None }
    }

    /// The cell's current value. In the steady state (no publish since the last call) this is
    /// one atomic load plus an `Arc` clone — no lock.
    pub fn get(&mut self, cell: &EpochCell<T>) -> Arc<T> {
        let current = cell.epoch();
        match &self.cached {
            Some((epoch, value)) if *epoch == current => Arc::clone(value),
            _ => {
                let (epoch, value) = cell.load();
                self.cached = Some((epoch, Arc::clone(&value)));
                value
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn publish_bumps_the_epoch_and_refreshes_readers() {
        let cell = EpochCell::new(Arc::new(1u32));
        let mut cache = EpochCache::new();
        assert_eq!(*cache.get(&cell), 1);
        assert_eq!(cell.epoch(), 0);

        assert_eq!(cell.publish(Arc::new(2)), 1);
        assert_eq!(*cache.get(&cell), 2);
        assert_eq!(cell.epoch(), 1);

        // A stale cache never resurrects an old value.
        let mut fresh = EpochCache::new();
        assert_eq!(*fresh.get(&cell), 2);
    }

    #[test]
    fn readers_holding_an_old_arc_keep_a_consistent_view() {
        let cell = EpochCell::new(Arc::new(vec![1, 2, 3]));
        let (_, held) = cell.load();
        cell.publish(Arc::new(vec![4]));
        assert_eq!(*held, vec![1, 2, 3]);
        assert_eq!(*cell.load().1, vec![4]);
    }
}
