//! Shared/exclusive page locks for the **top-down baseline** only.
//!
//! The paper's protocols need a single lock type precisely because readers
//! never lock; the top-down solutions it compares against (\[2, 3, 7\] in the
//! paper — Bayer–Schkolnick and descendants) require readers to take shared
//! locks and updaters exclusive ones, coupling them down the tree. This
//! module provides that machinery so the baseline is faithful, and its cost
//! (lock traffic on every node for every reader) is measurable.
//!
//! Writers are preferred: once a writer is waiting, new readers queue behind
//! it. Lock-coupling acquires strictly root→leaf, so there are no cycles.

use blink_pagestore::audit::{acquire_manual, release_manual, LockClass};
use blink_pagestore::{PageId, PageStore, Session, StoreStats};
use parking_lot::{Condvar, Mutex, RwLock};
use std::sync::Arc;
use std::time::Instant;

#[derive(Debug, Default)]
struct RwState {
    readers: u32,
    writer: bool,
    writers_waiting: u32,
}

#[derive(Debug, Default)]
struct RwEntry {
    st: Mutex<RwState>,
    cv: Condvar,
}

/// A growable table of shared/exclusive locks, one per page.
#[derive(Debug)]
pub struct RwLockTable {
    store: Arc<PageStore>,
    entries: RwLock<Vec<Arc<RwEntry>>>,
}

impl RwLockTable {
    pub fn new(store: Arc<PageStore>) -> RwLockTable {
        RwLockTable {
            store,
            entries: RwLock::new(Vec::new()),
        }
    }

    fn entry(&self, pid: PageId) -> Arc<RwEntry> {
        let idx = pid.to_raw() as usize - 1;
        {
            let entries = self.entries.read();
            if let Some(e) = entries.get(idx) {
                return Arc::clone(e);
            }
        }
        let mut entries = self.entries.write();
        while entries.len() <= idx {
            entries.push(Arc::new(RwEntry::default()));
        }
        Arc::clone(&entries[idx])
    }

    /// Acquires a shared (read) lock on `pid`.
    pub fn lock_shared(&self, pid: PageId, session: &mut Session) {
        let e = self.entry(pid);
        let stats = self.store.stats();
        let mut st = e.st.lock();
        if st.writer || st.writers_waiting > 0 {
            let t0 = Instant::now();
            while st.writer || st.writers_waiting > 0 {
                e.cv.wait(&mut st);
            }
            stats.rw_wait_hist.record(t0.elapsed().as_nanos() as u64);
        }
        st.readers += 1;
        drop(st);
        acquire_manual(LockClass::RwPage, Arc::as_ptr(&e) as usize);
        StoreStats::bump(&stats.rw_shared_acquires);
        session.note_lock(pid);
    }

    /// Releases a shared lock.
    pub fn unlock_shared(&self, pid: PageId, session: &mut Session) {
        let e = self.entry(pid);
        release_manual(LockClass::RwPage, Arc::as_ptr(&e) as usize);
        session.note_unlock(pid);
        let mut st = e.st.lock();
        assert!(st.readers > 0, "unlock_shared with no readers on {pid}");
        st.readers -= 1;
        let wake = st.readers == 0;
        drop(st);
        if wake {
            e.cv.notify_all();
        }
    }

    /// Acquires an exclusive (write) lock on `pid`.
    pub fn lock_exclusive(&self, pid: PageId, session: &mut Session) {
        let e = self.entry(pid);
        let stats = self.store.stats();
        let mut st = e.st.lock();
        if st.writer || st.readers > 0 {
            st.writers_waiting += 1;
            let t0 = Instant::now();
            while st.writer || st.readers > 0 {
                e.cv.wait(&mut st);
            }
            st.writers_waiting -= 1;
            stats.rw_wait_hist.record(t0.elapsed().as_nanos() as u64);
        }
        st.writer = true;
        drop(st);
        acquire_manual(LockClass::RwPage, Arc::as_ptr(&e) as usize);
        StoreStats::bump(&stats.rw_exclusive_acquires);
        session.note_lock(pid);
    }

    /// Releases an exclusive lock.
    pub fn unlock_exclusive(&self, pid: PageId, session: &mut Session) {
        let e = self.entry(pid);
        release_manual(LockClass::RwPage, Arc::as_ptr(&e) as usize);
        session.note_unlock(pid);
        let mut st = e.st.lock();
        assert!(st.writer, "unlock_exclusive with no writer on {pid}");
        st.writer = false;
        drop(st);
        e.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blink_pagestore::{LogicalClock, SessionRegistry, StoreConfig};
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;

    fn setup() -> (Arc<PageStore>, Arc<RwLockTable>, Arc<SessionRegistry>) {
        let store = PageStore::new(StoreConfig::with_page_size(64));
        let table = Arc::new(RwLockTable::new(Arc::clone(&store)));
        let reg = SessionRegistry::new(Arc::new(LogicalClock::new()));
        (store, table, reg)
    }

    #[test]
    fn multiple_readers_coexist() {
        let (store, table, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s1 = reg.open();
        let mut s2 = reg.open();
        table.lock_shared(pid, &mut s1);
        table.lock_shared(pid, &mut s2); // must not block
        table.unlock_shared(pid, &mut s1);
        table.unlock_shared(pid, &mut s2);
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let (store, table, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut w = reg.open();
        table.lock_exclusive(pid, &mut w);

        let entered = Arc::new(AtomicBool::new(false));
        let t = {
            let table = Arc::clone(&table);
            let reg = Arc::clone(&reg);
            let entered = Arc::clone(&entered);
            std::thread::spawn(move || {
                let mut r = reg.open();
                table.lock_shared(pid, &mut r);
                entered.store(true, Ordering::SeqCst);
                table.unlock_shared(pid, &mut r);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(
            !entered.load(Ordering::SeqCst),
            "reader entered past writer"
        );
        table.unlock_exclusive(pid, &mut w);
        t.join().unwrap();
        assert!(entered.load(Ordering::SeqCst));
    }

    #[test]
    fn waiting_writer_blocks_new_readers() {
        let (store, table, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut r1 = reg.open();
        table.lock_shared(pid, &mut r1);

        // Writer queues behind the reader.
        let writer_in = Arc::new(AtomicBool::new(false));
        let tw = {
            let table = Arc::clone(&table);
            let reg = Arc::clone(&reg);
            let writer_in = Arc::clone(&writer_in);
            std::thread::spawn(move || {
                let mut w = reg.open();
                table.lock_exclusive(pid, &mut w);
                writer_in.store(true, Ordering::SeqCst);
                std::thread::sleep(Duration::from_millis(30));
                table.unlock_exclusive(pid, &mut w);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        assert!(!writer_in.load(Ordering::SeqCst));

        // A new reader must now wait behind the waiting writer
        // (writer preference), so it observes the writer's effect.
        let tr = {
            let table = Arc::clone(&table);
            let reg = Arc::clone(&reg);
            let writer_in = Arc::clone(&writer_in);
            std::thread::spawn(move || {
                let mut r2 = reg.open();
                table.lock_shared(pid, &mut r2);
                assert!(
                    writer_in.load(Ordering::SeqCst),
                    "reader overtook waiting writer"
                );
                table.unlock_shared(pid, &mut r2);
            })
        };
        std::thread::sleep(Duration::from_millis(30));
        table.unlock_shared(pid, &mut r1);
        tw.join().unwrap();
        tr.join().unwrap();
    }

    #[test]
    fn stats_count_modes_separately() {
        let (store, table, reg) = setup();
        let pid = store.alloc().unwrap();
        let mut s = reg.open();
        table.lock_shared(pid, &mut s);
        table.unlock_shared(pid, &mut s);
        table.lock_exclusive(pid, &mut s);
        table.unlock_exclusive(pid, &mut s);
        let snap = store.stats().snapshot();
        assert_eq!(snap.rw_shared_acquires, 1);
        assert_eq!(snap.rw_exclusive_acquires, 1);
    }
}
