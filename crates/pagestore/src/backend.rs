//! Pluggable page storage backends.
//!
//! [`crate::PageStore`] implements §2.2's *model* (indivisible `get`/`put`,
//! paper locks, allocation); a [`PageBackend`] supplies the *bytes*. Two
//! implementations exist:
//!
//! * [`MemBackend`] — the original in-memory slot array (RAM-speed tests,
//!   experiments), optionally a simulated device that spins a fixed
//!   latency on every page read and write;
//! * `FileBackend` in the `blink-durable` crate — a page file on disk, used
//!   together with a write-ahead log for crash durability.
//!
//! Backends are dumb byte stores: allocation state, per-page latching and
//! locking all live in `PageStore`. A backend only has to make individual
//! `read`/`write` calls on the *same* page well-defined when the caller
//! serializes them (which `PageStore`'s per-page latch does); calls on
//! different pages may run concurrently.

use crate::error::Result;
use parking_lot::{Mutex, RwLock};
use std::fmt;
use std::time::{Duration, Instant};

/// A store of fixed-size page slots addressed by index.
pub trait PageBackend: Send + Sync + fmt::Debug {
    /// Size of every page in bytes.
    fn page_size(&self) -> usize;

    /// Number of page slots currently backed.
    fn capacity(&self) -> usize;

    /// Extends the backing to hold `new_cap` pages; new pages read as
    /// zeroes. Never shrinks.
    fn grow(&self, new_cap: usize) -> Result<()>;

    /// Reads page `index` into `buf` (`buf.len() == page_size`).
    fn read(&self, index: usize, buf: &mut [u8]) -> Result<()>;

    /// Overwrites page `index` with `data` (`data.len() == page_size`).
    fn write(&self, index: usize, data: &[u8]) -> Result<()>;

    /// Flushes buffered writes to stable storage (no-op for memory).
    fn sync(&self) -> Result<()>;
}

/// The in-memory backend: a growable array of page buffers.
pub struct MemBackend {
    page_size: usize,
    latency: Duration,
    pages: RwLock<Vec<Mutex<Box<[u8]>>>>,
}

impl MemBackend {
    pub fn new(page_size: usize) -> MemBackend {
        MemBackend::with_latency(page_size, Duration::ZERO)
    }

    /// A simulated device: every page `read` and `write` busy-waits
    /// `latency` first, the cost of a real disk/SSD block access. The
    /// store calls both under the page's latch, so the time a process
    /// holds locks across I/O — what the paper's lock-count argument is
    /// about — stays observable in experiments.
    pub fn with_latency(page_size: usize, latency: Duration) -> MemBackend {
        MemBackend {
            page_size,
            latency,
            pages: RwLock::new(Vec::new()),
        }
    }

    fn access(&self) {
        if !self.latency.is_zero() {
            let t0 = Instant::now();
            while t0.elapsed() < self.latency {
                std::hint::spin_loop();
            }
        }
    }
}

impl fmt::Debug for MemBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("MemBackend")
            .field("page_size", &self.page_size)
            .field("capacity", &self.capacity())
            .finish()
    }
}

impl PageBackend for MemBackend {
    fn page_size(&self) -> usize {
        self.page_size
    }

    fn capacity(&self) -> usize {
        self.pages.read().len()
    }

    fn grow(&self, new_cap: usize) -> Result<()> {
        let mut pages = self.pages.write();
        while pages.len() < new_cap {
            pages.push(Mutex::new(vec![0u8; self.page_size].into_boxed_slice()));
        }
        Ok(())
    }

    fn read(&self, index: usize, buf: &mut [u8]) -> Result<()> {
        self.access();
        let pages = self.pages.read();
        buf.copy_from_slice(&pages[index].lock());
        Ok(())
    }

    fn write(&self, index: usize, data: &[u8]) -> Result<()> {
        self.access();
        let pages = self.pages.read();
        pages[index].lock().copy_from_slice(data);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_backend_roundtrip_and_grow() {
        let b = MemBackend::new(16);
        assert_eq!(b.capacity(), 0);
        b.grow(3).unwrap();
        assert_eq!(b.capacity(), 3);
        let mut buf = vec![0u8; 16];
        b.read(2, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 0));
        b.write(1, &[7u8; 16]).unwrap();
        b.read(1, &mut buf).unwrap();
        assert!(buf.iter().all(|&x| x == 7));
        b.grow(2).unwrap(); // never shrinks
        assert_eq!(b.capacity(), 3);
        b.sync().unwrap();
    }
}
