//! The prime block (§3.3).
//!
//! "The Blink-tree has a prime block containing the number of levels in the
//! tree and an array of pointers to the leftmost node at each level. Since
//! the leftmost node at each level is never changed (once it is created),
//! the creation of a new root entails incrementing the number of levels …
//! and adding one more pointer at the end of the array. The address of the
//! prime block … never changes."
//!
//! The prime block is rewritten only by a process holding the lock on the
//! current root (creating or removing a root), so it needs no lock of its
//! own; reads are latch-atomic `get`s.

use crate::error::{Result, TreeError};
use blink_pagestore::{Page, PageId, PageProbe};

/// Magic tag of the prime block page. Bumped from `0xB186` when the
/// header grew to clear the page store's reserved region (per-page LSN +
/// CRC32 at bytes 12..24, `blink_pagestore::PAGE_RESERVED_END`): the
/// leftmost array now starts at byte 24.
pub const MAGIC: u16 = 0xB18B;
const HDR: usize = 24;

/// Levels representable in a prime block of the given page size.
pub fn max_levels(page_size: usize) -> usize {
    page_size.saturating_sub(HDR) / 4
}

/// Decoded prime block.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PrimeBlock {
    /// Number of levels. Leaves are level 0; the root is at `height - 1`.
    pub height: u32,
    /// Pointer to the root node.
    pub root: PageId,
    /// `leftmost[i]` is the leftmost node at level `i`; `leftmost.len() ==
    /// height`. The top entry equals `root` (the root is leftmost at its
    /// level).
    pub leftmost: Vec<PageId>,
}

impl PrimeBlock {
    /// Prime block for a brand-new tree whose root is a single leaf.
    pub fn initial(root_leaf: PageId) -> PrimeBlock {
        PrimeBlock {
            height: 1,
            root: root_leaf,
            leftmost: vec![root_leaf],
        }
    }

    /// Leftmost node at `level`, if the level exists (§3.2: used when the
    /// insertion stack is empty but a higher level already exists).
    pub fn leftmost_at(&self, level: u8) -> Option<PageId> {
        self.leftmost.get(level as usize).copied()
    }

    /// Registers a newly created root (insert-into-unsafe-root).
    pub fn push_root(&mut self, new_root: PageId) {
        self.height += 1;
        self.root = new_root;
        self.leftmost.push(new_root);
    }

    /// Registers a root removal down to `new_root` at `new_height` levels
    /// (§5.4 root collapse; may drop several levels at once).
    pub fn collapse_to(&mut self, new_root: PageId, new_height: u32) {
        debug_assert!(new_height >= 1 && new_height <= self.height);
        self.height = new_height;
        self.root = new_root;
        self.leftmost.truncate(new_height as usize);
        debug_assert_eq!(
            self.leftmost.last().copied(),
            Some(new_root),
            "the root must be the leftmost node of the top level"
        );
    }

    /// Serializes into a page.
    pub fn encode(&self, page_size: usize) -> Page {
        let mut page = Page::zeroed(page_size);
        self.encode_into(page.bytes_mut());
        page
    }

    /// Serializes directly into `b`, writing every byte.
    pub fn encode_into(&self, b: &mut [u8]) {
        let page_size = b.len();
        assert!(
            self.leftmost.len() <= max_levels(page_size),
            "tree too tall for prime block"
        );
        assert_eq!(self.leftmost.len(), self.height as usize);
        b.fill(0);
        b[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        b[4..8].copy_from_slice(&self.height.to_le_bytes());
        b[8..12].copy_from_slice(&self.root.to_raw().to_le_bytes());
        // 12..24 is the page store's reserved region (LSN + CRC) — left
        // zero; the leftmost array starts past it.
        for (i, pid) in self.leftmost.iter().enumerate() {
            let off = HDR + i * 4;
            b[off..off + 4].copy_from_slice(&pid.to_raw().to_le_bytes());
        }
    }

    /// Deserializes a page image (owned page or borrowed guard).
    pub fn decode(b: &[u8]) -> Result<PrimeBlock> {
        PrimeBlock::decode_probe(&PageProbe::new(b))
    }

    /// [`PrimeBlock::decode`] over a [`PageProbe`]: reads the header and
    /// the `height` leftmost pointers in place, nothing past them.
    pub fn decode_probe(p: &PageProbe<'_>) -> Result<PrimeBlock> {
        if p.page_size() < HDR {
            return Err(TreeError::Corrupt("page shorter than prime header"));
        }
        if p.u16(0) != MAGIC {
            return Err(TreeError::Corrupt("bad prime-block magic"));
        }
        let height = p.u32(4);
        if height == 0 || height as usize > max_levels(p.page_size()) {
            return Err(TreeError::Corrupt("implausible tree height"));
        }
        let root = PageId::from_raw(p.u32(8)).ok_or(TreeError::Corrupt("nil root pointer"))?;
        let leftmost = (0..height as usize)
            .map(|i| {
                PageId::from_raw(p.u32(HDR + i * 4))
                    .ok_or(TreeError::Corrupt("nil leftmost pointer"))
            })
            .collect::<Result<_>>()?;
        Ok(PrimeBlock {
            height,
            root,
            leftmost,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    #[test]
    fn initial_and_roundtrip() {
        let p = PrimeBlock::initial(pid(2));
        assert_eq!(p.height, 1);
        assert_eq!(p.leftmost_at(0), Some(pid(2)));
        assert_eq!(p.leftmost_at(1), None);
        let decoded = PrimeBlock::decode(&p.encode(256)).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn push_and_collapse_roots() {
        let mut p = PrimeBlock::initial(pid(2));
        p.push_root(pid(3));
        p.push_root(pid(4));
        assert_eq!(p.height, 3);
        assert_eq!(p.root, pid(4));
        assert_eq!(p.leftmost, vec![pid(2), pid(3), pid(4)]);
        let decoded = PrimeBlock::decode(&p.encode(512)).unwrap();
        assert_eq!(decoded, p);

        // Collapse two levels at once (§5.4 chain collapse).
        p.collapse_to(pid(2), 1);
        assert_eq!(p.height, 1);
        assert_eq!(p.root, pid(2));
        assert_eq!(p.leftmost, vec![pid(2)]);
    }

    #[test]
    fn decode_rejects_garbage() {
        assert!(PrimeBlock::decode(&Page::zeroed(256)).is_err());
        let mut page = PrimeBlock::initial(pid(2)).encode(256);
        page.bytes_mut()[8] = 0; // nil root
        page.bytes_mut()[9] = 0;
        page.bytes_mut()[10] = 0;
        page.bytes_mut()[11] = 0;
        assert!(PrimeBlock::decode(&page).is_err());
    }

    #[test]
    fn capacity() {
        assert_eq!(max_levels(256), (256 - 24) / 4);
        assert!(max_levels(24) == 0);
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        #[test]
        fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = PrimeBlock::decode(&bytes);
        }
    }
}
