//! Node format and node-level operations.
//!
//! A node is one page (§2.2). Following §2.1 and the Blink extension, every
//! node stores:
//!
//! * its pairs `(v₁,p₁)…(v_i,p_i)` in ascending key order, plus `p₀` for
//!   internal nodes (the layout of the paper's Fig. 1);
//! * its **high value** `v_{i+1}` and **link** (right-neighbor pointer) —
//!   the Blink additions of \[8\];
//! * its **low value** `v₀` and a **deletion bit** — the additions §5.1
//!   requires for compression ("The compression process requires … that v₀
//!   be explicitly stored in each node. … In addition to a low value, each
//!   node has a deletion bit");
//! * a **merge pointer**, set when the node is deleted by a merge, so a
//!   process that reads the deleted node "continues to A instead of having
//!   to restart" (§5.2, after \[4\]);
//! * a **root bit** ("In order to save reading the prime block, we can have
//!   in each node a bit indicating whether it is the root", §3.3).
//!
//! Pointer/value indexing: an internal node is the sequence
//! `p₀ v₁ p₁ v₂ … v_i p_i`. We call `P[j]` the `j`-th pointer (`P\[0\]=p₀`)
//! and `followval(j)` the value immediately following `P[j]` — `v_{j+1}`
//! for `j<i` and the node's high value for `j=i`. By the Fig. 2 observation,
//! `followval(j)` equals the high value of the child `P[j]`, and `(P[j],
//! followval(j))` is exactly the "(p, v)" pair §5.4's compression protocol
//! looks for in the parent.

use crate::error::{Result, TreeError};
use crate::key::{Bound, Key};
use blink_pagestore::{Page, PageId, PageProbe};

/// Magic tag of a node page. Bumped from `0xB185` when the header moved
/// its payload fields off bytes 12..24 — the page store's reserved region
/// (per-page LSN + CRC32, `blink_pagestore::PAGE_RESERVED_END`), which
/// backend write sites may stamp on any page image.
pub const MAGIC: u16 = 0xB18A;
/// Bytes of fixed header before the pair array. Layout: magic `0..2`,
/// flags `2`, level `3`, count `4..6`, low tag `6`, high tag `7`, link
/// `8..12`, store-reserved `12..24`, low payload `24..32`, high payload
/// `32..40`, merge target `40..44`, p₀ `44..48`.
pub const HEADER_LEN: usize = 48;
/// Bytes per pair (key u64 + value u64).
pub const PAIR_LEN: usize = 16;

/// How many pairs fit in one page of the given size.
pub fn max_pairs_for_page(page_size: usize) -> usize {
    page_size.saturating_sub(HEADER_LEN) / PAIR_LEN
}

/// How many levels the prime block supports at the given page size
/// (re-exported here so `TreeConfig::validate` has one import).
pub fn prime_max_levels(page_size: usize) -> usize {
    crate::prime::max_levels(page_size)
}

/// Leaf or internal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeKind {
    Leaf,
    Internal,
}

/// Which sibling a rebalance shifted data *into* (determines §5.2's write
/// order: "first rewrite the child that obtains new data").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    Left,
    Right,
}

/// Outcome of [`rearrange`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rearrange {
    /// Both nodes already have ≥ k pairs — nothing to do (footnote 15).
    None,
    /// All pairs moved into the left node; the right node is now deleted.
    Merged,
    /// Pairs were shifted so both sides have ≥ k; `gainer` received data.
    Balanced { gainer: Side },
}

/// Routing decision of the paper's `next(A, v)` procedure (Fig. 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Next {
    /// `v` is greater than the high value: follow the link right.
    Link(PageId),
    /// Descend to this child (internal nodes only).
    Child(PageId),
    /// `v` belongs in this node (leaves only).
    Here,
}

/// An in-memory, decoded node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub kind: NodeKind,
    pub is_root: bool,
    pub deleted: bool,
    /// Level: leaves are 0, the paper's convention.
    pub level: u8,
    /// Low value v₀ (explicitly stored; §5.1).
    pub low: Bound,
    /// High value v_{i+1}.
    pub high: Bound,
    /// Right-neighbor pointer; `None` (nil) for the rightmost node.
    pub link: Option<PageId>,
    /// For deleted nodes: where the data went (§5.2 case 1 / \[4\]).
    pub merge_target: Option<PageId>,
    /// Leftmost child pointer p₀ (internal nodes only).
    pub p0: Option<PageId>,
    /// Pairs `(vⱼ, pⱼ)`. For leaves the value is a record pointer; for
    /// internal nodes it is a child `PageId` in raw form.
    pub entries: Vec<(Key, u64)>,
}

impl Node {
    /// A fresh empty leaf spanning the whole key space (the initial root).
    pub fn new_leaf() -> Node {
        Node {
            kind: NodeKind::Leaf,
            is_root: false,
            deleted: false,
            level: 0,
            low: Bound::NegInf,
            high: Bound::PosInf,
            link: None,
            merge_target: None,
            p0: None,
            entries: Vec::new(),
        }
    }

    /// A fresh internal node at `level`.
    pub fn new_internal(level: u8) -> Node {
        Node {
            kind: NodeKind::Internal,
            p0: None,
            ..Node::new_leaf()
        }
        .with_level(level)
    }

    fn with_level(mut self, level: u8) -> Node {
        self.level = level;
        self
    }

    /// Number of pairs `i`.
    pub fn pairs(&self) -> usize {
        self.entries.len()
    }

    pub fn is_leaf(&self) -> bool {
        self.kind == NodeKind::Leaf
    }

    // ------------------------------------------------------------------
    // Routing (Fig. 4).
    // ------------------------------------------------------------------

    /// The paper's `next(A, v)`: a link if `v` exceeds the high value, else
    /// the child pointer for `v` (internal) or `Here` (leaf).
    pub fn next(&self, v: Key) -> Next {
        if Bound::Key(v) > self.high {
            return Next::Link(self.link.expect("non-rightmost node must have a link"));
        }
        match self.kind {
            NodeKind::Leaf => Next::Here,
            NodeKind::Internal => Next::Child(self.pointer(self.child_index(v))),
        }
    }

    /// §5.2 wrong-node test: the value we look for lies at or left of the
    /// node's low value, so data was shifted leftwards past us — restart.
    pub fn wrong_node(&self, v: Key) -> bool {
        Bound::Key(v) <= self.low
    }

    /// Index `j` of the pointer to follow for `v`: `vⱼ < v ≤ v_{j+1}`.
    pub fn child_index(&self, v: Key) -> usize {
        self.entries.partition_point(|&(key, _)| key < v)
    }

    // ------------------------------------------------------------------
    // Pointer/value views of an internal node.
    // ------------------------------------------------------------------

    /// Number of child pointers (`i + 1`).
    pub fn pointer_count(&self) -> usize {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        self.entries.len() + 1
    }

    /// The `j`-th child pointer; `P\[0\]` is p₀.
    pub fn pointer(&self, j: usize) -> PageId {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        if j == 0 {
            self.p0.expect("internal node without p0")
        } else {
            PageId::from_raw(self.entries[j - 1].1 as u32).expect("nil child pointer")
        }
    }

    /// The value immediately following `P[j]` — the high value of child
    /// `P[j]` (Fig. 2).
    pub fn followval(&self, j: usize) -> Bound {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        if j < self.entries.len() {
            Bound::Key(self.entries[j].0)
        } else {
            self.high
        }
    }

    /// Finds `j` with `P[j] == target`, if any.
    pub fn find_pointer(&self, target: PageId) -> Option<usize> {
        (0..self.pointer_count()).find(|&j| self.pointer(j) == target)
    }

    /// §5.4's pair test: is `(p, v) = (target, high)` present, with `v`
    /// *immediately following* `p` (footnote 14)?
    pub fn find_pair(&self, target: PageId, high: Bound) -> Option<usize> {
        self.find_pointer(target)
            .filter(|&j| self.followval(j) == high)
    }

    // ------------------------------------------------------------------
    // Leaf mutations.
    // ------------------------------------------------------------------

    /// Looks up `v` in a leaf.
    pub fn leaf_get(&self, v: Key) -> Option<u64> {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        self.entries
            .binary_search_by_key(&v, |&(key, _)| key)
            .ok()
            .map(|i| self.entries[i].1)
    }

    /// Inserts `(v, val)`; returns `false` if `v` is already present.
    pub fn leaf_insert(&mut self, v: Key, val: u64) -> bool {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        match self.entries.binary_search_by_key(&v, |&(key, _)| key) {
            Ok(_) => false,
            Err(pos) => {
                self.entries.insert(pos, (v, val));
                true
            }
        }
    }

    /// Replaces the value stored under `v`; returns the old value, or
    /// `None` (leaf unchanged) when `v` is absent.
    pub fn leaf_set(&mut self, v: Key, val: u64) -> Option<u64> {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        match self.entries.binary_search_by_key(&v, |&(key, _)| key) {
            Ok(pos) => Some(std::mem::replace(&mut self.entries[pos].1, val)),
            Err(_) => None,
        }
    }

    /// Removes `v`; returns its value if it was present.
    pub fn leaf_remove(&mut self, v: Key) -> Option<u64> {
        debug_assert_eq!(self.kind, NodeKind::Leaf);
        match self.entries.binary_search_by_key(&v, |&(key, _)| key) {
            Ok(pos) => Some(self.entries.remove(pos).1),
            Err(_) => None,
        }
    }

    // ------------------------------------------------------------------
    // Internal mutations.
    // ------------------------------------------------------------------

    /// Inserts the separator pair `(sep, right)` "immediately to the left of
    /// the smallest key value u such that sep < u" (§3.1): `right` becomes
    /// the pointer following `sep`.
    pub fn internal_insert_sep(&mut self, sep: Key, right: PageId) {
        debug_assert_eq!(self.kind, NodeKind::Internal);
        let pos = self.entries.partition_point(|&(key, _)| key < sep);
        debug_assert!(
            pos == self.entries.len() || self.entries[pos].0 != sep,
            "duplicate separator {sep}"
        );
        self.entries.insert(pos, (sep, u64::from(right.to_raw())));
    }

    // ------------------------------------------------------------------
    // Split (Fig. 3 / insert-into-unsafe).
    // ------------------------------------------------------------------

    /// Splits an over-full node. `self` becomes the left half `A` (new high
    /// value, link → `new_right`); the returned node is the new right
    /// sibling `B`, which inherits `A`'s old high value and link. The caller
    /// writes `B` first, then `A` (Fig. 3's two atomic steps), then inserts
    /// the pair `(A.high, new_right)` at the next higher level.
    pub fn split(&mut self, new_right: PageId) -> Node {
        let n = self.entries.len();
        debug_assert!(n >= 3, "splitting a node with fewer than 3 pairs");
        let mut right = Node {
            kind: self.kind,
            is_root: false,
            deleted: false,
            level: self.level,
            low: Bound::NegInf, // fixed below
            high: self.high,
            link: self.link,
            merge_target: None,
            p0: None,
            entries: Vec::new(),
        };
        match self.kind {
            NodeKind::Leaf => {
                // A keeps ⌈(n)/2⌉ pairs, B the rest; A's new high value is
                // the largest key value that remains in it (§3.1).
                let mid = n.div_ceil(2);
                right.entries = self.entries.split_off(mid);
                let new_high = Bound::Key(self.entries.last().expect("left half nonempty").0);
                right.low = new_high;
                self.high = new_high;
            }
            NodeKind::Internal => {
                // Promote the middle key: it becomes A's new high value and
                // the separator inserted into the parent; its pointer
                // becomes B's p₀.
                let mid = n / 2;
                let (sep, sep_ptr) = self.entries[mid];
                right.entries = self.entries.split_off(mid + 1);
                self.entries.truncate(mid);
                right.p0 = PageId::from_raw(sep_ptr as u32);
                debug_assert!(right.p0.is_some(), "nil pointer promoted in split");
                right.low = Bound::Key(sep);
                self.high = Bound::Key(sep);
            }
        }
        self.link = Some(new_right);
        // A node being split is never the root *afterwards*; the caller
        // handles root splits by building a new root above both halves.
        right
    }

    // ------------------------------------------------------------------
    // Codec.
    // ------------------------------------------------------------------

    /// Serializes into a page of `page_size` bytes.
    pub fn encode(&self, page_size: usize) -> Page {
        let mut page = Page::zeroed(page_size);
        self.encode_into(page.bytes_mut());
        page
    }

    /// Serializes directly into `b` (every byte of `b` is written) — used
    /// by the zero-copy write path to encode straight into a buffer-pool
    /// frame without an intermediate [`Page`].
    pub fn encode_into(&self, b: &mut [u8]) {
        let page_size = b.len();
        assert!(
            self.entries.len() <= max_pairs_for_page(page_size),
            "node with {} pairs does not fit a {}-byte page",
            self.entries.len(),
            page_size
        );
        b.fill(0);
        b[0..2].copy_from_slice(&MAGIC.to_le_bytes());
        let mut flags = 0u8;
        if self.kind == NodeKind::Leaf {
            flags |= 1;
        }
        if self.is_root {
            flags |= 2;
        }
        if self.deleted {
            flags |= 4;
        }
        b[2] = flags;
        b[3] = self.level;
        b[4..6].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        b[6] = self.low.tag();
        b[7] = self.high.tag();
        b[8..12].copy_from_slice(&PageId::encode_opt(self.link).to_le_bytes());
        // 12..24 is the page store's reserved region (LSN + CRC) — left
        // zero here; backend write sites may stamp into it.
        b[24..32].copy_from_slice(&self.low.payload().to_le_bytes());
        b[32..40].copy_from_slice(&self.high.payload().to_le_bytes());
        b[40..44].copy_from_slice(&PageId::encode_opt(self.merge_target).to_le_bytes());
        b[44..48].copy_from_slice(&PageId::encode_opt(self.p0).to_le_bytes());
        for (i, &(key, val)) in self.entries.iter().enumerate() {
            let off = HEADER_LEN + i * PAIR_LEN;
            b[off..off + 8].copy_from_slice(&key.to_le_bytes());
            b[off + 8..off + 16].copy_from_slice(&val.to_le_bytes());
        }
    }

    /// Deserializes a page image (an owned [`Page`] or a borrowed page
    /// guard — both deref to `[u8]`). Fails on structural corruption (bad
    /// magic, bad tags, counts that exceed the page).
    pub fn decode(b: &[u8]) -> Result<Node> {
        Node::decode_probe(&PageProbe::new(b))
    }

    /// [`Node::decode`] over a [`PageProbe`]: reads the header and the
    /// `count` pairs in place, nothing past them. Over an unlatched frame
    /// the result counts only once the probe validates.
    pub fn decode_probe(p: &PageProbe<'_>) -> Result<Node> {
        let h = Header::parse(p)?;
        let entries = (0..h.count)
            .map(|i| {
                let off = HEADER_LEN + i * PAIR_LEN;
                (p.u64(off), p.u64(off + 8))
            })
            .collect();
        Ok(Node {
            kind: h.kind,
            is_root: h.is_root,
            deleted: h.deleted,
            level: h.level,
            low: h.low,
            high: h.high,
            link: h.link,
            merge_target: h.merge_target,
            p0: h.p0,
            entries,
        })
    }

    /// The paper's `next(A, v)` read **in place**: parses the header (with
    /// [`Node::decode`]'s structural checks) and binary-searches the pair
    /// array where it lies, touching a 48-byte header and ~log₂(pairs)
    /// keys instead of decoding the page. A leaf also yields `v`'s value.
    /// A deleted node routes nowhere: only its merge pointer matters.
    /// Never panics, whatever the bytes; what it reads from an unlatched
    /// frame counts only once the probe validates.
    pub fn route(p: &PageProbe<'_>, v: Key) -> Result<Route> {
        let h = Header::parse(p)?;
        let mut route = Route {
            deleted: h.deleted,
            level: h.level,
            low: h.low,
            merge_target: h.merge_target,
            next: Next::Here,
            value: None,
        };
        if h.deleted {
            return Ok(route);
        }
        if Bound::Key(v) > h.high {
            let link = h
                .link
                .ok_or(TreeError::Corrupt("finite high value without a link"))?;
            route.next = Next::Link(link);
            return Ok(route);
        }
        let key = |i: usize| p.u64(HEADER_LEN + i * PAIR_LEN);
        let val = |i: usize| p.u64(HEADER_LEN + i * PAIR_LEN + 8);
        // `child_index`: the first pair whose key is not below `v`.
        let (mut lo, mut hi) = (0, h.count);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if key(mid) < v {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        match h.kind {
            NodeKind::Leaf => route.value = (lo < h.count && key(lo) == v).then(|| val(lo)),
            NodeKind::Internal => {
                let child = match lo {
                    0 => h.p0,
                    j => PageId::from_raw(val(j - 1) as u32),
                };
                let child = child.ok_or(TreeError::Corrupt("internal node routes to nil"))?;
                route.next = Next::Child(child);
            }
        }
        Ok(route)
    }

    /// What [`Node::route`] must conclude, read off the decoded node with
    /// `next` and `leaf_get` (the oracle its tests compare against).
    #[cfg(test)]
    pub(crate) fn route_of(&self, v: Key) -> Route {
        let next = if self.deleted {
            Next::Here
        } else {
            self.next(v)
        };
        Route {
            deleted: self.deleted,
            level: self.level,
            low: self.low,
            merge_target: self.merge_target,
            next,
            value: match (self.deleted, next) {
                (false, Next::Here) => self.leaf_get(v),
                _ => None,
            },
        }
    }
}

/// A node's fixed header, parsed in one place for [`Node::decode_probe`]
/// and [`Node::route`] so the structural checks are written once.
struct Header {
    kind: NodeKind,
    is_root: bool,
    deleted: bool,
    level: u8,
    count: usize,
    low: Bound,
    high: Bound,
    link: Option<PageId>,
    merge_target: Option<PageId>,
    p0: Option<PageId>,
}

impl Header {
    /// Parses and checks the header: magic, bound tags, a pair count that
    /// fits the page, and a p₀ for an internal node with pairs.
    fn parse(p: &PageProbe<'_>) -> Result<Header> {
        if p.page_size() < HEADER_LEN {
            return Err(TreeError::Corrupt("page shorter than node header"));
        }
        if p.u16(0) != MAGIC {
            return Err(TreeError::Corrupt("bad node magic"));
        }
        let flags = p.u8(2);
        let kind = if flags & 1 != 0 {
            NodeKind::Leaf
        } else {
            NodeKind::Internal
        };
        let count = p.u16(4) as usize;
        if count > max_pairs_for_page(p.page_size()) {
            return Err(TreeError::Corrupt("pair count exceeds page capacity"));
        }
        let low =
            Bound::decode(p.u8(6), p.u64(24)).ok_or(TreeError::Corrupt("bad low-bound tag"))?;
        let high =
            Bound::decode(p.u8(7), p.u64(32)).ok_or(TreeError::Corrupt("bad high-bound tag"))?;
        let p0 = PageId::from_raw(p.u32(44));
        if kind == NodeKind::Internal && p0.is_none() && count > 0 {
            return Err(TreeError::Corrupt("internal node with pairs but no p0"));
        }
        Ok(Header {
            kind,
            is_root: flags & 2 != 0,
            deleted: flags & 4 != 0,
            level: p.u8(3),
            count,
            low,
            high,
            link: PageId::from_raw(p.u32(8)),
            merge_target: PageId::from_raw(p.u32(40)),
            p0,
        })
    }
}

/// Where [`Node::route`] sends a traversal looking for `v`, plus what the
/// §5.2 checks need: the deletion bit and merge pointer, the level, and
/// the low value (`wrong_node`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    pub deleted: bool,
    pub level: u8,
    pub low: Bound,
    pub merge_target: Option<PageId>,
    /// `next(A, v)`; `Here` for a deleted node, which routes nowhere.
    pub next: Next,
    /// `v`'s value, when the node is a leaf that holds it.
    pub value: Option<u64>,
}

impl Route {
    /// [`Node::wrong_node`] on the routed node.
    pub fn wrong_node(&self, v: Key) -> bool {
        Bound::Key(v) <= self.low
    }
}

// ----------------------------------------------------------------------
// Rearranging two adjacent siblings (§5.1/§5.2).
// ----------------------------------------------------------------------

/// Total pairs the pair of nodes would occupy if merged. For internal nodes
/// a merge materializes the separator (the left node's high value) as a real
/// pair pointing at the right node's p₀, so it counts one extra.
pub fn combined_pairs(a: &Node, b: &Node) -> usize {
    a.pairs() + b.pairs() + if a.is_leaf() { 0 } else { 1 }
}

/// §5.1's rearrangement of two adjacent siblings `a` (left) and `b`
/// (right, `a.link` must point to `b`'s page):
///
/// * neither is under-full → [`Rearrange::None`], nothing modified;
/// * together they fit in one node → everything moves into `a`; `b` is
///   marked deleted with its merge pointer aimed at `a_pid`;
/// * otherwise pairs are shifted so each has at least `k`.
///
/// After `Merged`, the caller removes the pair `(a.high_old, b)` from the
/// parent; after `Balanced`, the caller replaces that pair's key with `a`'s
/// new high value. The `gainer` tells the caller which child to rewrite
/// first (§5.2's write ordering).
pub fn rearrange(a: &mut Node, b: &mut Node, a_pid: PageId, k: usize) -> Rearrange {
    debug_assert_eq!(a.kind, b.kind, "rearranging nodes of different kinds");
    debug_assert_eq!(a.level, b.level);
    debug_assert_eq!(a.high, b.low, "siblings must be adjacent");
    if a.pairs() >= k && b.pairs() >= k {
        return Rearrange::None;
    }
    let total = combined_pairs(a, b);
    if total <= 2 * k {
        // Merge b into a: "all the pairs from B are shifted into A (the high
        // value and link of B replace those of A), the deletion bit in B is
        // set on" (§5.2).
        if !a.is_leaf() {
            let sep = a.high.expect_key("separator of merging internal nodes");
            let b_p0 = b.p0.expect("internal node without p0");
            a.entries.push((sep, u64::from(b_p0.to_raw())));
        }
        a.entries.append(&mut b.entries);
        a.high = b.high;
        a.link = b.link;
        b.deleted = true;
        b.merge_target = Some(a_pid);
        b.p0 = None;
        b.link = None;
        return Rearrange::Merged;
    }
    // Redistribute so both sides have ≥ k pairs.
    let before_a = a.pairs();
    if a.is_leaf() {
        let mut combined = std::mem::take(&mut a.entries);
        combined.append(&mut b.entries);
        let s = combined.len() / 2;
        b.entries = combined.split_off(s);
        a.entries = combined;
        let sep = Bound::Key(a.entries.last().expect("left half nonempty").0);
        a.high = sep;
        b.low = sep;
    } else {
        let sep_old = a.high.expect_key("separator of internal siblings");
        let b_p0 = b.p0.expect("internal node without p0");
        let mut combined = std::mem::take(&mut a.entries);
        combined.push((sep_old, u64::from(b_p0.to_raw())));
        combined.append(&mut b.entries);
        let s = combined.len() / 2;
        let mut rest = combined.split_off(s);
        let (sep_new, sep_ptr) = rest.remove(0);
        a.entries = combined;
        b.entries = rest;
        b.p0 = PageId::from_raw(sep_ptr as u32);
        debug_assert!(b.p0.is_some());
        a.high = Bound::Key(sep_new);
        b.low = Bound::Key(sep_new);
    }
    debug_assert!(
        a.pairs() >= k && b.pairs() >= k,
        "rebalance left a side under-full"
    );
    let gainer = if a.pairs() > before_a {
        Side::Left
    } else {
        Side::Right
    };
    Rearrange::Balanced { gainer }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    fn leaf_with(keys: &[Key]) -> Node {
        let mut n = Node::new_leaf();
        for &k in keys {
            assert!(n.leaf_insert(k, k * 10));
        }
        n
    }

    /// Internal node: p0 + entries (sep, child).
    fn internal_with(level: u8, p0: u32, pairs: &[(Key, u32)]) -> Node {
        let mut n = Node::new_internal(level);
        n.p0 = Some(pid(p0));
        n.entries = pairs.iter().map(|&(k, p)| (k, u64::from(p))).collect();
        n
    }

    #[test]
    fn leaf_insert_get_remove() {
        let mut n = leaf_with(&[5, 1, 3]);
        assert_eq!(
            n.entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![1, 3, 5]
        );
        assert_eq!(n.leaf_get(3), Some(30));
        assert_eq!(n.leaf_get(4), None);
        assert!(!n.leaf_insert(3, 99), "duplicate must be rejected");
        assert_eq!(n.leaf_remove(3), Some(30));
        assert_eq!(n.leaf_remove(3), None);
        assert_eq!(n.pairs(), 2);
    }

    #[test]
    fn routing_follows_fig4() {
        // Internal node: p0 covers (low, 10], P1 covers (10, 20], high 20.
        let mut n = internal_with(1, 100, &[(10, 101)]);
        n.low = Bound::Key(0);
        n.high = Bound::Key(20);
        n.link = Some(pid(200));
        assert_eq!(n.next(5), Next::Child(pid(100)));
        assert_eq!(n.next(10), Next::Child(pid(100))); // v_j < v ≤ v_{j+1}
        assert_eq!(n.next(11), Next::Child(pid(101)));
        assert_eq!(n.next(20), Next::Child(pid(101)));
        assert_eq!(n.next(21), Next::Link(pid(200)));
        assert!(n.wrong_node(0));
        assert!(!n.wrong_node(1));
    }

    #[test]
    fn leaf_routing() {
        let mut n = leaf_with(&[1, 2]);
        n.high = Bound::Key(2);
        n.link = Some(pid(9));
        assert_eq!(n.next(2), Next::Here);
        assert_eq!(n.next(3), Next::Link(pid(9)));
    }

    #[test]
    fn pointer_and_followval_views() {
        let mut n = internal_with(2, 10, &[(100, 11), (200, 12)]);
        n.low = Bound::NegInf;
        n.high = Bound::Key(300);
        assert_eq!(n.pointer_count(), 3);
        assert_eq!(n.pointer(0), pid(10));
        assert_eq!(n.pointer(1), pid(11));
        assert_eq!(n.pointer(2), pid(12));
        assert_eq!(n.followval(0), Bound::Key(100));
        assert_eq!(n.followval(1), Bound::Key(200));
        assert_eq!(n.followval(2), Bound::Key(300));
        assert_eq!(n.find_pointer(pid(11)), Some(1));
        assert_eq!(n.find_pointer(pid(99)), None);
        assert_eq!(n.find_pair(pid(11), Bound::Key(200)), Some(1));
        assert_eq!(
            n.find_pair(pid(11), Bound::Key(999)),
            None,
            "footnote 14: v must follow p"
        );
        assert_eq!(
            n.find_pair(pid(12), Bound::Key(300)),
            Some(2),
            "rightmost pointer pairs with high"
        );
    }

    #[test]
    fn separator_insert_position() {
        let mut n = internal_with(1, 10, &[(100, 11), (300, 13)]);
        n.internal_insert_sep(200, pid(12));
        assert_eq!(n.entries, vec![(100, 11), (200, 12), (300, 13)]);
        // The new pointer is the one immediately following the new key.
        assert_eq!(n.pointer(2), pid(12));
    }

    #[test]
    fn leaf_split_keeps_both_halves_at_least_k() {
        for n_pairs in [3usize, 4, 5, 8, 9] {
            let keys: Vec<Key> = (1..=n_pairs as u64).map(|i| i * 10).collect();
            let mut a = leaf_with(&keys);
            a.high = Bound::PosInf;
            a.link = None;
            let b = a.clone();
            let mut left = b.clone();
            let right = left.split(pid(77));
            assert_eq!(left.pairs() + right.pairs(), n_pairs);
            assert!(left.pairs() >= n_pairs / 2);
            assert!(right.pairs() >= n_pairs / 2);
            // A's new high is its largest remaining key — stored twice (§2.1).
            assert_eq!(left.high, Bound::Key(left.entries.last().unwrap().0));
            assert_eq!(right.low, left.high);
            assert_eq!(right.high, Bound::PosInf);
            assert_eq!(left.link, Some(pid(77)));
            assert_eq!(right.link, None);
            // All keys preserved, in order, split at the boundary.
            let merged: Vec<Key> = left
                .entries
                .iter()
                .chain(&right.entries)
                .map(|e| e.0)
                .collect();
            assert_eq!(merged, keys);
        }
    }

    #[test]
    fn internal_split_promotes_middle_key() {
        // 5 keys, 6 pointers.
        let mut a = internal_with(1, 1, &[(10, 2), (20, 3), (30, 4), (40, 5), (50, 6)]);
        a.high = Bound::Key(60);
        a.link = Some(pid(99));
        let b = a.split(pid(50));
        // middle key index 2 → (30, P4) promoted.
        assert_eq!(a.entries, vec![(10, 2), (20, 3)]);
        assert_eq!(a.high, Bound::Key(30));
        assert_eq!(a.link, Some(pid(50)));
        assert_eq!(b.p0, Some(pid(4)));
        assert_eq!(b.entries, vec![(40, 5), (50, 6)]);
        assert_eq!(b.low, Bound::Key(30));
        assert_eq!(b.high, Bound::Key(60));
        assert_eq!(b.link, Some(pid(99)));
        // Total pointers preserved: 3 + 3 = 6.
        assert_eq!(a.pointer_count() + b.pointer_count(), 6);
    }

    #[test]
    fn codec_roundtrip_exhaustive_fields() {
        let mut n = internal_with(3, 7, &[(11, 8), (22, 9)]);
        n.is_root = true;
        n.low = Bound::Key(5);
        n.high = Bound::PosInf;
        n.link = None;
        let decoded = Node::decode(&n.encode(4096)).unwrap();
        assert_eq!(decoded, n);

        let mut d = leaf_with(&[1]);
        d.deleted = true;
        d.merge_target = Some(pid(4));
        d.low = Bound::NegInf;
        d.high = Bound::Key(9);
        d.link = Some(pid(5));
        let decoded = Node::decode(&d.encode(256)).unwrap();
        assert_eq!(decoded, d);
    }

    #[test]
    fn decode_rejects_garbage() {
        let page = Page::zeroed(256);
        assert!(matches!(Node::decode(&page), Err(TreeError::Corrupt(_))));
        let mut page = Node::new_leaf().encode(256);
        page.bytes_mut()[6] = 9; // bad low tag
        assert!(matches!(Node::decode(&page), Err(TreeError::Corrupt(_))));
        let mut page = Node::new_leaf().encode(256);
        page.bytes_mut()[4] = 0xFF; // absurd count
        page.bytes_mut()[5] = 0xFF;
        assert!(matches!(Node::decode(&page), Err(TreeError::Corrupt(_))));
    }

    #[test]
    fn capacity_math() {
        assert_eq!(max_pairs_for_page(4096), (4096 - HEADER_LEN) / PAIR_LEN);
        assert_eq!(max_pairs_for_page(HEADER_LEN), 0);
        assert_eq!(max_pairs_for_page(0), 0);
    }

    // ------------------------------------------------------------------
    // rearrange
    // ------------------------------------------------------------------

    fn adjacent_leaves(a_keys: &[Key], b_keys: &[Key]) -> (Node, Node) {
        let mut a = leaf_with(a_keys);
        let mut b = leaf_with(b_keys);
        let sep = Bound::Key(*a_keys.iter().max().unwrap_or(&0));
        a.low = Bound::NegInf;
        a.high = sep;
        a.link = Some(pid(2));
        b.low = sep;
        b.high = Bound::PosInf;
        b.link = None;
        (a, b)
    }

    #[test]
    fn rearrange_none_when_both_full_enough() {
        let (mut a, mut b) = adjacent_leaves(&[1, 2], &[3, 4]);
        let a0 = a.clone();
        let b0 = b.clone();
        assert_eq!(rearrange(&mut a, &mut b, pid(1), 2), Rearrange::None);
        assert_eq!(a, a0);
        assert_eq!(b, b0);
    }

    #[test]
    fn rearrange_merges_small_leaves() {
        let (mut a, mut b) = adjacent_leaves(&[1], &[5, 9]);
        assert_eq!(rearrange(&mut a, &mut b, pid(1), 2), Rearrange::Merged);
        assert_eq!(
            a.entries.iter().map(|e| e.0).collect::<Vec<_>>(),
            vec![1, 5, 9]
        );
        assert_eq!(a.high, Bound::PosInf, "A takes B's high value");
        assert_eq!(a.link, None, "A takes B's link");
        assert!(b.deleted);
        assert_eq!(b.merge_target, Some(pid(1)));
        assert!(b.entries.is_empty());
    }

    #[test]
    fn rearrange_balances_leaves() {
        // k=2: a has 1, b has 4 → total 5 > 2k, redistribute.
        let (mut a, mut b) = adjacent_leaves(&[1], &[5, 6, 7, 8]);
        let r = rearrange(&mut a, &mut b, pid(1), 2);
        assert_eq!(r, Rearrange::Balanced { gainer: Side::Left });
        assert!(a.pairs() >= 2 && b.pairs() >= 2);
        assert_eq!(a.high, b.low);
        assert_eq!(a.high, Bound::Key(a.entries.last().unwrap().0));
        let all: Vec<Key> = a.entries.iter().chain(&b.entries).map(|e| e.0).collect();
        assert_eq!(all, vec![1, 5, 6, 7, 8]);
        assert_eq!(b.high, Bound::PosInf);
    }

    #[test]
    fn rearrange_balances_leaves_rightward() {
        // a has 4, b has 1 → data must flow right.
        let mut a = leaf_with(&[1, 2, 3, 4]);
        let mut b = leaf_with(&[9]);
        a.high = Bound::Key(4);
        a.link = Some(pid(2));
        b.low = Bound::Key(4);
        b.high = Bound::PosInf;
        let r = rearrange(&mut a, &mut b, pid(1), 2);
        assert_eq!(
            r,
            Rearrange::Balanced {
                gainer: Side::Right
            }
        );
        assert!(a.pairs() >= 2 && b.pairs() >= 2);
        assert_eq!(a.high, b.low);
    }

    #[test]
    fn rearrange_merges_internal_with_separator() {
        // k=2, internal: a has 1 pair, b has 2 pairs → 1+2+1(sep) = 4 ≤ 2k.
        let mut a = internal_with(1, 10, &[(5, 11)]);
        a.high = Bound::Key(9);
        a.link = Some(pid(2));
        let mut b = internal_with(1, 20, &[(15, 21), (25, 22)]);
        b.low = Bound::Key(9);
        b.high = Bound::Key(30);
        b.link = Some(pid(3));
        let r = rearrange(&mut a, &mut b, pid(1), 2);
        assert_eq!(r, Rearrange::Merged);
        // The old separator 9 materializes, pointing at b's old p0.
        assert_eq!(a.entries, vec![(5, 11), (9, 20), (15, 21), (25, 22)]);
        assert_eq!(a.high, Bound::Key(30));
        assert_eq!(a.link, Some(pid(3)));
        assert!(b.deleted);
    }

    #[test]
    fn rearrange_internal_merge_respects_extra_separator_pair() {
        // k=2, a: 2 pairs? no — one side must be under-full. a empty-ish:
        // a has 0 pairs (only p0), b has 3 pairs: 0+3+1 = 4 ≤ 4 → merge.
        let mut a = internal_with(1, 10, &[]);
        a.high = Bound::Key(9);
        a.link = Some(pid(2));
        let mut b = internal_with(1, 20, &[(15, 21), (25, 22), (35, 23)]);
        b.low = Bound::Key(9);
        b.high = Bound::PosInf;
        let r = rearrange(&mut a, &mut b, pid(1), 2);
        assert_eq!(r, Rearrange::Merged);
        assert_eq!(a.pairs(), 4);
        assert_eq!(a.pointer(0), pid(10));
        assert_eq!(a.pointer(1), pid(20));
    }

    #[test]
    fn rearrange_balances_internal() {
        // k=2, a has 1 pair, b has 4 pairs: total incl. separator = 6 > 4.
        let mut a = internal_with(1, 10, &[(5, 11)]);
        a.high = Bound::Key(9);
        a.link = Some(pid(2));
        let mut b = internal_with(1, 20, &[(15, 21), (25, 22), (35, 23), (45, 24)]);
        b.low = Bound::Key(9);
        b.high = Bound::PosInf;
        let r = rearrange(&mut a, &mut b, pid(1), 2);
        assert!(matches!(r, Rearrange::Balanced { gainer: Side::Left }));
        assert!(a.pairs() >= 2 && b.pairs() >= 2);
        assert_eq!(a.high, b.low);
        // Pointer multiset is preserved.
        let mut ptrs: Vec<u32> = (0..a.pointer_count())
            .map(|j| a.pointer(j).to_raw())
            .chain((0..b.pointer_count()).map(|j| b.pointer(j).to_raw()))
            .collect();
        ptrs.sort_unstable();
        assert_eq!(ptrs, vec![10, 11, 20, 21, 22, 23, 24]);
        // Key ordering across the boundary holds.
        assert!(a.entries.last().unwrap().0 < a.high.expect_key("sep"));
    }

    #[test]
    fn rearrange_merge_of_empty_left_leaf() {
        let (mut a, mut b) = adjacent_leaves(&[], &[5, 9]);
        a.high = Bound::Key(3);
        b.low = Bound::Key(3);
        assert_eq!(rearrange(&mut a, &mut b, pid(1), 2), Rearrange::Merged);
        assert_eq!(a.pairs(), 2);
    }

    #[test]
    fn combined_pairs_counts_separator_for_internal() {
        let a = internal_with(1, 1, &[(5, 2)]);
        let b = internal_with(1, 3, &[(15, 4)]);
        assert_eq!(combined_pairs(&a, &b), 3);
        let la = leaf_with(&[1]);
        let lb = leaf_with(&[2]);
        assert_eq!(combined_pairs(&la, &lb), 2);
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn pid(n: u32) -> PageId {
        PageId::from_raw(n).unwrap()
    }

    proptest! {
        #[test]
        fn codec_roundtrip(keys in proptest::collection::btree_set(0u64..1_000_000, 0..50),
                           leaf in any::<bool>(),
                           root in any::<bool>(),
                           level in 0u8..12) {
            let mut n = if leaf { Node::new_leaf() } else { Node::new_internal(level) };
            n.is_root = root;
            n.level = level;
            if !leaf { n.p0 = Some(pid(1)); }
            n.entries = keys.iter().enumerate().map(|(i, &k)| (k, i as u64 + 2)).collect();
            if !leaf && n.entries.is_empty() { n.p0 = Some(pid(1)); }
            let decoded = Node::decode(&n.encode(4096)).unwrap();
            prop_assert_eq!(decoded, n);
        }

        #[test]
        fn leaf_split_preserves_and_orders(keys in proptest::collection::btree_set(0u64..1_000_000, 3..64)) {
            let mut a = Node::new_leaf();
            a.entries = keys.iter().map(|&k| (k, k)).collect();
            a.high = Bound::PosInf;
            let orig = a.entries.clone();
            let b = a.split(pid(9));
            let got: Vec<(u64, u64)> = a.entries.iter().chain(&b.entries).copied().collect();
            prop_assert_eq!(got, orig);
            prop_assert_eq!(a.high, b.low);
            prop_assert!(a.pairs().abs_diff(b.pairs()) <= 1);
            prop_assert!(Bound::Key(a.entries.last().unwrap().0) <= a.high);
            prop_assert!(Bound::Key(b.entries[0].0) > b.low);
        }

        #[test]
        fn internal_split_preserves_pointers(n_keys in 3usize..40) {
            let mut a = Node::new_internal(1);
            a.p0 = Some(pid(1000));
            a.entries = (0..n_keys).map(|i| ((i as u64 + 1) * 10, 2000 + i as u64)).collect();
            a.high = Bound::PosInf;
            let before: Vec<u64> = std::iter::once(1000u64).chain(a.entries.iter().map(|e| e.1)).collect();
            let b = a.split(pid(9));
            let after: Vec<u64> = (0..a.pointer_count()).map(|j| u64::from(a.pointer(j).to_raw()))
                .chain((0..b.pointer_count()).map(|j| u64::from(b.pointer(j).to_raw())))
                .collect();
            prop_assert_eq!(before, after);
            prop_assert_eq!(a.high, b.low);
            // One key was promoted (it lives on as a.high only).
            prop_assert_eq!(a.pairs() + b.pairs(), n_keys - 1);
        }

        #[test]
        fn rearrange_invariants(a_keys in proptest::collection::btree_set(0u64..500, 0..10),
                                b_keys in proptest::collection::btree_set(500u64..1000, 0..10),
                                k in 1usize..6) {
            let mut a = Node::new_leaf();
            a.entries = a_keys.iter().map(|&x| (x, x)).collect();
            a.high = Bound::Key(499);
            a.link = Some(pid(2));
            let mut b = Node::new_leaf();
            b.entries = b_keys.iter().map(|&x| (x, x)).collect();
            b.low = Bound::Key(499);
            b.high = Bound::PosInf;
            let all: Vec<u64> = a.entries.iter().chain(&b.entries).map(|e| e.0).collect();
            let under = a.pairs() < k || b.pairs() < k;
            match rearrange(&mut a, &mut b, pid(1), k) {
                Rearrange::None => prop_assert!(!under),
                Rearrange::Merged => {
                    prop_assert!(under);
                    prop_assert!(a.pairs() <= 2 * k);
                    prop_assert!(b.deleted);
                    let got: Vec<u64> = a.entries.iter().map(|e| e.0).collect();
                    prop_assert_eq!(got, all);
                    prop_assert_eq!(a.high, Bound::PosInf);
                }
                Rearrange::Balanced { .. } => {
                    prop_assert!(under);
                    prop_assert!(a.pairs() >= k && b.pairs() >= k);
                    prop_assert_eq!(a.high, b.low);
                    let got: Vec<u64> = a.entries.iter().chain(&b.entries).map(|e| e.0).collect();
                    prop_assert_eq!(got, all);
                }
            }
        }

        /// Routing in place over the encoded page agrees with routing the
        /// decoded node (`next` + `leaf_get`), for leaves and internal
        /// nodes, live and deleted, at keys, between them and outside the
        /// bounds.
        #[test]
        fn route_in_place_matches_the_decoded_node(
            keys in proptest::collection::btree_set(1_000u64..2_000, 0..40),
            (leaf, deleted) in (any::<bool>(), any::<bool>()),
            (low, high) in (0u8..3, 0u8..3),
            probes in proptest::collection::vec(0u64..3_000, 1..16),
        ) {
            let mut n = if leaf { Node::new_leaf() } else { Node::new_internal(2) };
            n.low = match low { 0 => Bound::NegInf, l => Bound::Key(500 + u64::from(l) * 100) };
            n.high = match high { 0 => Bound::PosInf, h => Bound::Key(2_000 + u64::from(h) * 100) };
            n.link = (high != 0).then(|| pid(77));
            n.entries = keys.iter().enumerate().map(|(i, &k)| (k, i as u64 + 10)).collect();
            if !leaf {
                n.p0 = Some(pid(5));
            }
            if deleted {
                // What a merge leaves behind (`rearrange`).
                n.deleted = true;
                n.merge_target = Some(pid(3));
                n.entries.clear();
                n.p0 = None;
                n.link = None;
            }
            let page = n.encode(4096);
            prop_assert_eq!(&Node::decode(&page).unwrap(), &n);
            let probe = PageProbe::new(&page);
            let at = keys.iter().flat_map(|&k| [k - 1, k, k + 1]);
            for v in at.chain(probes).chain([0, u64::MAX]) {
                prop_assert_eq!(Node::route(&probe, v).unwrap(), n.route_of(v));
            }
        }

        /// Bytes that pass the magic check but are otherwise random — what
        /// a torn frame can look like — never make `route` panic.
        #[test]
        fn route_over_random_bytes_never_panics(
            bytes in proptest::collection::vec(any::<u8>(), 0..512),
            v in any::<u64>(),
        ) {
            let mut bytes = bytes;
            if bytes.len() >= HEADER_LEN {
                // Pass the header checks often enough to reach the search.
                bytes[0..2].copy_from_slice(&MAGIC.to_le_bytes());
                let count = u16::from_le_bytes([bytes[4], bytes[5]]) as usize
                    % (max_pairs_for_page(bytes.len()) + 1);
                bytes[4..6].copy_from_slice(&(count as u16).to_le_bytes());
                bytes[6] %= 3;
                bytes[7] %= 3;
            }
            let _ = Node::route(&PageProbe::new(&bytes), v);
        }
    }
}

#[cfg(test)]
mod fuzz {
    use super::*;
    use proptest::prelude::*;

    proptest! {
        /// Decoding arbitrary bytes must never panic — it may only return
        /// a node or a Corrupt error. (Traversals rely on this: a freed
        /// page reallocated with unrelated content is answered with a
        /// restart, not a crash.)
        #[test]
        fn decode_arbitrary_bytes_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..512)) {
            let _ = Node::decode(&bytes);
        }

        /// Decoding a valid page with a few corrupted bytes never panics,
        /// and re-encoding whatever decodes successfully round-trips.
        #[test]
        fn decode_bitflipped_page_never_panics(
            keys in proptest::collection::btree_set(0u64..1000, 0..20),
            flips in proptest::collection::vec((0usize..512, any::<u8>()), 1..8),
        ) {
            let mut n = Node::new_leaf();
            n.entries = keys.into_iter().map(|k| (k, k)).collect();
            let mut page = n.encode(512);
            for (off, val) in flips {
                page.bytes_mut()[off % 512] = val;
            }
            if let Ok(decoded) = Node::decode(&page) {
                let re = Node::decode(&decoded.encode(512)).unwrap();
                prop_assert_eq!(re, decoded);
            }
        }
    }
}
