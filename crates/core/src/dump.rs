//! Human-readable rendering of trees and nodes — used by the `fig1`–`fig3`
//! binaries that regenerate the paper's structural figures, and handy when
//! debugging.

use crate::error::Result;
use crate::node::{Node, NodeKind};
use crate::tree::BLinkTree;
use std::fmt::Write as _;

/// Renders one node in the layout of the paper's Fig. 1:
/// `p0 v1 p1 v2 p2 … vi pi | high, link`.
pub fn render_node(pid: blink_pagestore::PageId, node: &Node) -> String {
    let mut s = String::new();
    let kind = match node.kind {
        NodeKind::Leaf => "leaf",
        NodeKind::Internal => "internal",
    };
    let _ = write!(
        s,
        "{pid} [{kind}{}{} level={} low={} high={} link={}]: ",
        if node.is_root { " root" } else { "" },
        if node.deleted { " DELETED" } else { "" },
        node.level,
        node.low,
        node.high,
        node.link.map_or("nil".to_string(), |l| l.to_string()),
    );
    if node.kind == NodeKind::Internal {
        let _ = write!(
            s,
            "{} ",
            node.p0.map_or("p0=?".to_string(), |p| p.to_string())
        );
    }
    for &(k, v) in &node.entries {
        if node.kind == NodeKind::Internal {
            let _ = write!(s, "| {k} | P{v} ", v = v);
        } else {
            let _ = write!(s, "({k} -> {v}) ");
        }
    }
    s.trim_end().to_string()
}

impl BLinkTree {
    /// Renders the whole tree, one level per block, top level first.
    pub fn render(&self) -> Result<String> {
        let prime = self.read_prime()?;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "prime: height={} root={} leftmost={:?}",
            prime.height,
            prime.root,
            prime
                .leftmost
                .iter()
                .map(|p| p.to_string())
                .collect::<Vec<_>>()
        );
        for level in (0..prime.height as u8).rev() {
            let _ = writeln!(out, "level {level}:");
            let mut cur = prime.leftmost_at(level);
            while let Some(pid) = cur {
                match self.try_read(pid, Node::decode_probe)? {
                    Some(node) => {
                        let _ = writeln!(out, "  {}", render_node(pid, &node));
                        cur = node.link;
                    }
                    None => {
                        let _ = writeln!(out, "  {pid} <unreadable>");
                        break;
                    }
                }
            }
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::TreeConfig;
    use blink_pagestore::{PageStore, StoreConfig};

    #[test]
    fn render_shows_structure() {
        let store = PageStore::new(StoreConfig::with_page_size(4096));
        let t = BLinkTree::create(store, TreeConfig::with_k(2)).unwrap();
        let mut s = t.session();
        for i in 1..=30u64 {
            t.insert(&mut s, i, i * 100).unwrap();
        }
        let text = t.render().unwrap();
        assert!(text.contains("prime: height="));
        assert!(text.contains("level 0:"));
        assert!(text.contains("level 1:"));
        assert!(text.contains("root"));
        assert!(text.contains("(1 -> 100)"));
    }

    #[test]
    fn render_node_marks_deleted() {
        let mut n = Node::new_leaf();
        n.deleted = true;
        let s = render_node(blink_pagestore::PageId::from_raw(3).unwrap(), &n);
        assert!(s.contains("DELETED"));
        assert!(s.contains("P3"));
    }
}
