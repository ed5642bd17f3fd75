//! Streaming KV scans: the core index cursor joined with record fetches.

use crate::db::{fetch, Db};
use blink_pagestore::Session;
use sagiv_blink::scan::Scan;
use sagiv_blink::{BLinkTree, Result};

/// A streaming `(key, value)` cursor over an inclusive key range, from
/// [`crate::DbSession::scan`].
///
/// Wraps the index's lazy [`Scan`] cursor (one leaf buffered at a time,
/// each read by an unlatched, validated probe that falls back to a latched
/// read, overtaking-safe via the link-chase protocol) and follows each
/// leaf's record id to its value as it streams, through the same fetch
/// loop as a get. A record freed mid-scan by a concurrent overwrite or
/// delete is asked for again through the index: replaced values are
/// fetched fresh, deleted keys are skipped — the scan is weakly
/// consistent, like every lock-free B-link scan. A leaf id that names no
/// record ends the scan with [`sagiv_blink::TreeError::Corrupt`].
#[derive(Debug)]
pub struct DbScan<'a, 'db> {
    db: &'db Db,
    session: &'a mut Session,
    cursor: Scan,
    poisoned: bool,
}

impl<'a, 'db> DbScan<'a, 'db> {
    pub(crate) fn new(db: &'db Db, session: &'a mut Session, lo: u64, hi: u64) -> DbScan<'a, 'db> {
        session.begin_op();
        DbScan {
            cursor: db.tree.scan_cursor(lo, hi),
            db,
            session,
            poisoned: false,
        }
    }

    /// The next pair in the range, or `None` past its end. A key deleted
    /// under the scan reads as no record and is skipped.
    fn step(&mut self) -> Result<Option<(u64, Vec<u8>)>> {
        while let Some((key, raw)) = self.cursor.next(&self.db.tree, self.session)? {
            let read = fetch(
                self.db,
                self.session,
                key,
                Some(raw),
                BLinkTree::search_in_op,
                <[u8]>::to_vec,
            );
            if let Some(value) = read? {
                return Ok(Some((key, value)));
            }
        }
        Ok(None)
    }
}

impl Iterator for DbScan<'_, '_> {
    type Item = Result<(u64, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.poisoned {
            return None;
        }
        let next = self.step().transpose();
        self.poisoned = matches!(next, Some(Err(_)));
        next
    }
}

impl Drop for DbScan<'_, '_> {
    fn drop(&mut self) {
        self.session.end_op();
    }
}
