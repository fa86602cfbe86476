//! Kernel linked-list semantics.
//!
//! Linux's `struct list_head` operations are modeled semantically: the list
//! *contents* live in a side table keyed by the list-head address, while
//! every operation still performs a visible memory access to the head
//! address (so list operations participate in data races, exactly like the
//! `fanout_link`/`fanout_unlink` races of CVE-2017-15649, §2.1).
//!
//! Integrity violations raise [`FailureKind::ListCorruption`]:
//!
//! * `list_add` of an item already on the list (the double-insertion the
//!   paper uses to show why enforcing only `B17 ⇒ A12` is a wrong fix);
//! * `list_del` of an item not on the list (`__list_del_entry` corruption).

use crate::{
    addr::Addr,
    failure::FailureKind,
    memory::MemFault, //
};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Side table holding the contents of every kernel list, keyed by the
/// address of the list head.
///
/// The table sits behind an [`Arc`], so cloning it (what
/// [`crate::Engine::snapshot`] does) is a reference-count bump; the first
/// mutation after a snapshot copies the map once ([`Arc::make_mut`]).
#[derive(Clone, Debug, Default)]
pub struct Lists {
    lists: Arc<BTreeMap<u64, Vec<u64>>>,
}

impl Lists {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Lists::default()
    }

    /// `list_add(item, head)`.
    ///
    /// # Errors
    ///
    /// [`FailureKind::ListCorruption`] if `item` is already on the list.
    pub fn add(&mut self, head: Addr, item: u64) -> Result<(), MemFault> {
        // Probe before unsharing: a failing add must not copy the table.
        if self.contains(head, item) {
            return Err(MemFault {
                kind: FailureKind::ListCorruption,
                addr: head,
            });
        }
        Arc::make_mut(&mut self.lists)
            .entry(head.0)
            .or_default()
            .push(item);
        Ok(())
    }

    /// `list_del(item, head)`.
    ///
    /// # Errors
    ///
    /// [`FailureKind::ListCorruption`] if `item` is not on the list.
    pub fn del(&mut self, head: Addr, item: u64) -> Result<(), MemFault> {
        let pos = self
            .lists
            .get(&head.0)
            .and_then(|l| l.iter().position(|&x| x == item));
        match pos {
            Some(i) => {
                Arc::make_mut(&mut self.lists)
                    .get_mut(&head.0)
                    .expect("probed above")
                    .remove(i);
                Ok(())
            }
            None => Err(MemFault {
                kind: FailureKind::ListCorruption,
                addr: head,
            }),
        }
    }

    /// Whether `item` is on the list at `head`.
    #[must_use]
    pub fn contains(&self, head: Addr, item: u64) -> bool {
        self.lists.get(&head.0).is_some_and(|l| l.contains(&item))
    }

    /// The first item of the list at `head`, or `None` when empty.
    #[must_use]
    pub fn first(&self, head: Addr) -> Option<u64> {
        self.lists.get(&head.0).and_then(|l| l.first().copied())
    }

    /// Number of items on the list at `head`.
    #[must_use]
    pub fn len(&self, head: Addr) -> usize {
        self.lists.get(&head.0).map_or(0, Vec::len)
    }

    /// Whether the list at `head` is empty.
    #[must_use]
    pub fn is_empty(&self, head: Addr) -> bool {
        self.len(head) == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const HEAD: Addr = Addr(0x1000_0000);

    #[test]
    fn add_contains_del_roundtrip() {
        let mut l = Lists::new();
        assert!(!l.contains(HEAD, 7));
        l.add(HEAD, 7).unwrap();
        assert!(l.contains(HEAD, 7));
        assert_eq!(l.first(HEAD), Some(7));
        l.del(HEAD, 7).unwrap();
        assert!(!l.contains(HEAD, 7));
        assert!(l.is_empty(HEAD));
    }

    #[test]
    fn double_add_corrupts() {
        let mut l = Lists::new();
        l.add(HEAD, 7).unwrap();
        let e = l.add(HEAD, 7).unwrap_err();
        assert_eq!(e.kind, FailureKind::ListCorruption);
    }

    #[test]
    fn del_absent_corrupts() {
        let mut l = Lists::new();
        let e = l.del(HEAD, 7).unwrap_err();
        assert_eq!(e.kind, FailureKind::ListCorruption);
    }

    #[test]
    fn lists_are_independent_per_head() {
        let mut l = Lists::new();
        let other = Addr(0x1000_0008);
        l.add(HEAD, 1).unwrap();
        assert!(!l.contains(other, 1));
        l.add(other, 1).unwrap();
        l.del(HEAD, 1).unwrap();
        assert!(l.contains(other, 1));
    }

    #[test]
    fn first_preserves_fifo_order() {
        let mut l = Lists::new();
        l.add(HEAD, 1).unwrap();
        l.add(HEAD, 2).unwrap();
        assert_eq!(l.first(HEAD), Some(1));
        l.del(HEAD, 1).unwrap();
        assert_eq!(l.first(HEAD), Some(2));
    }
}
