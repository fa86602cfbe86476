//! Simulated kernel memory with KASAN-style failure detection.
//!
//! The paper instruments the kernel with KASAN (§5) so that memory-safety
//! violations manifest as observable failures. This module provides the
//! equivalent shadow state:
//!
//! * the NULL page faults on any access;
//! * heap allocations carry redzones (`[REDZONE]` bytes on each side) that
//!   fault as slab-out-of-bounds;
//! * freed allocations enter a quarantine — their addresses are never
//!   reused, so later accesses fault as use-after-free (KASAN's quarantine
//!   behaviour, which is what makes UAF deterministic to detect);
//! * a `kfree` of an already-freed object faults as double-free;
//! * unmapped addresses fault as general protection faults;
//! * allocations marked `must_free` that survive the run are leaks.

use crate::addr::{
    region_of,
    Addr,
    Region,
    GLOBALS_BASE,
    GLOBAL_SLOT,
    HEAP_BASE,
    REDZONE, //
};
use crate::failure::FailureKind;
use std::collections::{
    BTreeMap,
    HashMap, //
};
use std::sync::Arc;

/// Lifecycle state of a heap allocation.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AllocState {
    /// Allocated and usable.
    Live,
    /// Freed and quarantined; any access is a use-after-free.
    Freed,
}

/// One heap allocation (never recycled — KASAN quarantine).
#[derive(Clone, Debug)]
pub struct Allocation {
    /// Base address of the usable object memory.
    pub base: Addr,
    /// Usable size in bytes.
    pub size: u64,
    /// Live or freed.
    pub state: AllocState,
    /// Whether the end-of-run leak check applies.
    pub must_free: bool,
    /// Debug tag (static object name, or empty).
    pub tag: String,
}

impl Allocation {
    /// Whether `addr` lies within the usable object memory.
    #[must_use]
    pub fn contains(&self, addr: Addr) -> bool {
        addr.0 >= self.base.0 && addr.0 < self.base.0 + self.size
    }

    /// Whether `addr` lies within the allocation's redzones.
    #[must_use]
    pub fn in_redzone(&self, addr: Addr) -> bool {
        let lo = self.base.0.saturating_sub(REDZONE);
        let hi = self.base.0 + self.size + REDZONE;
        (lo..hi).contains(&addr.0) && !self.contains(addr)
    }
}

/// A detected memory fault, mapped 1:1 onto a [`FailureKind`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct MemFault {
    /// The failure class.
    pub kind: FailureKind,
    /// The faulting address.
    pub addr: Addr,
}

/// log2 of the address span one copy-on-write page covers (512 bytes).
const PAGE_SHIFT: u64 = 9;

/// One copy-on-write memory page: the cells whose addresses fall in the
/// same 512-byte span, sorted by their *exact* (possibly unaligned)
/// address. Two cells at distinct raw addresses are distinct even when
/// they overlap byte-wise — the simulator's cell model is keyed on the
/// address the instruction used, and the page preserves that exactly.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct Page(Vec<(u64, u64)>);

impl Page {
    fn get(&self, addr: u64) -> Option<u64> {
        self.0
            .binary_search_by_key(&addr, |&(a, _)| a)
            .ok()
            .map(|i| self.0[i].1)
    }

    fn set(&mut self, addr: u64, val: u64) {
        match self.0.binary_search_by_key(&addr, |&(a, _)| a) {
            Ok(i) => self.0[i].1 = val,
            Err(i) => self.0.insert(i, (addr, val)),
        }
    }
}

/// Simulated kernel memory: value cells plus allocator shadow state.
///
/// The representation is structurally shared: cells live in immutable
/// [`Arc`]-backed pages and the allocator shadow map sits behind its own
/// `Arc`, so `Memory::clone` (what [`crate::Engine::snapshot`] does) is a
/// reference-count bump per page rather than a copy of every cell. Writes
/// go through [`Arc::make_mut`] and copy only the one dirty page — O(dirty)
/// snapshots, the copy-on-write discipline a hypervisor gets from its MMU.
#[derive(Clone, Debug, Default)]
pub struct Memory {
    pages: HashMap<u64, Arc<Page>>,
    /// Allocations ordered by base address; bases strictly increase and are
    /// never reused, so a range query finds the allocation nearest an
    /// address.
    allocs: Arc<BTreeMap<u64, Allocation>>,
    next_heap: u64,
    n_globals: u32,
}

impl Memory {
    /// Creates memory with `n_globals` declared global slots.
    #[must_use]
    pub fn new(n_globals: u32) -> Self {
        Memory {
            pages: HashMap::new(),
            allocs: Arc::new(BTreeMap::new()),
            next_heap: HEAP_BASE + REDZONE,
            n_globals,
        }
    }

    fn cell(&self, addr: u64) -> u64 {
        self.pages
            .get(&(addr >> PAGE_SHIFT))
            .and_then(|p| p.get(addr))
            .unwrap_or(0)
    }

    fn set_cell(&mut self, addr: u64, val: u64) {
        let page = self.pages.entry(addr >> PAGE_SHIFT).or_default();
        Arc::make_mut(page).set(addr, val);
    }

    /// Allocates `size` bytes (rounded up to 8) of zeroed heap memory,
    /// separated from neighbours by redzones.
    pub fn alloc(&mut self, size: u64, must_free: bool, tag: &str) -> Addr {
        let size = size.max(8).div_ceil(8) * 8;
        let base = Addr(self.next_heap);
        self.next_heap += size + 2 * REDZONE;
        Arc::make_mut(&mut self.allocs).insert(
            base.0,
            Allocation {
                base,
                size,
                state: AllocState::Live,
                must_free,
                tag: tag.to_string(),
            },
        );
        base
    }

    /// Frees the allocation based at exactly `ptr`.
    ///
    /// # Errors
    ///
    /// * [`FailureKind::DoubleFree`] when the object is already freed;
    /// * [`FailureKind::GeneralProtectionFault`] when `ptr` is not the base
    ///   of any allocation (invalid free).
    pub fn free(&mut self, ptr: Addr) -> Result<(), MemFault> {
        // Probe before unsharing: a failing free must not copy the map.
        match self.allocs.get(&ptr.0).map(|a| a.state) {
            Some(AllocState::Live) => {
                Arc::make_mut(&mut self.allocs)
                    .get_mut(&ptr.0)
                    .expect("probed above")
                    .state = AllocState::Freed;
                Ok(())
            }
            Some(AllocState::Freed) => Err(MemFault {
                kind: FailureKind::DoubleFree,
                addr: ptr,
            }),
            None => Err(MemFault {
                kind: FailureKind::GeneralProtectionFault,
                addr: ptr,
            }),
        }
    }

    /// The allocation whose object-or-redzone range covers `addr`, if any.
    #[must_use]
    pub fn alloc_covering(&self, addr: Addr) -> Option<&Allocation> {
        self.allocs
            .range(..=addr.0)
            .next_back()
            .map(|(_, a)| a)
            .filter(|a| a.contains(addr) || a.in_redzone(addr))
            .or_else(|| {
                // The redzone *before* an allocation lies below its base, so
                // also probe the next allocation upward.
                self.allocs
                    .range(addr.0..)
                    .next()
                    .map(|(_, a)| a)
                    .filter(|a| a.in_redzone(addr))
            })
    }

    /// Validates that `addr` may be accessed.
    ///
    /// # Errors
    ///
    /// Returns the KASAN-style fault for the address, if any.
    pub fn check_access(&self, addr: Addr) -> Result<(), MemFault> {
        match region_of(addr) {
            Region::NullPage => Err(MemFault {
                kind: FailureKind::NullDeref,
                addr,
            }),
            Region::Globals => {
                let limit = GLOBALS_BASE + u64::from(self.n_globals) * GLOBAL_SLOT;
                if addr.0 < limit {
                    Ok(())
                } else {
                    Err(MemFault {
                        kind: FailureKind::GeneralProtectionFault,
                        addr,
                    })
                }
            }
            Region::Heap => match self.alloc_covering(addr) {
                Some(a) if a.contains(addr) => match a.state {
                    AllocState::Live => Ok(()),
                    AllocState::Freed => Err(MemFault {
                        kind: FailureKind::UseAfterFree,
                        addr,
                    }),
                },
                Some(a) if a.state == AllocState::Live => Err(MemFault {
                    kind: FailureKind::SlabOutOfBounds,
                    addr,
                }),
                // Redzone of a freed object reads as use-after-free, which
                // is how KASAN reports near-miss accesses to freed slabs.
                Some(_) => Err(MemFault {
                    kind: FailureKind::UseAfterFree,
                    addr,
                }),
                None => Err(MemFault {
                    kind: FailureKind::GeneralProtectionFault,
                    addr,
                }),
            },
            Region::Unmapped => Err(MemFault {
                kind: FailureKind::GeneralProtectionFault,
                addr,
            }),
        }
    }

    /// Reads 8 bytes after access validation. Unwritten mapped cells read 0.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::check_access`] faults.
    pub fn read(&self, addr: Addr) -> Result<u64, MemFault> {
        self.check_access(addr)?;
        Ok(self.cell(addr.0))
    }

    /// Writes 8 bytes after access validation.
    ///
    /// # Errors
    ///
    /// Propagates [`Self::check_access`] faults.
    pub fn write(&mut self, addr: Addr, val: u64) -> Result<(), MemFault> {
        self.check_access(addr)?;
        self.set_cell(addr.0, val);
        Ok(())
    }

    /// Reads without validation (engine-internal, e.g. leak bookkeeping).
    #[must_use]
    pub fn read_raw(&self, addr: Addr) -> u64 {
        self.cell(addr.0)
    }

    /// Writes without validation (engine-internal initialization).
    pub fn write_raw(&mut self, addr: Addr, val: u64) {
        self.set_cell(addr.0, val);
    }

    /// Live `must_free` allocations — non-empty means a memory leak.
    #[must_use]
    pub fn leaked(&self) -> Vec<&Allocation> {
        self.allocs
            .values()
            .filter(|a| a.must_free && a.state == AllocState::Live)
            .collect()
    }

    /// All allocations (for inspection and tests).
    pub fn allocations(&self) -> impl Iterator<Item = &Allocation> {
        self.allocs.values()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_then_rw_roundtrip() {
        let mut m = Memory::new(0);
        let p = m.alloc(16, false, "obj");
        m.write(p, 42).unwrap();
        assert_eq!(m.read(p).unwrap(), 42);
        assert_eq!(m.read(p.offset(8)).unwrap(), 0);
    }

    #[test]
    fn null_deref_detected() {
        let m = Memory::new(0);
        let e = m.read(Addr::NULL).unwrap_err();
        assert_eq!(e.kind, FailureKind::NullDeref);
        let e = m.read(Addr(0x10)).unwrap_err();
        assert_eq!(e.kind, FailureKind::NullDeref);
    }

    #[test]
    fn use_after_free_detected() {
        let mut m = Memory::new(0);
        let p = m.alloc(8, false, "");
        m.free(p).unwrap();
        let e = m.read(p).unwrap_err();
        assert_eq!(e.kind, FailureKind::UseAfterFree);
        let e = m.write(p, 1).unwrap_err();
        assert_eq!(e.kind, FailureKind::UseAfterFree);
    }

    #[test]
    fn double_free_detected() {
        let mut m = Memory::new(0);
        let p = m.alloc(8, false, "");
        m.free(p).unwrap();
        let e = m.free(p).unwrap_err();
        assert_eq!(e.kind, FailureKind::DoubleFree);
    }

    #[test]
    fn invalid_free_is_gpf() {
        let mut m = Memory::new(0);
        let e = m.free(Addr(HEAP_BASE + 4096)).unwrap_err();
        assert_eq!(e.kind, FailureKind::GeneralProtectionFault);
    }

    #[test]
    fn redzone_is_out_of_bounds() {
        let mut m = Memory::new(0);
        let p = m.alloc(16, false, "");
        let e = m.read(p.offset(16)).unwrap_err();
        assert_eq!(e.kind, FailureKind::SlabOutOfBounds);
        let e = m.read(Addr(p.0 - 8)).unwrap_err();
        assert_eq!(e.kind, FailureKind::SlabOutOfBounds);
    }

    #[test]
    fn adjacent_allocations_do_not_overlap() {
        let mut m = Memory::new(0);
        let a = m.alloc(8, false, "a");
        let b = m.alloc(8, false, "b");
        assert!(b.0 >= a.0 + 8 + REDZONE);
        m.write(a, 1).unwrap();
        m.write(b, 2).unwrap();
        assert_eq!(m.read(a).unwrap(), 1);
        assert_eq!(m.read(b).unwrap(), 2);
    }

    #[test]
    fn globals_bounds_checked() {
        let m = Memory::new(2);
        assert!(m.read(Addr(GLOBALS_BASE)).is_ok());
        assert!(m.read(Addr(GLOBALS_BASE + GLOBAL_SLOT)).is_ok());
        let e = m.read(Addr(GLOBALS_BASE + 2 * GLOBAL_SLOT)).unwrap_err();
        assert_eq!(e.kind, FailureKind::GeneralProtectionFault);
    }

    #[test]
    fn unmapped_is_gpf() {
        let m = Memory::new(0);
        let e = m.read(Addr(0x5000)).unwrap_err();
        assert_eq!(e.kind, FailureKind::GeneralProtectionFault);
    }

    #[test]
    fn leak_check_reports_only_must_free_live() {
        let mut m = Memory::new(0);
        let a = m.alloc(8, true, "leaky");
        let _b = m.alloc(8, false, "static");
        let c = m.alloc(8, true, "freed");
        m.free(c).unwrap();
        let leaked = m.leaked();
        assert_eq!(leaked.len(), 1);
        assert_eq!(leaked[0].base, a);
    }

    #[test]
    fn freed_neighbour_redzone_reports_uaf() {
        let mut m = Memory::new(0);
        let p = m.alloc(8, false, "");
        m.free(p).unwrap();
        let e = m.read(p.offset(8)).unwrap_err();
        assert_eq!(e.kind, FailureKind::UseAfterFree);
    }

    #[test]
    fn clone_shares_pages_until_written() {
        let mut m = Memory::new(1);
        let p = m.alloc(16, false, "obj");
        m.write(p, 1).unwrap();
        m.write_raw(Addr(GLOBALS_BASE), 10);
        let snap = m.clone();
        // Same page Arc — the clone copied nothing.
        assert!(Arc::ptr_eq(
            &m.pages[&(p.0 >> PAGE_SHIFT)],
            &snap.pages[&(p.0 >> PAGE_SHIFT)]
        ));
        // Mutating the original must not leak through the shared pages.
        m.write(p, 2).unwrap();
        m.write(p.offset(8), 3).unwrap();
        m.write_raw(Addr(GLOBALS_BASE), 11);
        m.free(p).unwrap();
        assert_eq!(snap.read(p).unwrap(), 1);
        assert_eq!(snap.read(p.offset(8)).unwrap(), 0);
        assert_eq!(snap.read_raw(Addr(GLOBALS_BASE)), 10);
        assert!(snap.allocations().all(|a| a.state == AllocState::Live));
        // And the original really did change.
        assert_eq!(m.read_raw(p), 2);
        assert_eq!(
            m.read(p.offset(8)).unwrap_err().kind,
            FailureKind::UseAfterFree
        );
    }

    #[test]
    fn unaligned_addresses_stay_distinct_cells() {
        // Cells are keyed by the exact address used: overlapping unaligned
        // writes never clobber each other (the seed's HashMap semantics).
        let mut m = Memory::new(0);
        let p = m.alloc(16, false, "");
        m.write(p, 1).unwrap();
        m.write(p.offset(1), 2).unwrap();
        m.write(p.offset(8), 3).unwrap();
        assert_eq!(m.read(p).unwrap(), 1);
        assert_eq!(m.read(p.offset(1)).unwrap(), 2);
        assert_eq!(m.read(p.offset(8)).unwrap(), 3);
    }

    #[test]
    fn alloc_size_rounds_up() {
        let mut m = Memory::new(0);
        let p = m.alloc(1, false, "");
        // A 1-byte request still yields an 8-byte slot.
        assert!(m.read(p).is_ok());
        assert!(m.read(p.offset(8)).is_err());
    }
}

#[cfg(test)]
mod prop_tests {
    use super::*;
    use proptest::prelude::*;

    /// Random alloc/free/access sequences never violate the shadow-state
    /// invariants: live objects read/write cleanly, freed objects always
    /// fault as UAF, disjoint allocations never alias, and the leak check
    /// reports exactly the live `must_free` set.
    #[test]
    fn allocator_invariants_hold() {
        let ops = prop::collection::vec((0u8..4, 0usize..12, 1u64..4), 1..60);
        proptest!(ProptestConfig::with_cases(128), |(ops in ops)| {
            let mut m = Memory::new(0);
            let mut allocs: Vec<(Addr, u64, bool, bool)> = Vec::new(); // base, size, must_free, live
            for (op, idx, words) in ops {
                match op {
                    0 => {
                        let base = m.alloc(words * 8, idx % 2 == 0, "t");
                        // No overlap with any prior allocation.
                        for &(b, sz, _, _) in &allocs {
                            prop_assert!(
                                base.0 >= b.0 + sz + crate::addr::REDZONE
                                    || base.0 + words * 8 <= b.0
                            );
                        }
                        allocs.push((base, words * 8, idx % 2 == 0, true));
                    }
                    1 => {
                        let n = allocs.len().max(1);
                        if let Some(entry) = allocs.get_mut(idx % n) {
                            if entry.3 {
                                prop_assert!(m.free(entry.0).is_ok());
                                entry.3 = false;
                            } else {
                                prop_assert_eq!(
                                    m.free(entry.0).unwrap_err().kind,
                                    FailureKind::DoubleFree
                                );
                            }
                        }
                    }
                    2 => {
                        if let Some(&(base, size, _, live)) = allocs.get(idx % allocs.len().max(1)) {
                            let a = base.offset((words * 8) % size);
                            if live {
                                prop_assert!(m.write(a, 7).is_ok());
                                prop_assert_eq!(m.read(a).unwrap(), 7);
                            } else {
                                prop_assert_eq!(
                                    m.read(a).unwrap_err().kind,
                                    FailureKind::UseAfterFree
                                );
                            }
                        }
                    }
                    _ => {
                        // Redzone probes on live allocations fault as OOB.
                        if let Some(&(base, size, _, live)) = allocs.get(idx % allocs.len().max(1)) {
                            if live {
                                prop_assert_eq!(
                                    m.read(base.offset(size)).unwrap_err().kind,
                                    FailureKind::SlabOutOfBounds
                                );
                            }
                        }
                    }
                }
            }
            let expected: Vec<Addr> = allocs
                .iter()
                .filter(|(_, _, mf, live)| *mf && *live)
                .map(|&(b, _, _, _)| b)
                .collect();
            let leaked: Vec<Addr> = m.leaked().iter().map(|a| a.base).collect();
            prop_assert_eq!(leaked, expected);
        });
    }
}
