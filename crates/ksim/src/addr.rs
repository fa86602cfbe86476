//! Simulated kernel address space.
//!
//! The simulator models a flat 64-bit address space partitioned into regions
//! that mirror the memory classes AITIA's failure detectors care about:
//!
//! * the **NULL page** (`0x0 .. 0x1000`) — any access is a NULL-pointer
//!   dereference, the failure in the paper's Figure 1;
//! * the **globals region** — statically declared kernel variables
//!   (`po->running`, `po->fanout`, list heads, statistics counters, ...);
//! * the **heap region** — dynamically allocated objects (`kmalloc`), with
//!   KASAN-style redzones and a use-after-free quarantine (see
//!   [`crate::memory`]).
//!
//! Everything outside these regions is unmapped; touching it raises a
//! general protection fault, matching the "general protection fault" failure
//! class of the paper's Table 3.

/// A simulated kernel virtual address.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Addr(pub u64);

impl Addr {
    /// The NULL address.
    pub const NULL: Addr = Addr(0);

    /// Returns the address offset by `off` bytes.
    #[must_use]
    pub fn offset(self, off: u64) -> Addr {
        Addr(self.0.wrapping_add(off))
    }
}

impl core::fmt::Debug for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "Addr({:#x})", self.0)
    }
}

impl core::fmt::Display for Addr {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "{:#x}", self.0)
    }
}

/// Size of the NULL guard page.
pub const NULL_PAGE_SIZE: u64 = 0x1000;

/// Base of the globals region.
pub const GLOBALS_BASE: u64 = 0x1000_0000;

/// Each global variable occupies one 8-byte slot.
pub const GLOBAL_SLOT: u64 = 8;

/// Base of the heap region.
pub const HEAP_BASE: u64 = 0x2000_0000;

/// Bytes of KASAN-style redzone placed before and after every allocation.
pub const REDZONE: u64 = 16;

/// The coarse classification of an address.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Region {
    /// Within the NULL guard page.
    NullPage,
    /// Within the globals region.
    Globals,
    /// Within the heap region (allocated or not is decided by the allocator).
    Heap,
    /// Not mapped by any region.
    Unmapped,
}

/// Classifies an address into its [`Region`].
#[must_use]
pub fn region_of(addr: Addr) -> Region {
    let a = addr.0;
    if a < NULL_PAGE_SIZE {
        Region::NullPage
    } else if (GLOBALS_BASE..HEAP_BASE).contains(&a) {
        Region::Globals
    } else if a >= HEAP_BASE {
        Region::Heap
    } else {
        Region::Unmapped
    }
}

/// Identifier of a declared global variable.
///
/// Globals are declared on a [`crate::program::Program`] via
/// [`crate::builder::ProgramBuilder::global`]; the id indexes the program's
/// global table and maps to a fixed address in the globals region.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GlobalId(pub u32);

impl GlobalId {
    /// The fixed address of this global's 8-byte slot.
    #[must_use]
    pub fn addr(self) -> Addr {
        Addr(GLOBALS_BASE + u64::from(self.0) * GLOBAL_SLOT)
    }
}

impl core::fmt::Debug for GlobalId {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        write!(f, "g{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn null_page_is_classified() {
        assert_eq!(region_of(Addr::NULL), Region::NullPage);
        assert_eq!(region_of(Addr(NULL_PAGE_SIZE - 1)), Region::NullPage);
        assert_eq!(region_of(Addr(NULL_PAGE_SIZE)), Region::Unmapped);
    }

    #[test]
    fn globals_map_to_distinct_slots() {
        let a = GlobalId(0).addr();
        let b = GlobalId(1).addr();
        assert_ne!(a, b);
        assert_eq!(region_of(a), Region::Globals);
        assert_eq!(b.0 - a.0, GLOBAL_SLOT);
    }

    #[test]
    fn heap_base_is_heap() {
        assert_eq!(region_of(Addr(HEAP_BASE)), Region::Heap);
        assert_eq!(region_of(Addr(HEAP_BASE - 1)), Region::Globals);
    }

    #[test]
    fn offset_wraps_like_hardware() {
        assert_eq!(Addr(u64::MAX).offset(1), Addr(0));
        assert_eq!(Addr(8).offset(8), Addr(16));
    }

    #[test]
    fn display_is_hex() {
        assert_eq!(Addr(0x2000_0010).to_string(), "0x20000010");
    }
}
