//! The per-processor TLB model.

use ccnuma_types::{MachineConfig, VirtPage};

/// Sentinel marking an empty ring slot. Virtual page numbers are segment
/// offsets handed out by the workload generators and never reach
/// `u64::MAX`.
const EMPTY: u64 = u64::MAX;

/// A 64-entry (configurable) TLB with FIFO replacement.
///
/// Misses are what a software-reloaded-TLB OS can observe (the FT/ST
/// metrics of §8.3); shootdowns remove a single page's entry; context
/// switches flush everything (no ASIDs, like the paper's IRIX).
///
/// The TLB sits on the per-reference hot path — [`access`](Tlb::access)
/// runs once per simulated memory reference. Virtual pages are small
/// dense integers (each workload's address space is handed out from page
/// 0), so residency is a direct index rather than a hash: `slot_of[page]`
/// holds the page's FIFO ring slot plus one, 0 when not resident, and
/// grows on demand to the highest page seen. A hit is one load; a miss
/// is two stores and a ring advance; a shootdown is O(1); a flush clears
/// only the ring's pages.
///
/// # Examples
///
/// ```
/// use ccnuma_machine::Tlb;
/// use ccnuma_types::{MachineConfig, VirtPage};
///
/// let mut tlb = Tlb::new(&MachineConfig::cc_numa());
/// assert!(!tlb.access(VirtPage(1)));
/// assert!(tlb.access(VirtPage(1)));
/// tlb.shootdown(VirtPage(1));
/// assert!(!tlb.access(VirtPage(1)));
/// ```
#[derive(Debug, Clone)]
pub struct Tlb {
    /// Page → ring slot + 1; 0 when the page is not resident.
    slot_of: Vec<u16>,
    /// FIFO ring of resident pages; [`EMPTY`] when the slot was never
    /// filled or was shot down.
    ring: Vec<u64>,
    head: usize,
    len: usize,
    hits: u64,
    misses: u64,
}

impl Tlb {
    /// A TLB with the machine's entry count.
    ///
    /// # Panics
    ///
    /// Panics if the entry count does not fit the `u16` slot index.
    pub fn new(cfg: &MachineConfig) -> Tlb {
        assert!(
            cfg.tlb_entries < u32::from(u16::MAX),
            "TLB supports fewer than {} entries, got {}",
            u16::MAX,
            cfg.tlb_entries
        );
        Tlb {
            slot_of: Vec::new(),
            ring: vec![EMPTY; cfg.tlb_entries as usize],
            head: 0,
            len: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// Accesses `page`; returns `true` on hit. On a miss the page is
    /// loaded into the FIFO head slot, evicting its previous tenant.
    pub fn access(&mut self, page: VirtPage) -> bool {
        debug_assert_ne!(page.0, EMPTY, "u64::MAX is the vacancy sentinel");
        let p = page.0 as usize;
        if self.slot_of.get(p).is_some_and(|&s| s != 0) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if p >= self.slot_of.len() {
            self.slot_of.resize(p + 1, 0);
        }
        match std::mem::replace(&mut self.ring[self.head], page.0) {
            EMPTY => self.len += 1,
            old => self.slot_of[old as usize] = 0,
        }
        self.slot_of[p] = self.head as u16 + 1;
        self.head += 1;
        if self.head == self.ring.len() {
            self.head = 0;
        }
        false
    }

    /// Removes `page`'s entry if resident (TLB shootdown for one page).
    pub fn shootdown(&mut self, page: VirtPage) {
        if let Some(s) = self.slot_of.get_mut(page.0 as usize) {
            if *s != 0 {
                self.ring[*s as usize - 1] = EMPTY;
                *s = 0;
                self.len -= 1;
            }
        }
    }

    /// Flushes the whole TLB (context switch).
    pub fn flush(&mut self) {
        for p in &mut self.ring {
            if *p != EMPTY {
                self.slot_of[*p as usize] = 0;
                *p = EMPTY;
            }
        }
        self.head = 0;
        self.len = 0;
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tlb() -> Tlb {
        Tlb::new(&MachineConfig::cc_numa())
    }

    #[test]
    fn fits_64_pages() {
        let mut t = tlb();
        for p in 0..64u64 {
            assert!(!t.access(VirtPage(p)));
        }
        for p in 0..64u64 {
            assert!(t.access(VirtPage(p)));
        }
        assert_eq!(t.len(), 64);
    }

    #[test]
    fn fifo_eviction() {
        let mut t = tlb();
        for p in 0..65u64 {
            t.access(VirtPage(p));
        }
        assert!(!t.access(VirtPage(0)), "oldest entry evicted");
        // The refill of page 0 itself evicted page 1 (next FIFO slot);
        // page 2 is still resident.
        assert!(t.access(VirtPage(2)), "third entry still resident");
        assert!(!t.access(VirtPage(1)), "page 1 evicted by the refill");
    }

    #[test]
    fn flush_empties() {
        let mut t = tlb();
        for p in 0..10u64 {
            t.access(VirtPage(p));
        }
        t.flush();
        assert!(t.is_empty());
        assert!(!t.access(VirtPage(3)));
    }

    #[test]
    fn flush_keeps_counters() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(1));
        t.flush();
        assert_eq!(t.misses(), 1);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn shootdown_is_precise() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(2));
        t.shootdown(VirtPage(1));
        assert!(!t.access(VirtPage(1)));
        assert!(t.access(VirtPage(2)));
        // shootdown of a non-resident page is a no-op
        t.shootdown(VirtPage(99));
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn counters_track() {
        let mut t = tlb();
        t.access(VirtPage(1));
        t.access(VirtPage(1));
        t.access(VirtPage(2));
        assert_eq!(t.misses(), 2);
        assert_eq!(t.hits(), 1);
    }

    #[test]
    fn flush_and_shootdown_forget_every_resident_page() {
        // Pages spread over a sparse index, so some slot_of entries sit
        // far beyond the others.
        let pages: Vec<u64> = (0..40u64).map(|i| i * i * 37).collect();
        let mut t = tlb();
        for &p in &pages {
            t.access(VirtPage(p));
        }
        t.flush();
        assert_eq!(t.len(), 0);
        for &p in &pages {
            assert!(!t.access(VirtPage(p)), "page {p} survived the flush");
        }
        assert_eq!(t.len(), pages.len());
        for &p in &pages {
            t.shootdown(VirtPage(p));
        }
        assert!(t.is_empty());
        for &p in &pages {
            assert!(!t.access(VirtPage(p)), "page {p} survived its shootdown");
        }
        assert_eq!(t.len(), pages.len());
        // Shooting down a page beyond the index is a no-op.
        t.shootdown(VirtPage(1 << 30));
        assert_eq!(t.len(), pages.len());
    }

    #[test]
    #[should_panic(expected = "fewer than 65535 entries")]
    fn rejects_entry_counts_beyond_the_slot_index() {
        let mut cfg = MachineConfig::cc_numa();
        cfg.tlb_entries = u32::from(u16::MAX);
        Tlb::new(&cfg);
    }

    #[test]
    fn churn_never_grows_past_capacity() {
        let mut t = tlb();
        for p in 0..10_000u64 {
            t.access(VirtPage(p % 777));
            assert!(t.len() <= 64);
        }
        assert_eq!(t.len(), 64);
    }
}
