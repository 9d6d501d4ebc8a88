//! The unified second-level cache model.

use ccnuma_types::{MachineConfig, VirtPage};

/// A two-way (configurable) set-associative L2 cache with LRU
/// replacement, indexed by global line number (page × lines-per-page +
/// line) masked to the set count, which must be a power of two. Lines
/// are identified virtually — the simulator has a single global address
/// space — so cached data stays valid across page migration, exactly as
/// hardware coherence keeps caches valid when the OS moves a page.
///
/// # Examples
///
/// ```
/// use ccnuma_machine::L2Cache;
/// use ccnuma_types::{MachineConfig, VirtPage};
///
/// let cfg = MachineConfig::cc_numa();
/// let mut l2 = L2Cache::new(&cfg);
/// assert!(!l2.access(VirtPage(1), 0)); // cold miss
/// assert!(l2.access(VirtPage(1), 0));  // hit
/// ```
#[derive(Debug, Clone)]
pub struct L2Cache {
    /// Set count − 1; the set of line id `l` is `l & set_mask`.
    set_mask: u64,
    ways: usize,
    lines_per_page: u64,
    /// `tags[set * ways..][..ways]`: each set's tags (line id + 1; 0 when
    /// invalid) in most-recently-used order, so an access touches one
    /// host cache line and the last way is the LRU one.
    tags: Vec<u64>,
    hits: u64,
    misses: u64,
}

impl L2Cache {
    /// A cache with the machine's L2 geometry.
    ///
    /// # Panics
    ///
    /// Panics if the set count is not a power of two (which
    /// [`MachineConfig::validate`] rejects).
    pub fn new(cfg: &MachineConfig) -> L2Cache {
        let sets = cfg.l2_sets() as usize;
        assert!(
            sets.is_power_of_two(),
            "L2 set count must be a power of two, got {sets}"
        );
        let ways = cfg.l2_ways as usize;
        L2Cache {
            set_mask: sets as u64 - 1,
            ways,
            lines_per_page: cfg.lines_per_page() as u64,
            tags: vec![0; sets * ways],
            hits: 0,
            misses: 0,
        }
    }

    #[inline]
    fn line_id(&self, page: VirtPage, line: u16) -> u64 {
        page.0 * self.lines_per_page + line as u64
    }

    #[inline]
    fn set_of(&self, line_id: u64) -> usize {
        (line_id & self.set_mask) as usize
    }

    /// Accesses (`page`, `line`); returns `true` on hit. On a miss the
    /// line is filled, evicting the set's LRU way.
    pub fn access(&mut self, page: VirtPage, line: u16) -> bool {
        let id = self.line_id(page, line) + 1;
        let base = self.set_of(id - 1) * self.ways;
        let ways = &mut self.tags[base..base + self.ways];
        // A hit moves the way to the front; a miss fills the first
        // invalid way, else the LRU one, and moves it to the front.
        let hit = ways.contains(&id);
        let want = if hit { id } else { 0 };
        let way = ways
            .iter()
            .position(|&t| t == want)
            .unwrap_or(self.ways - 1);
        ways[way] = id;
        ways[..=way].rotate_right(1);
        self.hits += u64::from(hit);
        self.misses += u64::from(!hit);
        hit
    }

    /// Invalidates (`page`, `line`) if present (coherence write from
    /// another CPU). Returns `true` when a line was dropped.
    pub fn invalidate(&mut self, page: VirtPage, line: u16) -> bool {
        let id = self.line_id(page, line) + 1;
        let base = self.set_of(id - 1) * self.ways;
        match self.tags[base..base + self.ways]
            .iter_mut()
            .find(|t| **t == id)
        {
            Some(t) => {
                *t = 0;
                true
            }
            None => false,
        }
    }

    /// Hits so far.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses so far.
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Miss ratio over all accesses (0 when no accesses yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cache() -> L2Cache {
        L2Cache::new(&MachineConfig::cc_numa())
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = cache();
        assert!(!c.access(VirtPage(5), 3));
        assert!(c.access(VirtPage(5), 3));
        assert_eq!(c.hits(), 1);
        assert_eq!(c.misses(), 1);
        assert_eq!(c.miss_ratio(), 0.5);
    }

    #[test]
    fn distinct_lines_do_not_alias_within_capacity() {
        let mut c = cache();
        // 2048 sets × 2 ways = 4096 lines = 128 pages of 32 lines.
        for p in 0..128u64 {
            for l in 0..32u16 {
                assert!(!c.access(VirtPage(p), l));
            }
        }
        for p in 0..128u64 {
            for l in 0..32u16 {
                assert!(c.access(VirtPage(p), l), "page {p} line {l} evicted");
            }
        }
    }

    #[test]
    fn capacity_eviction_lru() {
        let mut c = cache();
        // Three lines mapping to the same set: ids differ by sets.
        let sets = 2048u64;
        let a = VirtPage(0);
        let b = VirtPage(sets / 32); // line id 0 of this page aliases set 0
        let d = VirtPage(2 * sets / 32);
        assert!(!c.access(a, 0));
        assert!(!c.access(b, 0));
        assert!(c.access(a, 0), "a is MRU");
        assert!(!c.access(d, 0)); // evicts b (LRU)
        assert!(c.access(a, 0));
        assert!(!c.access(b, 0), "b was evicted");
    }

    #[test]
    fn invalidate_forces_remiss() {
        let mut c = cache();
        c.access(VirtPage(9), 1);
        assert!(c.invalidate(VirtPage(9), 1));
        assert!(!c.invalidate(VirtPage(9), 1), "already gone");
        assert!(!c.access(VirtPage(9), 1), "must miss after invalidate");
    }

    #[test]
    fn set_mask_matches_modulo() {
        use rand::{Rng, SeedableRng};
        let c = cache();
        let sets = u64::from(MachineConfig::cc_numa().l2_sets());
        let mut rng = rand::rngs::SmallRng::seed_from_u64(7);
        for _ in 0..10_000 {
            let line: u64 = rng.gen_range(0..1 << 40);
            assert_eq!(c.set_of(line) as u64, line % sets, "line {line}");
        }
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn rejects_non_power_of_two_set_counts() {
        let mut cfg = MachineConfig::cc_numa();
        cfg.l2_ways = 3;
        let _ = L2Cache::new(&cfg);
    }

    #[test]
    fn empty_cache_ratio_zero() {
        assert_eq!(cache().miss_ratio(), 0.0);
    }
}
