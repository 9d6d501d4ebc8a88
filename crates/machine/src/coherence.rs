//! Write-invalidate coherence bookkeeping.

use ccnuma_types::{MachineConfig, ProcId, ProcSet, VirtPage};

/// Cache lines per page on the paper's machine (4 KB pages, 128 B lines),
/// the line geometry of [`CoherenceDir::new`] and
/// [`CoherenceDir::with_procs`].
const PAPER_LINES_PER_PAGE: u32 = 32;

/// Tracks which processors cache each line, so a write can invalidate
/// the other holders — the directory's sharing vector, reduced to what
/// the simulator needs. Sized for the machine at construction
/// ([`CoherenceDir::for_machine`]), up to [`ProcSet::MAX_PROCS`]
/// processors.
///
/// This table is consulted on every simulated write and every L2 fill,
/// so it is built for the hot path. Virtual pages are small dense
/// integers, so a line's sharing vector is found by direct indexing, not
/// hashing: all vectors live in one flat `Vec<u8>` arena at
/// `(page × lines_per_page + line) × stride`, grown on demand to the
/// highest line touched. The paper's 8-processor machine uses one byte
/// per line; a 1024-processor machine uses 128 — and in every case
/// [`write`](CoherenceDir::write) fills a caller-owned [`ProcSet`]
/// scratch, so the per-reference path allocates only when the arena grows.
///
/// # Examples
///
/// ```
/// use ccnuma_machine::CoherenceDir;
/// use ccnuma_types::{ProcId, ProcSet, VirtPage};
///
/// let mut dir = CoherenceDir::new();
/// let mut victims = ProcSet::with_capacity_for(64);
/// dir.record_fill(ProcId(0), VirtPage(1), 4);
/// dir.record_fill(ProcId(2), VirtPage(1), 4);
/// dir.write(ProcId(0), VirtPage(1), 4, &mut victims);
/// assert_eq!(victims.iter().collect::<Vec<_>>(), vec![ProcId(2)]);
/// ```
#[derive(Debug, Clone)]
pub struct CoherenceDir {
    /// Sharing vectors, `stride` bytes per line; `p` is bit `p % 8` of byte `p / 8`.
    bytes: Vec<u8>,
    /// Bytes per sharing vector (`ceil(max_procs / 8)`).
    stride: usize,
    lines_per_page: usize,
    max_procs: u16,
}

impl CoherenceDir {
    /// An empty directory for up to 64 processors (eight bytes per
    /// line).
    pub fn new() -> CoherenceDir {
        CoherenceDir::with_procs(64)
    }

    /// An empty directory sized for a machine with `procs` processors
    /// and the paper machine's 32 lines per page.
    ///
    /// # Panics
    ///
    /// Panics if `procs` is zero or exceeds [`ProcSet::MAX_PROCS`].
    pub fn with_procs(procs: u16) -> CoherenceDir {
        CoherenceDir::sized(procs, PAPER_LINES_PER_PAGE)
    }

    /// An empty directory for `cfg`'s processor count and line geometry.
    ///
    /// # Panics
    ///
    /// Panics if the processor count is zero or exceeds
    /// [`ProcSet::MAX_PROCS`].
    pub fn for_machine(cfg: &MachineConfig) -> CoherenceDir {
        CoherenceDir::sized(cfg.procs(), cfg.lines_per_page())
    }

    fn sized(procs: u16, lines_per_page: u32) -> CoherenceDir {
        assert!(
            procs > 0 && procs <= ProcSet::MAX_PROCS,
            "coherence dir supports 1..={} processors, got {procs}",
            ProcSet::MAX_PROCS
        );
        CoherenceDir {
            bytes: Vec::new(),
            stride: procs.div_ceil(8) as usize,
            lines_per_page: lines_per_page as usize,
            max_procs: procs,
        }
    }

    /// The processor capacity this directory was sized for.
    pub fn max_procs(&self) -> u16 {
        self.max_procs
    }

    /// Bounds-check once per entry point — an out-of-range processor
    /// would otherwise corrupt a neighbouring sharing vector silently.
    #[inline]
    fn check(&self, proc: ProcId) {
        assert!(
            proc.0 < self.max_procs,
            "coherence dir supports up to {} processors",
            self.max_procs
        );
    }

    /// The arena offset of (`page`, `line`)'s sharing vector. A line
    /// beyond the page would alias the next page's, so it panics.
    #[inline]
    fn base(&self, page: VirtPage, line: u16) -> usize {
        assert!(
            (line as usize) < self.lines_per_page,
            "line {line} out of range: {} lines per page",
            self.lines_per_page
        );
        (page.0 as usize * self.lines_per_page + line as usize) * self.stride
    }

    /// [`base`](Self::base), growing the arena to cover the line.
    #[inline]
    fn base_grown(&mut self, page: VirtPage, line: u16) -> usize {
        let base = self.base(page, line);
        if base + self.stride > self.bytes.len() {
            self.bytes.resize(base + self.stride, 0);
        }
        base
    }

    /// Records that `proc` now caches (`page`, `line`).
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity or `line` is
    /// beyond the page.
    pub fn record_fill(&mut self, proc: ProcId, page: VirtPage, line: u16) {
        self.check(proc);
        let base = self.base_grown(page, line);
        self.bytes[base + proc.index() / 8] |= 1 << (proc.index() % 8);
    }

    /// Records that `proc` lost (`page`, `line`) to eviction.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity or `line` is
    /// beyond the page.
    pub fn record_evict(&mut self, proc: ProcId, page: VirtPage, line: u16) {
        self.check(proc);
        let base = self.base(page, line);
        if let Some(b) = self.bytes.get_mut(base + proc.index() / 8) {
            *b &= !(1 << (proc.index() % 8));
        }
    }

    /// A write by `proc`: every *other* holder must invalidate. Fills
    /// `victims` with the victim set (usually empty: no other holder)
    /// and leaves `proc` as the sole holder. The caller owns and reuses
    /// the scratch set, so the hot path stays allocation-free.
    ///
    /// # Panics
    ///
    /// Panics if `proc` is beyond the directory's capacity, `line` is
    /// beyond the page, or `victims` was sized for a different machine.
    pub fn write(&mut self, proc: ProcId, page: VirtPage, line: u16, victims: &mut ProcSet) {
        self.check(proc);
        let stride = self.stride;
        let base = self.base_grown(page, line);
        let dst = victims.words_mut();
        assert_eq!(
            dst.len(),
            stride.div_ceil(8),
            "victim set sized for a different machine"
        );
        let vector = &mut self.bytes[base..base + stride];
        // Little-endian: bytes `8w..8w + 8` of the vector are word `w`.
        for (word, chunk) in dst.iter_mut().zip(vector.chunks(8)) {
            let mut le = [0u8; 8];
            le[..chunk.len()].copy_from_slice(chunk);
            *word = u64::from_le_bytes(le);
        }
        dst[proc.index() / 64] &= !(1u64 << (proc.index() % 64));
        vector.fill(0);
        vector[proc.index() / 8] = 1 << (proc.index() % 8);
    }

    /// Holders of (`page`, `line`), lowest processor first. Diagnostic
    /// convenience — allocates, so keep it off the per-reference path.
    ///
    /// # Panics
    ///
    /// Panics if `line` is beyond the page.
    pub fn holders_of(&self, page: VirtPage, line: u16) -> Vec<ProcId> {
        let base = self.base(page, line);
        let Some(vector) = self.bytes.get(base..base + self.stride) else {
            return Vec::new();
        };
        (0..vector.len() * 8)
            .filter(|&p| vector[p / 8] & (1 << (p % 8)) != 0)
            .map(|p| ProcId(p as u16))
            .collect()
    }
}

impl Default for CoherenceDir {
    fn default() -> CoherenceDir {
        CoherenceDir::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs a write and decodes the victims, the way the runner does.
    fn write_victims(d: &mut CoherenceDir, proc: ProcId, page: VirtPage, line: u16) -> Vec<ProcId> {
        let mut victims = ProcSet::with_capacity_for(d.max_procs());
        d.write(proc, page, line, &mut victims);
        victims.iter().collect()
    }

    #[test]
    fn fill_and_write_invalidate() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_fill(ProcId(1), VirtPage(1), 0);
        d.record_fill(ProcId(5), VirtPage(1), 0);
        let v = write_victims(&mut d, ProcId(1), VirtPage(1), 0);
        assert_eq!(v, vec![ProcId(0), ProcId(5)]);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(1)]);
    }

    #[test]
    fn write_by_sole_holder_invalidates_nobody() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(3), VirtPage(2), 7);
        assert!(write_victims(&mut d, ProcId(3), VirtPage(2), 7).is_empty());
    }

    #[test]
    fn evict_clears_holder() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_evict(ProcId(0), VirtPage(1), 0);
        assert!(d.holders_of(VirtPage(1), 0).is_empty());
        // evicting a non-holder is a no-op
        d.record_evict(ProcId(1), VirtPage(1), 0);
        assert!(d.holders_of(VirtPage(1), 0).is_empty());
    }

    #[test]
    fn lines_are_independent() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_fill(ProcId(0), VirtPage(1), 1);
        assert_eq!(
            write_victims(&mut d, ProcId(2), VirtPage(1), 0),
            vec![ProcId(0)]
        );
        assert_eq!(d.holders_of(VirtPage(1), 1), vec![ProcId(0)]);
    }

    #[test]
    fn proc_63_is_the_last_representable_holder() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(63), VirtPage(1), 0);
        assert_eq!(
            write_victims(&mut d, ProcId(0), VirtPage(1), 0),
            vec![ProcId(63)]
        );
    }

    #[test]
    fn large_machines_cross_word_boundaries() {
        let mut d = CoherenceDir::with_procs(128);
        assert_eq!(d.max_procs(), 128);
        d.record_fill(ProcId(1), VirtPage(1), 0);
        d.record_fill(ProcId(64), VirtPage(1), 0);
        d.record_fill(ProcId(127), VirtPage(1), 0);
        assert_eq!(
            d.holders_of(VirtPage(1), 0),
            vec![ProcId(1), ProcId(64), ProcId(127)]
        );
        let v = write_victims(&mut d, ProcId(127), VirtPage(1), 0);
        assert_eq!(v, vec![ProcId(1), ProcId(64)]);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(127)]);
    }

    #[test]
    fn lines_are_indexed_densely_without_aliasing() {
        // The last line of one page and the first of the next are
        // adjacent in the arena; a 256-processor machine gives each
        // line 32 bytes, so a stride slip would show up as a
        // neighbour's holder.
        let mut d = CoherenceDir::with_procs(256);
        d.record_fill(ProcId(200), VirtPage(1), 31);
        d.record_fill(ProcId(3), VirtPage(2), 0);
        assert_eq!(d.holders_of(VirtPage(1), 31), vec![ProcId(200)]);
        assert_eq!(d.holders_of(VirtPage(2), 0), vec![ProcId(3)]);
        d.record_evict(ProcId(200), VirtPage(1), 31);
        assert!(d.holders_of(VirtPage(1), 31).is_empty());
        assert_eq!(d.holders_of(VirtPage(2), 0), vec![ProcId(3)]);
        // Lines beyond the arena have no holders, and evicting one is a
        // no-op.
        assert!(d.holders_of(VirtPage(1000), 5).is_empty());
        d.record_evict(ProcId(3), VirtPage(1000), 5);
        assert!(d.holders_of(VirtPage(1000), 5).is_empty());
    }

    #[test]
    fn for_machine_follows_the_line_geometry() {
        let mut cfg = MachineConfig::cc_numa();
        cfg.line_size = 64;
        let mut d = CoherenceDir::for_machine(&cfg);
        assert_eq!(d.max_procs(), cfg.procs());
        d.record_fill(ProcId(1), VirtPage(0), 63);
        d.record_fill(ProcId(2), VirtPage(1), 0);
        assert_eq!(d.holders_of(VirtPage(0), 63), vec![ProcId(1)]);
        assert_eq!(d.holders_of(VirtPage(1), 0), vec![ProcId(2)]);
    }

    #[test]
    fn with_procs_uses_the_paper_line_geometry() {
        assert_eq!(
            PAPER_LINES_PER_PAGE,
            MachineConfig::cc_numa().lines_per_page()
        );
    }

    #[test]
    #[should_panic(expected = "line 32 out of range: 32 lines per page")]
    fn rejects_lines_beyond_the_page() {
        CoherenceDir::new().record_fill(ProcId(0), VirtPage(1), 32);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn record_fill_rejects_out_of_range_proc() {
        CoherenceDir::new().record_fill(ProcId(64), VirtPage(1), 0);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn record_evict_rejects_out_of_range_proc() {
        let mut d = CoherenceDir::new();
        d.record_fill(ProcId(0), VirtPage(1), 0);
        d.record_evict(ProcId(64), VirtPage(1), 0);
    }

    #[test]
    #[should_panic(expected = "up to 64 processors")]
    fn write_rejects_out_of_range_proc() {
        let mut victims = ProcSet::with_capacity_for(64);
        CoherenceDir::new().write(ProcId(64), VirtPage(1), 0, &mut victims);
    }

    #[test]
    #[should_panic(expected = "sized for a different machine")]
    fn write_rejects_mismatched_victim_set() {
        let mut victims = ProcSet::with_capacity_for(128);
        CoherenceDir::new().write(ProcId(0), VirtPage(1), 0, &mut victims);
    }
}
