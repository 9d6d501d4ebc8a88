//! Page tables with back-mappings.
//!
//! IRIX PTEs point at page frame descriptors with no reverse link; the
//! paper adds "links ... to the pfd pointing back to all the ptes mapping
//! this page, similar to an inverted page table" so a migration can find
//! and update every mapping cheaply. [`PageTables`] keeps both directions.

use ccnuma_types::{Frame, MachineConfig, NodeId, Pid, VirtPage};

/// A PTE packs `frame + 1` into the low bits and the frame's home node
/// above them; 0 means unmapped. Frames are below `nodes × frames_per_node
/// < 2^16 × 2^32`, so `frame + 1` always fits under the node field.
const NODE_SHIFT: u32 = 48;

/// The frame of a non-zero PTE.
#[inline]
fn frame_of(pte: u64) -> Frame {
    Frame((pte & ((1 << NODE_SHIFT) - 1)) - 1)
}

/// Per-process virtual→physical mappings plus the frame→PTE back-map.
///
/// [`lookup`](PageTables::lookup) and [`lookup_node`](PageTables::lookup_node)
/// run at least once per simulated reference. Pids and virtual pages are
/// small dense integers (each workload hands its pages out from 0), so
/// every table is a direct index rather than a hash: one row per pid,
/// indexed by page and grown on demand to the highest page that pid
/// maps, with the frame's home node stored beside the frame so asking
/// which node backs a mapping needs no division. The back-map is indexed
/// by frame number. Memory therefore grows with the highest pid, page and
/// frame seen, not with the number of live mappings.
///
/// # Examples
///
/// ```
/// use ccnuma_kernel::PageTables;
/// use ccnuma_types::{Frame, MachineConfig, NodeId, Pid, VirtPage};
///
/// let mut pt = PageTables::new(&MachineConfig::cc_numa());
/// pt.map(Pid(1), VirtPage(7), Frame(40));
/// pt.map(Pid(2), VirtPage(7), Frame(40));
/// assert_eq!(pt.mappers_of(Frame(40)).len(), 2);
/// let changed = pt.repoint(VirtPage(7), Frame(40), Frame(4099));
/// assert_eq!(changed, 2);
/// assert_eq!(pt.lookup(Pid(1), VirtPage(7)), Some(Frame(4099)));
/// assert_eq!(pt.lookup_node(Pid(1), VirtPage(7)), Some(NodeId(1)));
/// ```
#[derive(Debug, Clone)]
pub struct PageTables {
    cfg: MachineConfig,
    /// `rows[pid][page]` is the packed PTE of (pid, page), 0 if unmapped.
    rows: Vec<Vec<u64>>,
    /// `back[frame]` lists the pids whose PTE points at that frame (the
    /// added back-map).
    back: Vec<Vec<Pid>>,
    /// Live PTEs.
    len: usize,
}

impl PageTables {
    /// Empty tables for the given machine's frames.
    pub fn new(cfg: &MachineConfig) -> PageTables {
        PageTables {
            cfg: cfg.clone(),
            rows: Vec::new(),
            back: Vec::new(),
            len: 0,
        }
    }

    #[inline]
    fn pte(&self, pid: Pid, page: VirtPage) -> u64 {
        self.rows
            .get(pid.0 as usize)
            .and_then(|row| row.get(page.0 as usize))
            .copied()
            .unwrap_or(0)
    }

    /// Installs or replaces the mapping for (`pid`, `page`).
    ///
    /// # Panics
    ///
    /// Panics if `frame` is out of range for the machine.
    pub fn map(&mut self, pid: Pid, page: VirtPage, frame: Frame) {
        let node = self.cfg.node_of_frame(frame);
        let (p, pg) = (pid.0 as usize, page.0 as usize);
        if self.rows.len() <= p {
            self.rows.resize_with(p + 1, Vec::new);
        }
        let row = &mut self.rows[p];
        if row.len() <= pg {
            row.resize(pg + 1, 0);
        }
        let old = std::mem::replace(
            &mut row[pg],
            (frame.0 + 1) | u64::from(node.0) << NODE_SHIFT,
        );
        if old == 0 {
            self.len += 1;
        } else {
            self.unlink(frame_of(old), pid);
        }
        let f = frame.0 as usize;
        if self.back.len() <= f {
            self.back.resize_with(f + 1, Vec::new);
        }
        self.back[f].push(pid);
    }

    /// Removes the mapping for (`pid`, `page`), returning the frame it
    /// pointed at.
    pub fn unmap(&mut self, pid: Pid, page: VirtPage) -> Option<Frame> {
        let pte = self
            .rows
            .get_mut(pid.0 as usize)?
            .get_mut(page.0 as usize)?;
        let old = std::mem::take(pte);
        if old == 0 {
            return None;
        }
        self.len -= 1;
        let frame = frame_of(old);
        self.unlink(frame, pid);
        Some(frame)
    }

    fn unlink(&mut self, frame: Frame, pid: Pid) {
        let pids = &mut self.back[frame.0 as usize];
        if let Some(pos) = pids.iter().position(|p| *p == pid) {
            pids.swap_remove(pos);
        }
    }

    /// The frame (`pid`, `page`) maps to, if mapped.
    #[inline]
    pub fn lookup(&self, pid: Pid, page: VirtPage) -> Option<Frame> {
        match self.pte(pid, page) {
            0 => None,
            pte => Some(frame_of(pte)),
        }
    }

    /// The home node of the frame (`pid`, `page`) maps to, if mapped.
    #[inline]
    pub fn lookup_node(&self, pid: Pid, page: VirtPage) -> Option<NodeId> {
        match self.pte(pid, page) {
            0 => None,
            pte => Some(NodeId((pte >> NODE_SHIFT) as u16)),
        }
    }

    /// Processes whose PTE points at `frame` (via the back-map). The
    /// returned list may repeat a pid if it maps the frame at several
    /// virtual pages, which does not occur in this simulator.
    pub fn mappers_of(&self, frame: Frame) -> &[Pid] {
        self.back.get(frame.0 as usize).map_or(&[], Vec::as_slice)
    }

    /// Repoints every PTE of `page` that references `old` to `new`,
    /// returning how many PTEs changed (a migration's "Links & Mapping"
    /// step walks exactly these back-links).
    pub fn repoint(&mut self, page: VirtPage, old: Frame, new: Frame) -> usize {
        let pids: Vec<Pid> = self.mappers_of(old).to_vec();
        let mut changed = 0;
        for pid in pids {
            if self.lookup(pid, page) == Some(old) {
                self.map(pid, page, new);
                changed += 1;
            }
        }
        changed
    }

    /// Points each listed pid's PTE of `page` at its paired frame (used
    /// after replication to point each process at its nearest copy —
    /// step 8 of Figure 2). Pids that do not map `page` are left alone.
    /// Returns the number of PTEs changed.
    pub fn repoint_each(&mut self, page: VirtPage, targets: &[(Pid, Frame)]) -> usize {
        let mut changed = 0;
        for &(pid, target) in targets {
            if let Some(cur) = self.lookup(pid, page) {
                if cur != target {
                    self.map(pid, page, target);
                    changed += 1;
                }
            }
        }
        changed
    }

    /// All pids currently mapping `page`, in ascending order. One probe
    /// per pid row.
    pub fn mappers_of_page(&self, page: VirtPage) -> Vec<Pid> {
        let pg = page.0 as usize;
        self.rows
            .iter()
            .enumerate()
            .filter(|(_, row)| row.get(pg).is_some_and(|&pte| pte != 0))
            .map(|(p, _)| Pid(p as u32))
            .collect()
    }

    /// Every live PTE as ((pid, page), frame), in ascending (pid, page)
    /// order — used by the invariant checker to audit the whole mapping
    /// state.
    pub fn iter(&self) -> impl Iterator<Item = ((Pid, VirtPage), Frame)> + '_ {
        self.rows.iter().enumerate().flat_map(|(p, row)| {
            row.iter()
                .enumerate()
                .filter(|&(_, &pte)| pte != 0)
                .map(move |(pg, &pte)| ((Pid(p as u32), VirtPage(pg as u64)), frame_of(pte)))
        })
    }

    /// Number of live PTEs.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no PTEs exist.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_lookup_unmap() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        pt.map(Pid(1), VirtPage(1), Frame(10));
        assert_eq!(pt.lookup(Pid(1), VirtPage(1)), Some(Frame(10)));
        assert_eq!(pt.lookup(Pid(2), VirtPage(1)), None);
        assert_eq!(pt.unmap(Pid(1), VirtPage(1)), Some(Frame(10)));
        assert_eq!(pt.unmap(Pid(1), VirtPage(1)), None);
        assert!(pt.is_empty());
    }

    #[test]
    fn back_map_tracks_mappers() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        pt.map(Pid(1), VirtPage(1), Frame(10));
        pt.map(Pid(2), VirtPage(1), Frame(10));
        pt.map(Pid(3), VirtPage(1), Frame(11));
        let mut mappers = pt.mappers_of(Frame(10)).to_vec();
        mappers.sort();
        assert_eq!(mappers, vec![Pid(1), Pid(2)]);
        pt.unmap(Pid(1), VirtPage(1));
        assert_eq!(pt.mappers_of(Frame(10)), &[Pid(2)]);
    }

    #[test]
    fn remap_replaces_back_link() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        pt.map(Pid(1), VirtPage(1), Frame(10));
        pt.map(Pid(1), VirtPage(1), Frame(20)); // re-map same pte
        assert!(pt.mappers_of(Frame(10)).is_empty());
        assert_eq!(pt.mappers_of(Frame(20)), &[Pid(1)]);
        assert_eq!(pt.len(), 1);
    }

    #[test]
    fn repoint_moves_all_ptes() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        for pid in 1..=3 {
            pt.map(Pid(pid), VirtPage(5), Frame(50));
        }
        pt.map(Pid(9), VirtPage(6), Frame(50)); // different page, same frame
        let changed = pt.repoint(VirtPage(5), Frame(50), Frame(60));
        assert_eq!(changed, 3);
        for pid in 1..=3 {
            assert_eq!(pt.lookup(Pid(pid), VirtPage(5)), Some(Frame(60)));
        }
        // the other page's mapping is untouched
        assert_eq!(pt.lookup(Pid(9), VirtPage(6)), Some(Frame(50)));
    }

    #[test]
    fn repoint_each_follows_targets() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        pt.map(Pid(1), VirtPage(5), Frame(50));
        pt.map(Pid(2), VirtPage(5), Frame(50));
        let changed = pt.repoint_each(
            VirtPage(5),
            &[
                (Pid(1), Frame(51)),
                (Pid(2), Frame(50)),
                (Pid(3), Frame(51)),
            ],
        );
        assert_eq!(changed, 1);
        assert_eq!(pt.lookup(Pid(1), VirtPage(5)), Some(Frame(51)));
        assert_eq!(pt.lookup(Pid(2), VirtPage(5)), Some(Frame(50)));
        assert_eq!(
            pt.lookup(Pid(3), VirtPage(5)),
            None,
            "unmapped pid untouched"
        );
    }

    #[test]
    fn mappers_of_page() {
        let mut pt = PageTables::new(&MachineConfig::cc_numa());
        pt.map(Pid(1), VirtPage(5), Frame(50));
        pt.map(Pid(2), VirtPage(5), Frame(51));
        pt.map(Pid(3), VirtPage(6), Frame(52));
        assert_eq!(pt.mappers_of_page(VirtPage(5)), vec![Pid(1), Pid(2)]);
    }
}
