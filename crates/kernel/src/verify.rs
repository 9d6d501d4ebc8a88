//! Kernel invariant checker.
//!
//! Audits a [`Pager`]'s whole VM state — frame accounting, replica
//! chains, and page tables — and reports every violation as a
//! human-readable message. The machine runner calls this after pager
//! batches (always under fault injection, sampled in plain debug
//! builds), so a fault scenario that corrupts kernel state fails loudly
//! and deterministically instead of silently skewing results.
//!
//! Checked invariants:
//!
//! 1. **Frame accounting** — per node, the allocator's used count equals
//!    the frames owned by hash chains plus the frames seized by storms,
//!    and never exceeds the node's capacity (so `used + free` equals the
//!    node's frame count).
//! 2. **No double mapping** — no physical frame appears in two replica
//!    chains (or twice in one chain).
//! 3. **Replica-chain consistency** — every chain has its master, and
//!    all copies live on distinct nodes (one copy per node is the
//!    useful maximum the kernel maintains).
//! 4. **No stale PTEs** — after a completed batch (and its shootdown),
//!    every PTE references a current copy of its page; no mapping
//!    survives pointing at a freed or migrated-away frame.

use crate::Pager;
use ccnuma_types::{Frame, SimError, VirtPage};
use std::collections::HashMap;

/// Runs every invariant check, returning all violations found (empty
/// when the kernel state is consistent). Output order is deterministic.
pub fn violations(pager: &Pager) -> Vec<String> {
    let mut out = Vec::new();
    let cfg = pager.frames().config();
    let nodes = cfg.nodes;

    // Walk every replica chain once; the hash iterates in page order, so
    // messages come out deterministically.
    let mut frame_owner: HashMap<Frame, VirtPage> = HashMap::new();
    let mut hash_frames_per_node = vec![0u64; nodes as usize];
    for (page, entry) in pager.hash().iter() {
        let mut copy_nodes = Vec::with_capacity(entry.copy_count());
        for frame in entry.all_frames() {
            let node = cfg.node_of_frame(frame);
            if node.index() >= nodes as usize {
                out.push(format!(
                    "{page}: copy {frame} lies outside the machine's frame range"
                ));
                continue;
            }
            hash_frames_per_node[node.index()] += 1;
            if let Some(other) = frame_owner.insert(frame, page) {
                out.push(format!(
                    "frame {frame} mapped by two pages: {other} and {page}"
                ));
            }
            if copy_nodes.contains(&node) {
                out.push(format!(
                    "{page}: two copies on {node} (master {})",
                    entry.master()
                ));
            }
            copy_nodes.push(node);
        }
    }

    // Frame accounting: used == hash-owned + storm-seized, per node.
    let mut seized_per_node = vec![0u64; nodes as usize];
    for frame in pager.seized_frames() {
        let node = cfg.node_of_frame(frame);
        if node.index() < nodes as usize {
            seized_per_node[node.index()] += 1;
        }
        if let Some(page) = frame_owner.get(&frame) {
            out.push(format!("seized frame {frame} is also owned by {page}"));
        }
    }
    for n in 0..nodes {
        let node = ccnuma_types::NodeId(n);
        let used = u64::from(pager.frames().used_on(node));
        if used > u64::from(cfg.frames_per_node) {
            out.push(format!(
                "{node}: {used} frames used exceeds capacity {}",
                cfg.frames_per_node
            ));
        }
        let accounted = hash_frames_per_node[n as usize] + seized_per_node[n as usize];
        if used != accounted {
            out.push(format!(
                "{node}: allocator says {used} frames used but {accounted} accounted for \
                 ({} in replica chains + {} storm-seized)",
                hash_frames_per_node[n as usize], seized_per_node[n as usize]
            ));
        }
    }

    // Stale PTEs: every mapping must reference a current copy (the
    // tables iterate in (pid, page) order).
    for ((pid, page), frame) in pager.tables().iter() {
        match pager.hash().get(page) {
            None => out.push(format!("stale PTE: {pid} maps unhashed {page} at {frame}")),
            Some(entry) => {
                if !entry.all_frames().any(|f| f == frame) {
                    out.push(format!(
                        "stale PTE: {pid} maps {page} at {frame}, not a current copy (master {})",
                        entry.master()
                    ));
                }
            }
        }
    }

    out
}

/// Like [`violations`], but folded into a [`SimError::Invariant`] for
/// propagation through `Sim::run`.
pub fn check(pager: &Pager) -> Result<(), SimError> {
    let found = violations(pager);
    match found.first() {
        None => Ok(()),
        Some(first) => Err(SimError::Invariant {
            count: found.len(),
            first: first.clone(),
        }),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PageOp, Pager, PagerConfig};
    use ccnuma_types::{MachineConfig, NodeId, Ns, Pid, VirtPage};

    fn pager() -> Pager {
        Pager::new(PagerConfig::for_machine(
            MachineConfig::cc_numa()
                .with_nodes(4)
                .with_frames_per_node(8),
        ))
    }

    #[test]
    fn clean_pager_has_no_violations() {
        let mut p = pager();
        p.set_pid_node(Pid(1), NodeId(0));
        p.set_pid_node(Pid(2), NodeId(2));
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        p.first_touch(Pid(2), VirtPage(1), NodeId(2));
        p.first_touch(Pid(1), VirtPage(2), NodeId(1));
        p.service_batch(
            Ns::from_ms(1),
            &[
                PageOp::replicate(VirtPage(1), NodeId(2)),
                PageOp::migrate(VirtPage(2), NodeId(3)),
            ],
        );
        assert_eq!(violations(&p), Vec::<String>::new());
        assert!(check(&p).is_ok());
    }

    #[test]
    fn storm_seized_frames_stay_accounted() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        let taken = p.seize_frames(NodeId(0), 2);
        assert!(taken > 0);
        assert_eq!(violations(&p), Vec::<String>::new());
        p.release_seized(NodeId(0));
        assert_eq!(violations(&p), Vec::<String>::new());
    }

    #[test]
    fn checks_run_after_every_op_kind() {
        let mut p = pager();
        for (i, node) in [(1u64, 0u16), (2, 1), (3, 2)] {
            p.set_pid_node(Pid(i as u32), NodeId(node));
            p.first_touch(Pid(i as u32), VirtPage(i), NodeId(node));
            p.first_touch(Pid(1), VirtPage(i), NodeId(0));
        }
        let batches: Vec<Vec<PageOp>> = vec![
            vec![PageOp::replicate(VirtPage(2), NodeId(0))],
            vec![PageOp::migrate(VirtPage(3), NodeId(3))],
            vec![PageOp::collapse(VirtPage(2))],
            vec![PageOp::remap(VirtPage(1), Pid(1), NodeId(0))],
        ];
        for (i, ops) in batches.into_iter().enumerate() {
            p.service_batch(Ns::from_ms(i as u64 + 1), &ops);
            assert_eq!(violations(&p), Vec::<String>::new(), "after batch {i}");
        }
    }

    #[test]
    fn leaked_frame_is_flagged() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        // Allocate a frame that no chain or storm accounts for.
        let (frames, _, _) = p.state_mut_for_test();
        frames.alloc(NodeId(1)).unwrap();
        let msgs = violations(&p);
        assert_eq!(msgs.len(), 1);
        assert!(msgs[0].contains("n1"), "names the node: {}", msgs[0]);
        assert!(msgs[0].contains("accounted"), "{}", msgs[0]);
        assert!(check(&p).is_err());
    }

    #[test]
    fn stale_pte_is_flagged() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        // Point the PTE at a frame that is not a copy of the page.
        let bogus = {
            let (frames, _, tables) = p.state_mut_for_test();
            let f = frames.alloc(NodeId(2)).unwrap();
            tables.map(Pid(1), VirtPage(1), f);
            f
        };
        let msgs = violations(&p);
        assert!(
            msgs.iter()
                .any(|m| m.contains("stale PTE") && m.contains(&bogus.to_string())),
            "expected a stale-PTE violation, got {msgs:?}"
        );
        let err = check(&p).unwrap_err();
        assert!(matches!(err, SimError::Invariant { count, .. } if count == msgs.len()));
    }

    #[test]
    fn double_mapped_frame_is_flagged() {
        let mut p = pager();
        p.first_touch(Pid(1), VirtPage(1), NodeId(0));
        let master = {
            let (_, hash, _) = p.state_mut_for_test();
            let master = hash.get(VirtPage(1)).unwrap().master();
            // A second page claims the same master frame.
            hash.insert_master(VirtPage(2), master);
            master
        };
        let msgs = violations(&p);
        assert!(
            msgs.iter()
                .any(|m| m.contains("two pages") && m.contains(&master.to_string())),
            "expected a double-map violation, got {msgs:?}"
        );
    }
}
