//! Property-based tests for the policy engine's invariants.

use ccnuma_core::{
    CounterTable, DynamicPolicyKind, NoActionReason, ObservedMiss, PageCounters, PageLocation,
    Placer, PolicyAction, PolicyEngine, PolicyParams, RoundRobin,
};
use ccnuma_types::{NodeId, Ns, ProcId, VirtPage};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn arb_miss() -> impl Strategy<Value = (u64, u16, u64, bool)> {
    (0u64..500_000_000, 0u16..8, 0u64..32, proptest::bool::ANY)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// The trigger fires at most once per (page, processor) per reset
    /// interval: within one interval, a remote page generates at most one
    /// hot event per processor no matter how many misses arrive.
    #[test]
    fn at_most_one_hot_event_per_proc_per_interval(
        trigger in 2u32..64,
        misses in 1u64..400,
    ) {
        let params = PolicyParams::base().with_trigger(trigger);
        // Replication-only so no action clears the counters.
        let mut e = PolicyEngine::new(params, DynamicPolicyKind::ReplicationOnly);
        let loc = PageLocation::master_only(NodeId(0), NodeId(1));
        for i in 0..misses {
            // All within one 100ms interval.
            let now = Ns(i * 1000);
            let _ = e.observe(
                ObservedMiss::read(now, ProcId(1), NodeId(1), VirtPage(7)),
                &loc,
                false,
            );
        }
        let expected = u64::from(misses >= trigger as u64);
        prop_assert_eq!(e.stats().hot_events, expected);
    }

    /// Local pages never produce hot events or actions.
    #[test]
    fn local_pages_never_acted_on(events in proptest::collection::vec(arb_miss(), 1..300)) {
        let mut e = PolicyEngine::new(
            PolicyParams::base().with_trigger(2),
            DynamicPolicyKind::MigRep,
        );
        for (t, proc, page, write) in events {
            let node = NodeId(proc % 8);
            let loc = PageLocation::master_only(node, node);
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node,
                page: VirtPage(page),
                is_write: write,
            };
            let action = e.observe(miss, &loc, false);
            prop_assert!(
                matches!(
                    action,
                    PolicyAction::Nothing(NoActionReason::NotHot)
                        | PolicyAction::Nothing(NoActionReason::AlreadyLocal)
                ),
                "acted on a local page: {action:?}"
            );
        }
        prop_assert_eq!(e.stats().hot_events, 0);
        prop_assert_eq!(e.stats().migrations + e.stats().replications, 0);
    }

    /// The observation count in stats always equals the misses fed in.
    #[test]
    fn misses_observed_counts_every_observation(
        events in proptest::collection::vec(arb_miss(), 0..300),
    ) {
        let mut e = PolicyEngine::new(PolicyParams::base(), DynamicPolicyKind::MigRep);
        let n = events.len() as u64;
        for (t, proc, page, write) in events {
            let loc = PageLocation::master_only(NodeId(0), NodeId(proc % 8));
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node: NodeId(proc % 8),
                page: VirtPage(page),
                is_write: write,
            };
            let _ = e.observe(miss, &loc, false);
        }
        prop_assert_eq!(e.stats().misses_observed, n);
    }

    /// A write to a replicated page always collapses, regardless of heat,
    /// thresholds or policy kind (the pfault path is unconditional).
    #[test]
    fn write_to_replicated_always_collapses(
        t in 0u64..1_000_000,
        proc in 0u16..8,
        kind_sel in 0u8..3,
    ) {
        let kind = match kind_sel {
            0 => DynamicPolicyKind::MigrationOnly,
            1 => DynamicPolicyKind::ReplicationOnly,
            _ => DynamicPolicyKind::MigRep,
        };
        let mut e = PolicyEngine::new(PolicyParams::base(), kind);
        let node = NodeId(proc % 8);
        let loc = PageLocation::new(NodeId(0), node, &[NodeId(0), NodeId(3)]);
        let action = e.observe(
            ObservedMiss::write(Ns(t), ProcId(proc), node, VirtPage(1)),
            &loc,
            false,
        );
        prop_assert_eq!(action, PolicyAction::Collapse);
    }

    /// Round-robin placement is a permutation-stable function: each page
    /// gets exactly one home, and homes cycle through all nodes.
    #[test]
    fn round_robin_placement_is_stable_and_covering(
        pages in proptest::collection::vec(0u64..64, 1..200),
        nodes in 1u16..16,
    ) {
        let mut rr = RoundRobin::new(nodes);
        let mut first: std::collections::HashMap<u64, NodeId> = std::collections::HashMap::new();
        for &p in &pages {
            let home = rr.place(VirtPage(p), NodeId(0));
            prop_assert!(home.0 < nodes);
            let prev = first.entry(p).or_insert(home);
            prop_assert_eq!(*prev, home, "placement changed for page {}", p);
        }
        // Distinct pages in first-touch order get consecutive nodes.
        let mut seen = std::collections::HashSet::new();
        let mut order = Vec::new();
        for &p in &pages {
            if seen.insert(p) {
                order.push(first[&p]);
            }
        }
        for (i, home) in order.iter().enumerate() {
            prop_assert_eq!(home.0, (i as u16) % nodes);
        }
    }

    /// Actions are consistent with the location: Migrate/Replicate target
    /// the accessor's node, Remap only fires when a local copy exists.
    #[test]
    fn actions_target_the_accessor(events in proptest::collection::vec(arb_miss(), 1..400)) {
        let mut e = PolicyEngine::new(
            PolicyParams::base().with_trigger(3),
            DynamicPolicyKind::MigRep,
        );
        for (t, proc, page, write) in events {
            let node = NodeId(proc % 8);
            let master = NodeId((page % 8) as u16);
            // Sometimes a replica exists on the accessor's node.
            let copies = if page % 3 == 0 && master != node {
                vec![master, node]
            } else {
                vec![master]
            };
            let loc = PageLocation::new(master, node, &copies);
            let miss = ObservedMiss {
                now: Ns(t),
                proc: ProcId(proc),
                node,
                page: VirtPage(page),
                is_write: write,
            };
            match e.observe(miss, &loc, false) {
                PolicyAction::Migrate { to } | PolicyAction::Remap { to } => {
                    prop_assert_eq!(to, node)
                }
                PolicyAction::Replicate { at } => prop_assert_eq!(at, node),
                PolicyAction::Collapse | PolicyAction::Nothing(_) => {}
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `CounterTable` against one `PageCounters` per page over sparse
    /// pages (half near 0, half up to 2^20): every operation the engine
    /// uses, then every read, must agree.
    #[test]
    fn counter_table_matches_per_page_counters(
        dense in proptest::collection::vec(0u64..64, 3),
        sparse in proptest::collection::vec(0u64..1 << 20, 3),
        ops in proptest::collection::vec((0usize..6, 0u8..7, 0u16..8, 0u64..4, 1u32..6), 1..300),
    ) {
        let pages: Vec<VirtPage> = dense.into_iter().chain(sparse).map(VirtPage).collect();
        let mut table = CounterTable::new(8);
        let mut model: BTreeMap<VirtPage, PageCounters> = BTreeMap::new();
        for (i, op, proc, epoch, cap) in ops {
            let page = pages[i];
            let proc = ProcId(proc);
            let s = table.slot(page, cap);
            let c = model
                .entry(page)
                .or_insert_with(|| PageCounters::new(8).with_cap(cap));
            match op {
                0 => prop_assert_eq!(table.roll_epoch(s, epoch), c.roll_epoch(epoch)),
                1 | 2 => prop_assert_eq!(
                    table.record_miss(s, proc, op == 2),
                    c.record_miss(proc, op == 2)
                ),
                3 => {
                    table.record_migrate(s);
                    c.record_migrate();
                }
                4 => {
                    table.clear_misses(s);
                    c.clear_misses();
                }
                5 => {
                    table.clear_proc(s, proc);
                    c.clear_proc(proc);
                }
                _ => {
                    table.freeze_until(s, epoch);
                    c.freeze_until(epoch);
                }
            }
            prop_assert_eq!(table.len(), model.len());
        }
        for page in &pages {
            let Some(c) = model.get(page) else {
                prop_assert!(table.get(*page).is_none());
                continue;
            };
            let s = table.slot(*page, 1);
            let view = table.get(*page).expect("counted page has a view");
            prop_assert_eq!(view.writes(), c.writes());
            prop_assert_eq!(view.migrates(), c.migrates());
            prop_assert_eq!(table.writes(s), c.writes());
            prop_assert_eq!(table.migrates(s), c.migrates());
            for p in (0..8).map(ProcId) {
                prop_assert_eq!(view.miss_count(p), c.miss_count(p));
                prop_assert_eq!(table.miss_count(s, p), c.miss_count(p));
                for sharing in 1..4 {
                    prop_assert_eq!(table.shared_beyond(s, p, sharing), c.shared_beyond(p, sharing));
                }
            }
            for epoch in 0..6 {
                prop_assert_eq!(table.is_frozen(s, epoch), c.is_frozen(epoch));
            }
        }
        prop_assert!(table.get(VirtPage(1 << 21)).is_none());
    }
}
