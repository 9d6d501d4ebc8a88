//! Shared error types.

use core::fmt;

/// An invalid machine configuration.
///
/// Returned by [`crate::MachineConfig::validate`] and
/// [`crate::Topology::validate`]. Simple field problems use
/// [`ConfigError::Field`] with a message naming the offending field;
/// topology problems carry the offending coordinates so a typo in a
/// 1024×1024 hop matrix is findable.
///
/// # Examples
///
/// ```
/// use ccnuma_types::MachineConfig;
/// let mut cfg = MachineConfig::cc_numa();
/// cfg.page_size = 1000; // not a power of two
/// let err = cfg.validate().unwrap_err();
/// assert!(err.to_string().contains("page_size"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A scalar field is out of range; the message names it.
    Field(&'static str),
    /// The hop matrix is asymmetric: `hop[a][b] != hop[b][a]`.
    AsymmetricHop {
        /// First node of the offending pair.
        a: u16,
        /// Second node of the offending pair.
        b: u16,
        /// The `a → b` hop cost.
        ab: crate::Ns,
        /// The `b → a` hop cost.
        ba: crate::Ns,
    },
    /// A node's hop cost to itself is non-zero.
    SelfHop {
        /// The offending node.
        node: u16,
        /// The non-zero diagonal entry.
        cost: crate::Ns,
    },
    /// A hop cost was negative (caught before it wraps to a huge `Ns`).
    NegativeHop {
        /// Source node of the offending entry.
        from: u16,
        /// Destination node of the offending entry.
        to: u16,
        /// The negative cost as given.
        cost: i64,
    },
    /// A node advertises zero memory device latency.
    ZeroLatency {
        /// The offending node.
        node: u16,
    },
    /// `nodes × procs_per_node` exceeds [`crate::ProcSet::MAX_PROCS`].
    TooManyProcs {
        /// The requested processor count, computed without wrapping.
        procs: u32,
        /// The largest supported processor count.
        max: u16,
    },
    /// The topology's node count disagrees with `MachineConfig::nodes`.
    NodeCountMismatch {
        /// Nodes in the topology.
        topology: u16,
        /// Nodes in the machine configuration.
        machine: u16,
    },
}

impl ConfigError {
    pub(crate) fn new(message: &'static str) -> ConfigError {
        ConfigError::Field(message)
    }
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid machine configuration: ")?;
        match self {
            ConfigError::Field(message) => f.write_str(message),
            ConfigError::AsymmetricHop { a, b, ab, ba } => write!(
                f,
                "topology hop matrix is asymmetric: hop[{a}][{b}] = {ab} but hop[{b}][{a}] = {ba}"
            ),
            ConfigError::SelfHop { node, cost } => write!(
                f,
                "topology hop matrix has non-zero self-hop on node {node}: {cost}"
            ),
            ConfigError::NegativeHop { from, to, cost } => {
                write!(f, "topology hop cost [{from}][{to}] is negative: {cost} ns")
            }
            ConfigError::ZeroLatency { node } => write!(
                f,
                "topology node {node} advertises zero memory device latency"
            ),
            ConfigError::TooManyProcs { procs, max } => write!(
                f,
                "nodes x procs_per_node is {procs} processors; at most {max} are supported"
            ),
            ConfigError::NodeCountMismatch { topology, machine } => write!(
                f,
                "topology describes {topology} nodes but the machine has {machine}"
            ),
        }
    }
}

impl std::error::Error for ConfigError {}

/// A runtime failure inside a simulated run.
///
/// These replace the `panic!`/`assert!`/`expect` paths that used to
/// abort the whole process: kernel primitives return `SimError` upward,
/// the machine runner surfaces it from `Machine::try_run`, and the bench
/// executor records it as a per-run failure while the rest of the plan
/// continues.
///
/// # Examples
///
/// ```
/// use ccnuma_types::{Frame, NodeId, SimError};
/// let e = SimError::DoubleFree { frame: Frame(7), node: NodeId(2) };
/// assert!(e.to_string().contains("double free"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// A frame was freed twice (or freed while not allocated).
    DoubleFree {
        /// The frame that was freed again.
        frame: crate::Frame,
        /// The node whose allocator caught it.
        node: crate::NodeId,
    },
    /// No frame could be allocated anywhere, even after reclaiming
    /// replicas — the simulated machine is truly out of memory.
    OutOfMemory {
        /// The page that needed a frame.
        page: crate::VirtPage,
        /// The node the allocation was first tried on.
        node: crate::NodeId,
    },
    /// A page the kernel expected to be mapped has no hash entry.
    MissingPage {
        /// The missing page.
        page: crate::VirtPage,
    },
    /// The kernel invariant checker found inconsistencies.
    Invariant {
        /// How many violations were found in the failing check.
        count: usize,
        /// The first violation, as a human-readable message.
        first: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::DoubleFree { frame, node } => {
                write!(f, "double free of {frame} on {node}")
            }
            SimError::OutOfMemory { page, node } => write!(
                f,
                "out of memory mapping {page}: no free frame on {node} or any fallback, even after replica reclamation"
            ),
            SimError::MissingPage { page } => {
                write!(f, "kernel state missing hash entry for mapped page {page}")
            }
            SimError::Invariant { count, first } => {
                write!(f, "kernel invariant check failed ({count} violations; first: {first})")
            }
        }
    }
}

impl std::error::Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_message() {
        let e = ConfigError::new("nodes must be non-zero");
        assert_eq!(
            e.to_string(),
            "invalid machine configuration: nodes must be non-zero"
        );
    }

    #[test]
    fn topology_variants_name_the_coordinates() {
        use crate::Ns;
        let e = ConfigError::AsymmetricHop {
            a: 1,
            b: 3,
            ab: Ns(200),
            ba: Ns(900),
        };
        assert!(e.to_string().contains("hop[1][3]"), "{e}");
        let e = ConfigError::SelfHop {
            node: 2,
            cost: Ns(50),
        };
        assert!(e.to_string().contains("self-hop on node 2"), "{e}");
        let e = ConfigError::NegativeHop {
            from: 0,
            to: 1,
            cost: -7,
        };
        assert!(e.to_string().contains("-7 ns"), "{e}");
        let e = ConfigError::ZeroLatency { node: 4 };
        assert!(e.to_string().contains("node 4"), "{e}");
        let e = ConfigError::NodeCountMismatch {
            topology: 4,
            machine: 8,
        };
        assert!(e.to_string().contains("4 nodes"), "{e}");
        assert!(e.to_string().contains("has 8"), "{e}");
    }

    #[test]
    fn is_std_error_send_sync() {
        fn assert_err<E: std::error::Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
        assert_err::<SimError>();
    }

    #[test]
    fn sim_error_messages_name_the_entities() {
        use crate::{Frame, NodeId, VirtPage};
        let oom = SimError::OutOfMemory {
            page: VirtPage(0x20),
            node: NodeId(3),
        };
        assert!(oom.to_string().contains("v0x20"));
        assert!(oom.to_string().contains("n3"));
        let missing = SimError::MissingPage { page: VirtPage(1) };
        assert!(missing.to_string().contains("hash entry"));
        let inv = SimError::Invariant {
            count: 2,
            first: "frame f0 mapped twice".into(),
        };
        assert!(inv.to_string().contains("2 violations"));
        let df = SimError::DoubleFree {
            frame: Frame(9),
            node: NodeId(1),
        };
        assert!(df.to_string().contains("double free"));
    }
}
