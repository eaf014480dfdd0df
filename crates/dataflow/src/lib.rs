//! Discrete-event simulation of HLS dataflow regions (Task-Level
//! Pipelining).
//!
//! The paper's §III-B restructures the solver into tasks
//! (`Load → Compute → Store`, at element and node granularity) connected
//! by FIFO or ping-pong (PIPO) buffers, so that `Task_k` processes token
//! `i+1` while `Task_{k+1}` processes token `i`. The achieved initiation
//! interval of the whole region is set by the slowest task; buffers
//! introduce backpressure; violating the single-producer-single-consumer
//! or no-bypass conditions risks deadlock. This crate models all of that:
//!
//! * [`network`] — process-network description: tasks (II + latency per
//!   token), channels (FIFO/PIPO, bounded capacity), design-rule checks
//!   (SPSC, bypass detection, §III-B).
//! * [`sim`] — the event-driven discrete-event engine: exact
//!   start/finish times, stalls, channel occupancy, deadlock detection,
//!   optional trace. A task is re-examined only when one of its start
//!   conditions may have changed: its II elapses, its last missing input
//!   token matures, a slot of a full output channel frees, or a bank port
//!   it waits on frees (see the [`sim`] module docs for the wake rule).
//!
//! # Memory-bank port conflicts
//!
//! Channels can carry an optional *bank* id
//! ([`network::ChannelSpec::bank`], declared via
//! [`network::NetworkBuilder::banked_channel`]) marking traffic that
//! goes through one port of a banked memory system (a DDR channel or an
//! HBM2 pseudo-channel). The conflict rule: when a task starts a token,
//! it reserves the port of every distinct bank among its *banked output
//! channels* for its full II (the burst issues back-to-back beats); a
//! task cannot start while any port it needs is reserved. Each bank
//! keeps its waiting tasks in index order; a freed port wakes the lowest
//! waiter, and a waiter that cannot take it passes the wake to the next.
//! Within a cycle the woken tasks are examined in ascending
//! task-declaration order, in passes until a fixed point, so same-cycle
//! contenders are resolved by declaration order and banked simulation
//! stays fully deterministic: no randomness, no iteration over unordered
//! containers, ties broken by a total order fixed at build time. A
//! network with no banked channels takes none of these paths and reports
//! byte-identical results to the pre-banking engine; per-bank
//! reserved/stall/token counters appear in
//! [`sim::SimulationReport::bank_stats`] otherwise.
//! * [`analytic`] — closed-form steady-state model
//!   (`makespan ≈ fill + N · max II`), cross-validated against the DES by
//!   property tests.
//! * [`functional`] — typed staged pipelines for functional (bit-level)
//!   verification of a task decomposition against a reference.
//!
//! # Example
//!
//! ```
//! use hls_dataflow::network::{ChannelKind, NetworkBuilder};
//! use hls_dataflow::sim::simulate;
//!
//! // Load → Compute → Store, 1000 tokens, compute is the bottleneck.
//! // Channels are deep enough to cover the compute task's in-flight
//! // tokens (latency 40 / II 12 ⇒ ≥ 4 slots for full rate).
//! let mut b = NetworkBuilder::new();
//! let c1 = b.channel("load_to_compute", 8, ChannelKind::Fifo);
//! let c2 = b.channel("compute_to_store", 8, ChannelKind::Fifo);
//! b.task("load", 4, 10, vec![], vec![c1]);
//! b.task("compute", 12, 40, vec![c1], vec![c2]);
//! b.task("store", 4, 8, vec![c2], vec![]);
//! let net = b.build(1000).unwrap();
//! let report = simulate(&net).unwrap();
//! // Steady state: one token per 12 cycles.
//! assert!(report.makespan < 12 * 1000 + 200);
//! ```

#![deny(missing_docs)]

pub mod analytic;
pub mod buffer;
pub mod functional;
pub mod gantt;
pub mod network;
pub mod sim;

pub use network::{ChannelKind, Network, NetworkBuilder};
pub use sim::{simulate, BankStats, SimulationReport};

/// Errors produced by the dataflow layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataflowError {
    /// A channel has zero capacity.
    ZeroCapacity(String),
    /// A channel is written by more than one task (violates the paper's
    /// single-producer rule).
    MultipleProducers(String),
    /// A channel is read by more than one task (single-consumer rule).
    MultipleConsumers(String),
    /// A channel has no producer or no consumer.
    Dangling(String),
    /// The task graph contains a cycle.
    Cyclic,
    /// The simulation stopped making progress before completing.
    Deadlock {
        /// Cycle at which progress stopped.
        at_cycle: u64,
        /// Names of tasks that still had work.
        stuck_tasks: Vec<String>,
    },
    /// A task references a channel id that does not exist.
    UnknownChannel(usize),
    /// The network has no tasks.
    Empty,
    /// A bank assignment does not list exactly one bank per stream.
    AssignmentLength {
        /// Streams to place.
        streams: usize,
        /// Banks the assignment lists.
        assigned: usize,
    },
    /// A bank assignment was made for a different bank count than the
    /// memory system it is run on.
    BankCountMismatch {
        /// The assignment's bank count.
        assignment: usize,
        /// The memory system's bank count.
        system: usize,
    },
    /// A stream is placed on a bank the memory system does not have.
    UnknownBank {
        /// Stream index.
        stream: usize,
        /// The bank it is placed on.
        bank: usize,
        /// Banks in the system.
        banks: usize,
    },
}

impl std::fmt::Display for DataflowError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DataflowError::ZeroCapacity(c) => write!(f, "channel `{c}` has zero capacity"),
            DataflowError::MultipleProducers(c) => {
                write!(f, "channel `{c}` has multiple producers")
            }
            DataflowError::MultipleConsumers(c) => {
                write!(f, "channel `{c}` has multiple consumers")
            }
            DataflowError::Dangling(c) => write!(f, "channel `{c}` is not fully connected"),
            DataflowError::Cyclic => write!(f, "task graph contains a cycle"),
            DataflowError::Deadlock {
                at_cycle,
                stuck_tasks,
            } => write!(
                f,
                "deadlock at cycle {at_cycle}; stuck tasks: {}",
                stuck_tasks.join(", ")
            ),
            DataflowError::UnknownChannel(id) => write!(f, "unknown channel id {id}"),
            DataflowError::Empty => write!(f, "network has no tasks"),
            DataflowError::AssignmentLength { streams, assigned } => write!(
                f,
                "bank assignment lists {assigned} banks for {streams} streams"
            ),
            DataflowError::BankCountMismatch { assignment, system } => write!(
                f,
                "bank assignment is for {assignment} banks but the memory system has {system}"
            ),
            DataflowError::UnknownBank {
                stream,
                bank,
                banks,
            } => write!(
                f,
                "stream {stream} is placed on bank {bank} of a {banks}-bank system"
            ),
        }
    }
}

impl std::error::Error for DataflowError {}
