//! # snowcat-graph — the concurrent-test (CT) graph representation
//!
//! The core data structure of the paper (§3.1): a CT — two STIs plus a
//! target schedule — is represented as a graph whose vertices are basic
//! blocks and whose edges come in five types:
//!
//! 1. **SCB control flow** — transitions observed during the sequential
//!    execution of each constituent STI,
//! 2. **URB control flow** — static edges from covered blocks to 1-hop
//!    uncovered reachable blocks,
//! 3. **intra-thread data flow** — write→read pairs on the same address
//!    within one thread's sequential run,
//! 4. **inter-thread potential data flow** — a write in one thread and a
//!    read in the other that touch the same address in their sequential
//!    runs, and
//! 5. **scheduling hints** — the proposed yield points.
//!
//! Graphs are additionally densified with *shortcut edges* (vertices k
//! sequential control-flow steps apart), following the paper's §5.1.1.
//!
//! Each vertex carries its type (SCB/URB) and the numeric-elided token
//! stream of its assembly text; tokens are pre-hashed into a fixed
//! vocabulary so the neural stack never needs the kernel image.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod build;
pub mod csr;
pub mod repr;

pub use build::{CtGraphBuilder, ScheduleOverlay};
pub use csr::{CsrAdj, KindAdj};
pub use repr::{
    CtGraph, Edge, EdgeKind, GraphStats, SchedMark, StaticFeats, VertKind, Vertex, MASK_TOKEN,
    NUM_EDGE_KINDS, NUM_SCHED_MARKS, STATIC_CHANNELS, VOCAB_SIZE,
};
