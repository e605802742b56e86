//! # comm — message-passing substrate with a virtual-time cluster model
//!
//! This crate stands in for MPI in the reproduction of *"A Python HPC
//! framework: PyTrilinos, ODIN, and Seamless"* (SC 2012). Every *rank* is an
//! OS thread with a private mailbox; ranks exchange typed, tagged messages
//! and participate in collectives, exactly mirroring the MPI programming
//! model the paper's systems are built on.
//!
//! Because the reproduction runs on a shared-memory machine rather than a
//! cluster, the substrate additionally maintains a **LogGP-style virtual
//! clock** per rank: each message advances the receiver's clock by
//! `L + bytes·G`, and compute phases advance clocks via
//! [`Comm::advance_compute`]. Benchmarks report both measured wall time and
//! the modeled cluster makespan (the maximum clock over all ranks), which is
//! what gives scaling curves their *shape* when more ranks are simulated
//! than physical cores exist.
//!
//! ## Quick example
//!
//! ```
//! use comm::{Universe, ReduceOp};
//!
//! let results = Universe::run(4, |comm| {
//!     let mine = (comm.rank() + 1) as u64;
//!     comm.allreduce(&mine, ReduceOp::sum())
//! });
//! assert_eq!(results, vec![10, 10, 10, 10]);
//! ```

pub mod collectives;
pub mod comm;
pub mod error;
pub mod fault;
pub mod model;
pub mod payload;
pub mod reliable;
pub mod request;
pub mod stats;
pub mod universe;
pub mod wire;

pub use crate::comm::{Comm, Src, Status, Tag, MAX_USER_TAG};
pub use collectives::{CollectiveAlgo, ReduceOp};
pub use error::CommError;
pub use fault::{Delivery, FaultAction, FaultPlan};
pub use model::NetworkModel;
pub use payload::{Payload, Region, DEFAULT_ZEROCOPY_THRESHOLD};
pub use request::{Completion, Request};
pub use stats::CommStats;
pub use universe::{Host, HostEvent, RunReport, Universe, UniverseConfig};
pub use wire::{decode_from_slice, encode_to_vec, Cursor, Wire};
