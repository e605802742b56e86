//! # dmap — distribution maps, directory lookup, and data-movement plans
//!
//! This crate is the analog of Tpetra's `Map`/`Directory`/`Import`/`Export`
//! (and Epetra's `BlockMap`), plus the 1-D repartitioning role of
//! Isorropia. A [`DistMap`] describes how `n` global indices are divided
//! among `P` ranks — block, cyclic, block-cyclic, or arbitrary, the same
//! distribution vocabulary ODIN exposes for its arrays (paper §III-A).
//!
//! [`CommPlan`] precomputes the communication needed to move data between
//! two maps (the Import/Export pattern), and [`partition`] rebalances a
//! block map under per-element weights.

pub mod directory;
pub mod import_export;
pub mod map;
pub mod partition;
pub mod plan_cache;
pub mod runs;

pub use directory::Directory;
pub use import_export::{CommPlan, PlanInFlight};
pub use map::{DistMap, Distribution};
pub use partition::rebalance_block_map;
pub use runs::{copy_runs, gather_runs, Run};
