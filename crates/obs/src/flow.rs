//! Flow identifiers: the causal glue between span timelines.
//!
//! A *flow id* is a compact `u64` stamped on a message at its producing
//! span (an `isend`, a retransmission, an ODIN dispatch) and carried
//! through the wire path to its consuming span (the matching receive, the
//! worker's command-block execution). At export time the
//! [`graph`](crate::graph) module stitches producer and consumer spans
//! into happens-before edges, which is what turns per-rank timelines into
//! a program activity graph.
//!
//! ## Id layout
//!
//! `0` ([`NONE`]) means "no flow" — acks, disabled-path messages, and
//! every span recorded before this machinery existed. Nonzero ids come in
//! two namespaces:
//!
//! * **data flows** (`bit 63 clear`): `(domain << 32) | seq`. A *domain*
//!   is allocated once per rank state via [`next_domain`] (so two
//!   universes in one process — or the same rank id in a worker pool and
//!   a user job — can never collide), and `seq` counts that rank's
//!   messages from 1.
//! * **control flows** (`bit 63 set`): a process-global sequence from
//!   [`next_ctrl`], used by the ODIN master for dispatches to workers.
//!   Control flows cross clock domains (the master runs on wall time),
//!   so the critical-path walk treats their edges as annotation-only.
//!
//! Ids are *not* stable across runs (domains are allocated in thread
//! start order); anything that must be deterministic — the PAG
//! fingerprint, the critical-path report — therefore keys on graph
//! structure, never on raw flow ids.

use std::sync::atomic::{AtomicU64, Ordering};

/// The null flow id: no causal edge.
pub const NONE: u64 = 0;

/// Bit marking a control-plane (master → worker) flow.
const CTRL_BIT: u64 = 1 << 63;

static NEXT_DOMAIN: AtomicU64 = AtomicU64::new(1);
static NEXT_CTRL: AtomicU64 = AtomicU64::new(1);

/// Allocate a fresh flow domain (one per rank state / sender identity).
/// Domains are never reused within a process.
pub fn next_domain() -> u64 {
    NEXT_DOMAIN.fetch_add(1, Ordering::Relaxed)
}

/// Build a data-flow id from a sender's domain and its message sequence
/// number (1-based). Never returns [`NONE`] for valid inputs.
#[inline]
pub fn data(domain: u64, seq: u64) -> u64 {
    debug_assert!(domain >= 1, "flow domains start at 1");
    ((domain & 0x7FFF_FFFF) << 32) | (seq & 0xFFFF_FFFF)
}

/// Allocate a fresh control-plane flow id (ODIN master dispatches).
pub fn next_ctrl() -> u64 {
    CTRL_BIT | NEXT_CTRL.fetch_add(1, Ordering::Relaxed)
}

/// Argument keys shared between the `comm` instrumentation sites (which
/// record them) and the [`critpath`](crate::critpath) walk (which reads
/// them back). All values are virtual seconds unless noted.
pub mod args {
    /// Sender clock right after paying the posting overhead `o`.
    pub const POST_END: &str = "post_end_s";
    /// Virtual time the NIC finished serializing the message.
    pub const DEPART: &str = "depart_s";
    /// Pure serialization time `bytes · G` of the message.
    pub const WIRE: &str = "wire_s";
    /// Virtual arrival time at the receiver (`depart + L`).
    pub const ARRIVE: &str = "arrive_s";
    /// Seconds the receiver's wait actually blocked (`max(arrive − wait_clock, 0)`).
    pub const BLOCKED: &str = "blocked_s";
    /// Total clock advance of the receive wait (`blocked + o`).
    pub const ADV: &str = "adv_s";
    /// The model latency `L` in effect for this message.
    pub const LAT: &str = "lat_s";
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_nonzero_and_namespaced() {
        let d = next_domain();
        let f = data(d, 1);
        assert_ne!(f, NONE);
        assert_eq!(f & CTRL_BIT, 0);
        let c = next_ctrl();
        assert_ne!(c & CTRL_BIT, 0);
        assert_ne!(c, f);
    }

    #[test]
    fn domains_separate_equal_sequences() {
        let d1 = next_domain();
        let d2 = next_domain();
        assert_ne!(data(d1, 7), data(d2, 7));
    }
}
