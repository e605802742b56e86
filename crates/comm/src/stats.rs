//! Per-rank communication statistics.
//!
//! The paper (§III-J) calls out "instrumentation to help identify
//! performance bottlenecks associated with different communication
//! patterns" as a goal of the ODIN prototype; these counters are that
//! instrumentation, and experiments E2/E4/E12 read them directly.

/// Counters accumulated by one rank over its lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CommStats {
    /// Point-to-point messages sent (collectives count their constituent
    /// p2p messages).
    pub msgs_sent: u64,
    /// Payload bytes sent.
    pub bytes_sent: u64,
    /// Point-to-point messages received.
    pub msgs_recv: u64,
    /// Payload bytes received.
    pub bytes_recv: u64,
    /// Wall-clock seconds spent blocked in `recv` (measured, not modeled).
    pub wall_recv_s: f64,
    /// Modeled seconds this rank's clock advanced due to communication.
    pub modeled_comm_s: f64,
    /// Modeled seconds this rank's clock advanced due to compute.
    pub modeled_compute_s: f64,
    /// Modeled communication seconds hidden behind compute: wire/flight
    /// time of nonblocking requests that elapsed while the rank's clock
    /// advanced between post and wait. Always 0 for purely blocking code.
    pub overlap_s: f64,
    /// Data envelopes this rank retransmitted (reliable delivery only).
    pub retransmits: u64,
    /// Fresh transmissions the fault plan dropped at this sender.
    pub faults_dropped: u64,
    /// Fresh transmissions the fault plan duplicated at this sender.
    pub faults_duplicated: u64,
    /// Fresh transmissions the fault plan delayed at this sender.
    pub faults_delayed: u64,
    /// Arrivals whose checksum failed verification at this receiver.
    pub corrupt_detected: u64,
    /// Duplicate arrivals suppressed by this receiver (reliable delivery).
    pub dup_suppressed: u64,
    /// Modeled seconds this rank's clock advanced retransmitting.
    pub retransmit_s: f64,
    /// Communication-plan cache hits on this rank (see `dmap`'s plan
    /// cache and the ODIN worker exchange-plan cache).
    pub plan_hits: u64,
    /// Communication-plan cache misses (a plan was built from scratch).
    pub plan_misses: u64,
    /// Wire buffers taken from this rank's pool instead of allocated.
    pub buffer_reuse: u64,
    /// Wire buffers the bounded pool refused to retain (pool full, or
    /// the buffer's capacity exceeded the per-entry cap after a large
    /// encode) — they are dropped instead of pinning the high-water mark.
    pub buffer_pool_evictions: u64,
    /// Messages this rank sent as zero-copy region handles instead of
    /// encoded wire bytes.
    pub zerocopy_msgs: u64,
    /// Encoded-equivalent bytes of those region sends (the same modeled
    /// size `bytes_sent` counts, so `bytes_sent − zerocopy_bytes` is the
    /// traffic that was actually serialized).
    pub zerocopy_bytes: u64,
    /// `Corrupt` faults that landed on a region send and were skipped:
    /// checksumming is wire-path-only, so a region has no byte image to
    /// flip (see the `payload` module docs). Never silently half-applied.
    pub corrupt_skipped_region: u64,
    /// Region arrivals whose FNV integrity digest was re-derived and
    /// verified at a typed receive (only counts when
    /// [`UniverseConfig::region_integrity`](crate::UniverseConfig) is on).
    pub region_integrity_checked: u64,
}

impl CommStats {
    /// Merge another rank's counters into this one (for whole-job totals).
    pub fn merge(&mut self, other: &CommStats) {
        self.msgs_sent += other.msgs_sent;
        self.bytes_sent += other.bytes_sent;
        self.msgs_recv += other.msgs_recv;
        self.bytes_recv += other.bytes_recv;
        self.wall_recv_s += other.wall_recv_s;
        self.modeled_comm_s += other.modeled_comm_s;
        self.modeled_compute_s += other.modeled_compute_s;
        self.overlap_s += other.overlap_s;
        self.retransmits += other.retransmits;
        self.faults_dropped += other.faults_dropped;
        self.faults_duplicated += other.faults_duplicated;
        self.faults_delayed += other.faults_delayed;
        self.corrupt_detected += other.corrupt_detected;
        self.dup_suppressed += other.dup_suppressed;
        self.retransmit_s += other.retransmit_s;
        self.plan_hits += other.plan_hits;
        self.plan_misses += other.plan_misses;
        self.buffer_reuse += other.buffer_reuse;
        self.buffer_pool_evictions += other.buffer_pool_evictions;
        self.zerocopy_msgs += other.zerocopy_msgs;
        self.zerocopy_bytes += other.zerocopy_bytes;
        self.corrupt_skipped_region += other.corrupt_skipped_region;
        self.region_integrity_checked += other.region_integrity_checked;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_sums_fields() {
        let mut a = CommStats {
            msgs_sent: 1,
            bytes_sent: 10,
            msgs_recv: 2,
            bytes_recv: 20,
            wall_recv_s: 0.5,
            modeled_comm_s: 0.25,
            modeled_compute_s: 1.0,
            overlap_s: 0.125,
            retransmits: 3,
            faults_dropped: 2,
            faults_duplicated: 1,
            faults_delayed: 4,
            corrupt_detected: 1,
            dup_suppressed: 1,
            retransmit_s: 0.0625,
            plan_hits: 5,
            plan_misses: 2,
            buffer_reuse: 7,
            buffer_pool_evictions: 3,
            zerocopy_msgs: 9,
            zerocopy_bytes: 900,
            corrupt_skipped_region: 2,
            region_integrity_checked: 5,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.msgs_sent, 2);
        assert_eq!(a.bytes_sent, 20);
        assert_eq!(a.msgs_recv, 4);
        assert_eq!(a.bytes_recv, 40);
        assert!((a.wall_recv_s - 1.0).abs() < 1e-12);
        assert!((a.modeled_comm_s - 0.5).abs() < 1e-12);
        assert!((a.modeled_compute_s - 2.0).abs() < 1e-12);
        assert!((a.overlap_s - 0.25).abs() < 1e-12);
        assert_eq!(a.retransmits, 6);
        assert_eq!(a.faults_dropped, 4);
        assert_eq!(a.faults_duplicated, 2);
        assert_eq!(a.faults_delayed, 8);
        assert_eq!(a.corrupt_detected, 2);
        assert_eq!(a.dup_suppressed, 2);
        assert!((a.retransmit_s - 0.125).abs() < 1e-12);
        assert_eq!(a.plan_hits, 10);
        assert_eq!(a.plan_misses, 4);
        assert_eq!(a.buffer_reuse, 14);
        assert_eq!(a.buffer_pool_evictions, 6);
        assert_eq!(a.zerocopy_msgs, 18);
        assert_eq!(a.zerocopy_bytes, 1800);
        assert_eq!(a.corrupt_skipped_region, 4);
        assert_eq!(a.region_integrity_checked, 10);
    }
}
