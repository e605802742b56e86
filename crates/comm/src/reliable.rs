//! Reliable delivery over the (fault-injected) unreliable channel.
//!
//! When [`Delivery::Reliable`] is
//! selected, every fresh data envelope carries a per-`(sender, receiver)`
//! sequence number and is held by the sender until the receiver
//! acknowledges it. The machinery is deliberately classical:
//!
//! * **acks** — the receiver acks every data arrival at intake, before tag
//!   matching, so even messages parked in the pending queue are
//!   acknowledged promptly;
//! * **retransmit** — unacked envelopes are re-sent with exponential
//!   backoff. Blocking waits poll on a short tick while the rank has
//!   unacked sends, so a blocked sender still drives its own
//!   retransmissions — a rank idle in [`Comm::recv_host`] parks in that
//!   same loop; [`Comm::quiesce`](crate::comm::Comm) runs the same pump
//!   at the end of a rank's program;
//! * **dup suppression** — the receiver remembers delivered sequence
//!   numbers per source and discards repeats (injected duplicates and
//!   spurious retransmits alike);
//! * **corruption** — an arrival failing checksum verification is
//!   discarded *without* an ack, which turns bit-corruption into a drop
//!   the retransmit path already heals. Checksums cover the wire-bytes
//!   arm only: zero-copy region payloads never serialize, cannot
//!   bit-corrupt in-process, and arrive with checksum 0 (a `Corrupt`
//!   fault on a region send is skipped and counted in
//!   [`CommStats::corrupt_skipped_region`](crate::CommStats)).
//!
//! Retransmissions and acks are exempt from fault injection (see
//! [`fault`]), so one retransmission always heals one lost
//! message and the counters obey
//! `retransmits == faults_dropped + corrupt_detected` whenever every sent
//! message is eventually consumed. Retransmissions are charged to the
//! virtual clock like fresh sends (`o + bytes·G`, tracked in
//! [`CommStats::retransmit_s`](crate::CommStats::retransmit_s)); acks cost
//! the acking rank a posting overhead `o`.

use std::time::{Duration, Instant};

use crate::comm::{Comm, EnvKind, Envelope};
use crate::error::CommError;
use crate::fault::{self, Delivery, FaultAction};
use crate::payload::Payload;

/// Initial retransmit timeout. Must comfortably exceed a same-machine
/// mailbox round trip so healthy traffic is never retransmitted.
const RTO: Duration = Duration::from_millis(5);
/// Exponential backoff cap.
const RTO_MAX: Duration = Duration::from_millis(80);
/// Poll tick for blocking waits while unacked sends are outstanding.
pub(crate) const RETX_TICK: Duration = Duration::from_millis(1);
/// Default bound on [`Comm::quiesce`] when no stall timeout is set.
const QUIESCE_LIMIT: Duration = Duration::from_secs(5);

/// A sent-but-unacked envelope, kept for retransmission. For region
/// payloads the retained copy is an `Arc` clone — free, and it is why a
/// receiver may find the region handle shared until the ack lands.
pub(crate) struct Retx {
    pub(crate) gdest: usize,
    pub(crate) ctx: u64,
    pub(crate) src: usize,
    pub(crate) tag: u32,
    pub(crate) seq: u64,
    pub(crate) payload: Payload,
    pub(crate) checksum: u64,
    pub(crate) next_retry: Instant,
    pub(crate) backoff: Duration,
    /// Causal flow id of the original transmission; retransmitted copies
    /// carry the same id so the activity graph can match whichever copy
    /// actually delivered.
    pub(crate) flow: u64,
}

impl Comm {
    pub(crate) fn reliable(&self) -> bool {
        self.state.delivery == Delivery::Reliable
    }

    /// Charge one operation against the fault plan's kill budget. Called
    /// internally by every post; public so higher layers (the ODIN worker
    /// loop) can charge command execution against the same budget. Once
    /// the threshold is crossed the rank is dead: every further call
    /// returns [`CommError::Killed`].
    pub fn fault_tick(&self) -> Result<(), CommError> {
        let st = &self.state;
        if st.killed.get() {
            return Err(self.killed_error());
        }
        if st.fault.kill_rank != Some(st.world_rank) {
            return Ok(());
        }
        let ops = st.op_count.get() + 1;
        st.op_count.set(ops);
        if st.fault.kills(st.world_rank, ops) {
            st.killed.set(true);
            return Err(self.killed_error());
        }
        Ok(())
    }

    fn killed_error(&self) -> CommError {
        CommError::Killed {
            rank: self.state.world_rank,
            after_ops: self.state.fault.kill_after_ops,
        }
    }

    /// Transmit a fresh data envelope: roll the fault plan's dice,
    /// register the message for retransmission in reliable mode, and
    /// place it (or not) in the destination mailbox. Returns the actual
    /// departure time stamped on the envelope — `depart` plus any
    /// injected delay — so the caller's send span can attribute the
    /// delay to the sender instead of mistaking it for wire latency.
    pub(crate) fn transmit_fresh(
        &self,
        dest_local: usize,
        tag: u32,
        mut depart: f64,
        payload: Payload,
        flow: u64,
    ) -> Result<f64, CommError> {
        let st = &self.state;
        let gdest = self.group[dest_local];
        let reliable = self.reliable();
        let active = st.fault.is_active();
        // Checksumming is wire-path-only: a region handle never
        // serializes, so there is no byte image to protect (or corrupt).
        let cks = match &payload {
            Payload::Bytes(bytes) if active || reliable => fault::checksum(bytes),
            _ => 0,
        };
        let seq = if reliable {
            let mut next = st.next_seq.borrow_mut();
            next[gdest] += 1;
            next[gdest]
        } else {
            0
        };
        let action = if active {
            let idx = st.send_count.get();
            st.send_count.set(idx + 1);
            st.fault.action(st.world_rank, idx)
        } else {
            FaultAction::None
        };
        if action == FaultAction::Delay {
            depart += st.fault.delay_s;
            st.stats.borrow_mut().faults_delayed += 1;
        }
        if reliable {
            st.unacked.borrow_mut().push(Retx {
                gdest,
                ctx: self.ctx,
                src: self.rank(),
                tag,
                seq,
                payload: payload.clone(),
                checksum: cks,
                next_retry: Instant::now() + RTO,
                backoff: RTO,
                flow,
            });
        }
        let mut env = Envelope {
            ctx: self.ctx,
            src: self.rank(),
            tag,
            depart,
            payload,
            gsrc: st.world_rank,
            seq,
            checksum: cks,
            kind: EnvKind::Data,
            corrupt: false,
            flow,
        };
        match action {
            FaultAction::Drop => {
                st.stats.borrow_mut().faults_dropped += 1;
                if obs::enabled() {
                    self.obs_fault_counter("comm.dropped");
                }
                // Never enqueued; reliable mode heals it by retransmit.
                Ok(depart)
            }
            FaultAction::Corrupt => {
                match &mut env.payload {
                    // Flip one payload bit after checksumming (or the
                    // checksum itself for empty payloads) so the
                    // receiver detects it.
                    Payload::Bytes(bytes) if bytes.is_empty() => env.checksum ^= 1,
                    Payload::Bytes(bytes) => {
                        let mid = bytes.len() / 2;
                        bytes[mid] ^= 0x10;
                    }
                    // A region handle has no wire image to flip: the
                    // fault is skipped outright — counted, never
                    // half-applied (see the `payload` module docs).
                    Payload::Region(_) => {
                        st.stats.borrow_mut().corrupt_skipped_region += 1;
                        if obs::enabled() {
                            self.obs_fault_counter("comm.corrupt_skipped_region");
                        }
                    }
                }
                self.senders[gdest]
                    .send(env)
                    .map_err(|_| CommError::Disconnected)?;
                Ok(depart)
            }
            FaultAction::Duplicate => {
                st.stats.borrow_mut().faults_duplicated += 1;
                let dup = env.clone();
                self.senders[gdest]
                    .send(env)
                    .map_err(|_| CommError::Disconnected)?;
                let _ = self.senders[gdest].send(dup);
                Ok(depart)
            }
            FaultAction::Delay | FaultAction::None => {
                self.senders[gdest]
                    .send(env)
                    .map_err(|_| CommError::Disconnected)?;
                Ok(depart)
            }
        }
    }

    /// Route one arrived envelope through the reliability layer. Returns
    /// the envelope if it should enter tag matching, `None` if it was
    /// consumed here (an ack, a suppressed duplicate, a discarded corrupt
    /// arrival, or host traffic, which queues in its own FIFO).
    pub(crate) fn intake(&self, mut env: Envelope) -> Option<Envelope> {
        let st = &self.state;
        match env.kind {
            EnvKind::Data => {}
            EnvKind::Ack => {
                st.unacked
                    .borrow_mut()
                    .retain(|r| !(r.gdest == env.gsrc && r.seq == env.seq));
                return None;
            }
            EnvKind::Host => {
                st.host_inbox
                    .borrow_mut()
                    .push_back((env.payload, env.flow));
                return None;
            }
            EnvKind::HostClosed => {
                st.host_closed.set(true);
                return None;
            }
        }
        let verify = st.delivery == Delivery::Reliable || st.fault.is_active();
        // Verification is wire-path-only: region arrivals always pass
        // (they carry checksum 0 and cannot bit-corrupt in-process).
        let ok = match &env.payload {
            Payload::Bytes(bytes) if verify => fault::checksum(bytes) == env.checksum,
            _ => true,
        };
        if !ok {
            st.stats.borrow_mut().corrupt_detected += 1;
            if obs::enabled() {
                self.obs_fault_counter("comm.corrupt");
            }
        }
        if st.delivery == Delivery::Reliable {
            if !ok {
                // No ack: the sender retransmits an intact copy.
                return None;
            }
            self.send_ack(env.gsrc, env.seq);
            if !st.seen.borrow_mut()[env.gsrc].insert(env.seq) {
                st.stats.borrow_mut().dup_suppressed += 1;
                if obs::enabled() {
                    self.obs_fault_counter("comm.dup_suppressed");
                }
                return None;
            }
            Some(env)
        } else {
            // Raw mode: corruption surfaces as a typed error at delivery.
            env.corrupt = !ok;
            Some(env)
        }
    }

    /// Drain the OS mailbox into the pending queue without blocking.
    pub(crate) fn drain_mailbox(&self) {
        while let Ok(env) = self.state.rx.try_recv() {
            if let Some(env) = self.intake(env) {
                self.state.pending.borrow_mut().push(env);
            }
        }
    }

    fn send_ack(&self, gdest: usize, seq: u64) {
        let st = &self.state;
        let o = self.model.overhead_s;
        st.clock.set(st.clock.get() + o);
        st.stats.borrow_mut().modeled_comm_s += o;
        // Best effort: the original sender may already be gone.
        let _ = self.senders[gdest].send(Envelope {
            depart: st.clock.get(),
            gsrc: st.world_rank,
            seq,
            ..Envelope::control(EnvKind::Ack, Payload::Bytes(Vec::new()), 0)
        });
    }

    /// Retransmit every unacked envelope whose retry deadline has passed.
    /// No-op outside reliable mode.
    pub(crate) fn pump_retransmits(&self) {
        if !self.reliable() || self.state.unacked.borrow().is_empty() {
            return;
        }
        let st = &self.state;
        let now = Instant::now();
        let mut unacked = st.unacked.borrow_mut();
        for r in unacked.iter_mut() {
            if now < r.next_retry {
                continue;
            }
            let o = self.model.overhead_s;
            let wire = r.payload.wire_len() as f64 * self.model.seconds_per_byte;
            let clock = st.clock.get() + o;
            st.clock.set(clock);
            let depart = clock.max(st.nic_free.get()) + wire;
            st.nic_free.set(depart);
            {
                let mut s = st.stats.borrow_mut();
                s.retransmits += 1;
                s.modeled_comm_s += o;
                s.retransmit_s += o + wire;
            }
            if obs::enabled() {
                self.obs_fault_counter("comm.retransmits");
                // Retx event span: clock paid `o` from (clock − o, clock];
                // the copy reuses the original flow id so the graph can
                // attribute whichever copy delivered.
                use obs::flow::args;
                obs::span::span_start(clock - o).finish_meta(
                    "comm",
                    "retx",
                    clock,
                    &[
                        (args::POST_END, clock),
                        (args::DEPART, depart),
                        (args::WIRE, wire),
                    ],
                    obs::span::SpanMeta {
                        kind: obs::span::SpanKind::Retx,
                        flow_out: r.flow,
                        flow_in: 0,
                    },
                );
            }
            let _ = self.senders[r.gdest].send(Envelope {
                ctx: r.ctx,
                src: r.src,
                tag: r.tag,
                depart,
                payload: r.payload.clone(),
                gsrc: st.world_rank,
                seq: r.seq,
                checksum: r.checksum,
                kind: EnvKind::Data,
                corrupt: false,
                flow: r.flow,
            });
            r.backoff = (r.backoff * 2).min(RTO_MAX);
            r.next_retry = now + r.backoff;
        }
    }

    /// Cap for one blocking mailbox wait: while this rank has unacked
    /// sends it must wake periodically to drive retransmissions.
    pub(crate) fn block_tick(&self) -> Option<Duration> {
        if self.reliable() && !self.state.unacked.borrow().is_empty() {
            Some(RETX_TICK)
        } else {
            None
        }
    }

    /// Drive outstanding retransmissions to completion at the end of a
    /// rank's program, so a message dropped on its final sends still
    /// reaches a receiver blocked on it. Bounded by the stall timeout
    /// (or a 5 s default): if a peer exited without consuming a message,
    /// give up rather than hang.
    pub(crate) fn quiesce(&self) {
        if !self.reliable() {
            return;
        }
        let limit = self.state.stall_timeout.unwrap_or(QUIESCE_LIMIT);
        let t0 = Instant::now();
        while !self.state.unacked.borrow().is_empty() {
            match self.next_arrival(Some(limit), t0) {
                Ok(Some(env)) => self.state.pending.borrow_mut().push(env),
                Ok(None) => {}
                // Out of time, or every sender is gone.
                Err(_) => return,
            }
        }
    }

    /// Registry mirror of the fault/reliability counters, labeled by
    /// global rank exactly like `comm.msgs_sent`.
    #[cold]
    pub(crate) fn obs_fault_counter(&self, name: &str) {
        let rank = self.state.world_rank.to_string();
        obs::global()
            .counter(&obs::registry::key(name, &[("rank", &rank)]))
            .inc();
    }
}

#[cfg(test)]
mod tests {
    use crate::fault::{Delivery, FaultPlan};
    use crate::universe::{Universe, UniverseConfig};
    use crate::{CommError, Payload, Src};
    use std::time::Duration;

    fn chaos_cfg(plan: FaultPlan) -> UniverseConfig {
        UniverseConfig {
            fault: plan,
            delivery: Delivery::Reliable,
            stall_timeout: Some(Duration::from_secs(10)),
            ..Default::default()
        }
    }

    #[test]
    fn dropped_message_is_retransmitted() {
        // Every fresh transmission is dropped; retransmits are exempt.
        let plan = FaultPlan::messages(1, 1.0, 0.0, 0.0, 0.0);
        let report = Universe::run_report(chaos_cfg(plan), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &vec![1.0f64; 64]).unwrap();
            } else {
                let (v, _) = comm.recv::<Vec<f64>>(Src::Rank(0), 5).unwrap();
                assert_eq!(v.len(), 64);
            }
        });
        let total: u64 = report.stats.iter().map(|s| s.retransmits).sum();
        let dropped: u64 = report.stats.iter().map(|s| s.faults_dropped).sum();
        assert!(dropped >= 1);
        assert_eq!(total, dropped, "one retransmit heals one drop");
        assert!(report.stats.iter().map(|s| s.retransmit_s).sum::<f64>() > 0.0);
    }

    #[test]
    fn idle_rank_parked_on_the_host_heals_its_own_dropped_send() {
        // Rank 0's only send is dropped, then it goes idle waiting for
        // the host — with nobody pumping it from outside. The park loop
        // itself must tick while the send is unacked, or rank 1 starves.
        let plan = FaultPlan::messages(1, 1.0, 0.0, 0.0, 0.0);
        let t0 = std::time::Instant::now();
        let (host, pool) = Universe::spawn(chaos_cfg(plan), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 5, &7u64).unwrap();
                comm.recv_host().unwrap();
            } else {
                let (v, _) = comm.recv::<u64>(Src::Rank(0), 5).unwrap();
                assert_eq!(v, 7);
                comm.send_host(Payload::Bytes(Vec::new())).unwrap();
            }
        });
        // Rank 1 reports the delivery; only then is rank 0 released.
        let (rank, _) = host.recv(None).unwrap().unwrap();
        assert_eq!(rank, 1);
        host.post(0, Payload::Bytes(Vec::new()), 0).unwrap();
        let report = pool.join();
        assert!(t0.elapsed() < Duration::from_secs(5), "healed on the RTO");
        assert_eq!(report.stats[0].faults_dropped, 1);
        assert_eq!(report.stats[0].retransmits, 1, "one retransmit, one drop");
        assert_eq!(report.stats[1].retransmits, 0);
    }

    #[test]
    fn duplicates_are_suppressed() {
        let plan = FaultPlan::messages(11, 0.0, 1.0, 0.0, 0.0);
        let report = Universe::run_report(chaos_cfg(plan), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 1, &1u64).unwrap();
                comm.send(1, 2, &2u64).unwrap();
            } else {
                let (a, _) = comm.recv::<u64>(Src::Rank(0), 1).unwrap();
                let (b, _) = comm.recv::<u64>(Src::Rank(0), 2).unwrap();
                assert_eq!((a, b), (1, 2));
                // No third message may ever match either tag.
                assert!(comm
                    .recv_timeout::<u64>(Src::Any, 1, Duration::from_millis(20))
                    .is_err());
            }
        });
        assert_eq!(report.stats[0].faults_duplicated, 2);
        assert!(report.stats[1].dup_suppressed >= 1);
    }

    #[test]
    fn corrupt_arrival_heals_under_reliable_delivery() {
        let plan = FaultPlan::messages(3, 0.0, 0.0, 0.0, 1.0);
        let report = Universe::run_report(chaos_cfg(plan), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, &vec![7u8; 32]).unwrap();
            } else {
                let (v, _) = comm.recv::<Vec<u8>>(Src::Rank(0), 9).unwrap();
                assert_eq!(v, vec![7u8; 32]);
            }
        });
        // First copy corrupt and discarded; the retransmit is clean
        // (retransmits are exempt from injection).
        assert!(report.stats[1].corrupt_detected >= 1);
        assert!(report.stats[0].retransmits >= 1);
    }

    #[test]
    fn killed_rank_fails_sends_with_typed_error() {
        let plan = FaultPlan {
            kill_rank: Some(0),
            kill_after_ops: 3,
            ..FaultPlan::none()
        };
        let cfg = UniverseConfig {
            fault: plan,
            ..Default::default()
        };
        let report = Universe::run_report(cfg, 1, |comm| {
            comm.send(0, 1, &1u8).unwrap(); // op 1
            let second = comm.send(0, 2, &2u8); // op 2
            let third = comm.send(0, 3, &3u8); // op 3: dead
            assert!(second.is_ok());
            assert_eq!(
                third.unwrap_err(),
                CommError::Killed {
                    rank: 0,
                    after_ops: 3
                }
            );
            assert!(comm.state.killed.get());
            comm.recv::<u8>(Src::Rank(0), 1).unwrap_err()
        });
        assert_eq!(
            report.results[0],
            CommError::Killed {
                rank: 0,
                after_ops: 3
            }
        );
    }

    #[test]
    fn corrupt_fault_on_region_is_skipped_and_counted() {
        // Every fresh transmission draws Corrupt, but the payload rides
        // the region arm: the fault must be skipped outright (regions
        // have no wire image), counted, and the value delivered intact —
        // in both delivery modes.
        for delivery in [Delivery::Raw, Delivery::Reliable] {
            let cfg = UniverseConfig {
                fault: FaultPlan::messages(3, 0.0, 0.0, 0.0, 1.0),
                delivery,
                stall_timeout: Some(Duration::from_secs(10)),
                ..Default::default()
            }
            .with_zerocopy_threshold(1);
            let report = Universe::run_report(cfg, 2, |comm| {
                if comm.rank() == 0 {
                    comm.send_zc(1, 9, vec![7u64; 64]).unwrap();
                } else {
                    let (v, _) = comm.recv_zc::<Vec<u64>>(Src::Rank(0), 9).unwrap();
                    assert_eq!(v, vec![7u64; 64]);
                }
            });
            assert!(report.stats[0].corrupt_skipped_region >= 1, "{delivery:?}");
            assert_eq!(report.stats[1].corrupt_detected, 0, "{delivery:?}");
            // Nothing was lost, so nothing retransmits.
            assert_eq!(report.stats[0].retransmits, 0, "{delivery:?}");
        }
    }

    #[test]
    fn dropped_region_is_retransmitted_from_the_arc_copy() {
        let plan = FaultPlan::messages(1, 1.0, 0.0, 0.0, 0.0);
        let cfg = chaos_cfg(plan).with_zerocopy_threshold(1);
        let report = Universe::run_report(cfg, 2, |comm| {
            if comm.rank() == 0 {
                comm.send_zc(1, 5, vec![1.5f64; 2048]).unwrap();
            } else {
                let (v, _) = comm.recv_zc::<Vec<f64>>(Src::Rank(0), 5).unwrap();
                assert_eq!(v.len(), 2048);
                assert_eq!(v[0], 1.5);
            }
        });
        assert!(report.stats[0].faults_dropped >= 1);
        assert_eq!(
            report.stats.iter().map(|s| s.retransmits).sum::<u64>(),
            report.stats.iter().map(|s| s.faults_dropped).sum::<u64>(),
            "one retransmit heals one dropped region"
        );
        assert!(report.stats[0].zerocopy_msgs >= 1);
    }

    #[test]
    fn reliable_mode_is_transparent_without_faults() {
        let cfg = UniverseConfig {
            delivery: Delivery::Reliable,
            ..Default::default()
        };
        let report = Universe::run_report(cfg, 4, |comm| {
            let v = comm.rank() as u64 + 1;
            comm.allreduce(&v, crate::ReduceOp::sum())
        });
        assert_eq!(report.results, vec![10, 10, 10, 10]);
        for st in &report.stats {
            assert_eq!(st.retransmits, 0);
            assert_eq!(st.dup_suppressed, 0);
            assert_eq!(st.corrupt_detected, 0);
        }
    }
}
