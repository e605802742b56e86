//! Nonblocking point-to-point requests: `isend`/`irecv` + `wait`/`test`.
//!
//! This is the message-passing core; the blocking [`Comm::send`]/
//! [`Comm::recv`]/[`Comm::sendrecv`] calls (and the ring / recursive-
//! doubling collectives) are thin wrappers that post a request and wait on
//! it immediately. Posting and completing are split so callers can overlap
//! communication with modeled compute ([`Comm::advance_compute`]).
//!
//! ## Virtual-time rules (LogGP, extended for overlap)
//!
//! * **`isend`** charges the sender only the CPU overhead `o` of posting.
//!   Serialization happens "on the NIC": the message occupies the wire from
//!   `max(clock, nic_free)` for `bytes·G` seconds, and consecutive posted
//!   sends queue behind each other (`nic_free` tracks when the NIC drains).
//!   A blocked-on immediately (`send`) request therefore costs exactly the
//!   old blocking `o + bytes·G`.
//! * **`wait` on a send** advances the clock to the departure time if the
//!   clock has not already passed it. Any wire time the clock *did* pass —
//!   because the rank computed while the NIC drained — is counted as
//!   [`CommStats::overlap_s`](crate::CommStats::overlap_s) instead of stall time.
//! * **`irecv`** is free to post; it only records the posting clock.
//! * **`wait` on a receive** applies the blocking delivery rule
//!   `clock = max(clock, depart + L) + o`, but the charge is measured from
//!   the *wait* clock, not the *post* clock. The difference — flight time
//!   that elapsed while this rank computed between post and wait — is
//!   credited to `overlap_s`. A receive waited immediately costs exactly
//!   the old blocking receive.
//!
//! `overlap_s` is therefore "modeled seconds of communication hidden
//! behind compute", the quantity experiment E17 reports; a rank's final
//! value is published with the rest of its `CommStats` when the rank ends
//! (see `CommStats::publish`), while metrics are on.
//!
//! Tag matching is unchanged: a request matches `(ctx, tag, src)` with the
//! same pending-queue scan as blocking receives, so nonblocking and
//! blocking traffic interleave safely on one communicator. Matching
//! happens at `test`/`wait` time; waiting on same-`(src, tag)` requests in
//! post order reproduces MPI's posted-receive order. Dropping an unwaited
//! receive request does not consume a message (the envelope stays
//! available to later receives).

use std::time::{Duration, Instant};

use crate::comm::{Comm, Envelope, Src, Status, Tag};
use crate::error::CommError;
use crate::payload::{Payload, Region};
use crate::universe::HostEvent;
use crate::wire::{decode_from_slice, Wire};

/// Payload of a completed request: `None` for sends, the received message
/// for receives. The payload carries either encoded wire bytes or a
/// zero-copy region handle (see the [`crate::payload`] module); typed
/// receives ([`Comm::wait_recv_zc`]) accept both arms transparently.
pub type Completion = Option<(Payload, Status)>;

/// Delivery timing captured for span attribution (tracing only).
#[derive(Debug, Clone, Copy)]
pub(crate) struct RecvTiming {
    /// Virtual arrival time at this rank (`depart + L`).
    pub(crate) arrive: f64,
    /// Seconds the wait actually blocked (`max(arrive − wait_clock, 0)`).
    pub(crate) blocked: f64,
    /// Total clock advance of the delivery (`blocked + o`).
    pub(crate) adv: f64,
}

pub(crate) enum ReqInner {
    Send {
        /// Clock right after posting (post cost `o` already charged).
        post_end: f64,
        /// When the NIC finishes serializing this message.
        depart: f64,
        /// Departure time actually stamped on the envelope: `depart`
        /// plus any injected delay fault. The sender's clock never
        /// waits for an in-flight delay, so `depart` settles the clock
        /// while `sent_depart` feeds span attribution — the receiver's
        /// critical-path hop charges the gap to this sender as blocked
        /// time instead of mistaking it for wire latency.
        sent_depart: f64,
        /// Pure serialization time `bytes·G` (for span attribution).
        wire: f64,
    },
    Recv {
        src: Src,
        tag: Tag,
        /// Clock when the receive was posted.
        posted_at: f64,
        /// Envelope claimed by a successful `test`, delivered at `wait`.
        ready: Option<Envelope>,
    },
}

/// Handle to an in-flight nonblocking operation. Complete it with
/// [`Comm::wait`] (or [`Comm::waitall`]/[`Comm::waitany`]) on the same
/// communicator that created it.
#[must_use = "a dropped request is never completed: wait on it (or the \
              virtual clock silently loses the operation's cost)"]
pub struct Request {
    pub(crate) inner: ReqInner,
    /// Communicator context, to catch cross-communicator waits in debug.
    pub(crate) ctx: u64,
    /// Span covering the request lifetime (post → complete).
    pub(crate) timer: Option<obs::span::SpanTimer>,
    /// Span name: `isend`/`irecv`, or `send`/`recv` for blocking wrappers.
    pub(crate) span_name: &'static str,
    /// Flow id stamped on the outgoing message (sends, tracing enabled).
    pub(crate) flow: u64,
}

impl Request {
    /// Is this a send request? (Sends are always complete: payloads are
    /// buffered at post time, so `wait` only settles the virtual clock.)
    fn is_send(&self) -> bool {
        matches!(self.inner, ReqInner::Send { .. })
    }
}

impl Comm {
    /// Post a nonblocking raw-bytes send. See the module docs for the
    /// virtual-time rules.
    pub fn isend_bytes(&self, dest: usize, tag: Tag, bytes: Vec<u8>) -> Result<Request, CommError> {
        self.isend_bytes_named(dest, tag, bytes, "isend")
    }

    /// Post a nonblocking typed send. Encodes into a pooled wire buffer.
    pub fn isend<T: Wire>(&self, dest: usize, tag: Tag, value: &T) -> Result<Request, CommError> {
        let mut buf = self.take_buf();
        value.encode(&mut buf);
        self.isend_bytes_named(dest, tag, buf, "isend")
    }

    /// Post a nonblocking typed send of an *owned* value, taking the
    /// zero-copy region arm when the encoded size reaches
    /// [`Comm::zerocopy_threshold`]: the value moves through the mailbox
    /// as an `Arc` handle, with no serialization or memcpy. Below the
    /// threshold this is exactly [`Comm::isend`]. Either way the LogGP
    /// clock charges the same modeled `o + wire_size·G`, so scaling
    /// shapes do not depend on the threshold. Pair the receive with
    /// [`Comm::wait_recv_zc`]/[`Comm::recv_zc`], which accept both arms.
    pub fn isend_zc<T>(&self, dest: usize, tag: Tag, value: T) -> Result<Request, CommError>
    where
        T: Wire + Send + Sync + 'static,
    {
        let n = value.wire_size();
        if n < self.zerocopy_threshold() {
            let mut buf = self.take_buf();
            value.encode(&mut buf);
            debug_assert_eq!(buf.len(), n, "wire_size disagrees with encode");
            self.isend_bytes_named(dest, tag, buf, "isend")
        } else {
            let region = if self.region_integrity() {
                // Opt-in: serialize once anyway, to stamp the region with
                // a digest the typed receive re-derives and checks.
                let digest = self.region_digest(&value);
                Region::new(value, n).with_integrity(digest)
            } else {
                Region::new(value, n)
            };
            self.isend_payload_named(dest, tag, Payload::Region(region), "isend")
        }
    }

    /// FNV-1a over `value`'s wire encoding (the integrity-check digest).
    fn region_digest<T: Wire>(&self, value: &T) -> u64 {
        let mut buf = self.take_buf();
        value.encode(&mut buf);
        let digest = crate::fault::checksum(&buf);
        self.put_buf(buf);
        digest
    }

    pub(crate) fn isend_bytes_named(
        &self,
        dest: usize,
        tag: Tag,
        bytes: Vec<u8>,
        span_name: &'static str,
    ) -> Result<Request, CommError> {
        self.isend_payload_named(dest, tag, Payload::Bytes(bytes), span_name)
    }

    pub(crate) fn isend_payload_named(
        &self,
        dest: usize,
        tag: Tag,
        payload: Payload,
        span_name: &'static str,
    ) -> Result<Request, CommError> {
        self.check_rank(dest)?;
        self.fault_tick()?;
        let n = payload.wire_len();
        let state = &self.state;
        let posted_at = state.clock.get();
        // CPU cost of posting; wire serialization runs on the NIC and can
        // overlap compute until `wait` settles the clock.
        let post_end = posted_at + self.model.overhead_s;
        state.clock.set(post_end);
        let ser_start = post_end.max(state.nic_free.get());
        let depart = ser_start + n as f64 * self.model.seconds_per_byte;
        state.nic_free.set(depart);
        let zerocopy = payload.is_region();
        {
            let mut st = state.stats.borrow_mut();
            st.msgs_sent += 1;
            st.bytes_sent += n as u64;
            st.modeled_comm_s += self.model.overhead_s;
            if zerocopy {
                st.zerocopy_msgs += 1;
                st.zerocopy_bytes += n as u64;
            }
        }
        // Flow ids only exist while tracing: the disabled path stays one
        // relaxed load, and flow 0 means "no causal edge" downstream.
        let (timer, flow) = if obs::enabled() {
            self.obs_record_send(n);
            let seq = state.flow_seq.get() + 1;
            state.flow_seq.set(seq);
            (
                Some(obs::span::span_start(posted_at)),
                obs::flow::data(state.flow_domain, seq),
            )
        } else {
            (None, obs::flow::NONE)
        };
        let sent_depart = self.transmit_fresh(dest, tag, depart, payload, flow)?;
        Ok(Request {
            inner: ReqInner::Send {
                post_end,
                depart,
                sent_depart,
                wire: n as f64 * self.model.seconds_per_byte,
            },
            ctx: self.ctx,
            timer,
            span_name,
            flow,
        })
    }

    /// Post a nonblocking receive matching `(src, tag)`.
    pub fn irecv(&self, src: Src, tag: Tag) -> Result<Request, CommError> {
        self.irecv_named(src, tag, "irecv")
    }

    pub(crate) fn irecv_named(
        &self,
        src: Src,
        tag: Tag,
        span_name: &'static str,
    ) -> Result<Request, CommError> {
        if let Src::Rank(r) = src {
            self.check_rank(r)?;
        }
        self.fault_tick()?;
        let posted_at = self.state.clock.get();
        let timer = if obs::enabled() {
            Some(obs::span::span_start(posted_at))
        } else {
            None
        };
        Ok(Request {
            inner: ReqInner::Recv {
                src,
                tag,
                posted_at,
                ready: None,
            },
            ctx: self.ctx,
            timer,
            span_name,
            flow: obs::flow::NONE,
        })
    }

    /// Nonblocking completion check. Sends are always complete; a receive
    /// completes once a matching message is available (the message is then
    /// claimed by this request, and `wait` will deliver it without
    /// blocking). Never advances the virtual clock.
    pub fn test(&self, req: &mut Request) -> bool {
        debug_assert_eq!(
            req.ctx, self.ctx,
            "request tested on a different communicator"
        );
        match &mut req.inner {
            ReqInner::Send { .. } => true,
            ReqInner::Recv {
                src, tag, ready, ..
            } => {
                if ready.is_some() {
                    return true;
                }
                // Drain the mailbox without blocking, then claim a match.
                self.drain_mailbox();
                self.pump_retransmits();
                let mut pending = self.state.pending.borrow_mut();
                if let Some(i) = pending.iter().position(|e| self.matches(e, *src, *tag)) {
                    *ready = Some(pending.remove(i));
                    true
                } else {
                    false
                }
            }
        }
    }

    /// Complete a request, blocking if necessary. Returns the received
    /// message for receives, `None` for sends. Honors the universe's stall
    /// deadline (see [`CommError::Stalled`]).
    pub fn wait(&self, req: Request) -> Result<Completion, CommError> {
        self.wait_deadline(req, self.state.stall_timeout)
    }

    /// Complete a receive request and decode its payload. The delivered
    /// wire buffer is recycled into this rank's pool. A region arrival
    /// surfaces as a decode error — pair zero-copy sends with
    /// [`Comm::wait_recv_zc`], which handles both arms.
    pub fn wait_recv<T: Wire>(&self, req: Request) -> Result<(T, Status), CommError> {
        debug_assert!(!req.is_send(), "wait_recv on a send request");
        let (payload, status) = self
            .wait(req)?
            .expect("receive completion carries a payload");
        let bytes = payload.into_wire_bytes()?;
        let value = decode_from_slice(&bytes)?;
        self.put_buf(bytes);
        Ok((value, status))
    }

    /// Complete a receive request whose sender may have used either
    /// payload arm: wire bytes decode exactly like [`Comm::wait_recv`];
    /// a region downcasts to `T` and transfers ownership of the value —
    /// no copy when this is the last handle, one clone when the sender's
    /// reliable-delivery retransmit copy is still unacked.
    pub fn wait_recv_zc<T>(&self, req: Request) -> Result<(T, Status), CommError>
    where
        T: Wire + Clone + Send + Sync + 'static,
    {
        debug_assert!(!req.is_send(), "wait_recv_zc on a send request");
        let (payload, status) = self
            .wait(req)?
            .expect("receive completion carries a payload");
        match payload {
            Payload::Bytes(bytes) => {
                let value = decode_from_slice(&bytes)?;
                self.put_buf(bytes);
                Ok((value, status))
            }
            Payload::Region(region) => {
                let stamped = region.integrity();
                let value = region.take::<T>().ok_or_else(|| {
                    CommError::Decode(format!(
                        "region payload is not a {}",
                        std::any::type_name::<T>()
                    ))
                })?;
                if let Some(expect) = stamped {
                    self.state.stats.borrow_mut().region_integrity_checked += 1;
                    if self.region_digest(&value) != expect {
                        return Err(CommError::Corrupt {
                            rank: self.state.world_rank,
                            src: self.global_rank_of(status.src),
                            tag: status.tag,
                        });
                    }
                }
                Ok((value, status))
            }
        }
    }

    pub(crate) fn wait_deadline(
        &self,
        req: Request,
        deadline: Option<Duration>,
    ) -> Result<Completion, CommError> {
        debug_assert_eq!(
            req.ctx, self.ctx,
            "request waited on a different communicator"
        );
        let state = &self.state;
        match req.inner {
            ReqInner::Send {
                post_end,
                depart,
                sent_depart,
                wire,
            } => {
                let clock = state.clock.get();
                // Wire time the clock already passed was hidden by compute.
                let charge = (depart - clock).max(0.0);
                let overlap = (depart - post_end) - charge;
                state.clock.set(clock.max(depart));
                {
                    let mut st = state.stats.borrow_mut();
                    st.modeled_comm_s += charge;
                    st.overlap_s += overlap;
                }
                if let Some(t) = req.timer {
                    self.obs_request_done(
                        t,
                        req.span_name,
                        overlap,
                        post_end,
                        sent_depart,
                        wire,
                        req.flow,
                    );
                }
                Ok(None)
            }
            ReqInner::Recv {
                src,
                tag,
                posted_at,
                ready,
            } => {
                let env = match ready {
                    Some(env) => env,
                    None => self.claim_matching(src, tag, deadline)?,
                };
                if env.corrupt {
                    return Err(CommError::Corrupt {
                        rank: self.state.world_rank,
                        src: env.gsrc,
                        tag: env.tag,
                    });
                }
                let flow_in = env.flow;
                let (out, timing) = self.deliver_posted(env, posted_at);
                if let Some(t) = req.timer {
                    self.obs_recv_done(t, req.span_name, &out.1, flow_in, timing);
                }
                Ok(Some(out))
            }
        }
    }

    /// Find (or block for) an envelope matching `(src, tag)`, honoring an
    /// optional stall deadline. While this rank has unacked reliable
    /// sends, the block is chopped into short ticks so the retransmit
    /// pump keeps running (a blocked sender must still heal drops).
    fn claim_matching(
        &self,
        src: Src,
        tag: Tag,
        deadline: Option<Duration>,
    ) -> Result<Envelope, CommError> {
        {
            let mut pending = self.state.pending.borrow_mut();
            if let Some(i) = pending.iter().position(|e| self.matches(e, src, tag)) {
                return Ok(pending.remove(i));
            }
        }
        let t0 = Instant::now();
        loop {
            let env = match self.next_arrival(deadline, t0) {
                Ok(Some(env)) => env,
                Ok(None) => continue,
                Err(CommError::Stalled { .. }) => return Err(self.stalled(src, tag, t0.elapsed())),
                Err(e) => return Err(e),
            };
            if self.matches(&env, src, tag) {
                self.state.stats.borrow_mut().wall_recv_s += t0.elapsed().as_secs_f64();
                return Ok(env);
            }
            self.state.pending.borrow_mut().push(env);
        }
    }

    /// One turn of the loop every parked rank sits in — a blocked
    /// receive, `waitany`, an idle [`Comm::recv_host`], `quiesce`: send
    /// what is overdue, wait for one envelope, run it through intake.
    /// `Ok(None)` means nothing for tag matching came of it (the
    /// retransmit tick expired, or intake consumed the arrival).
    pub(crate) fn next_arrival(
        &self,
        deadline: Option<Duration>,
        t0: Instant,
    ) -> Result<Option<Envelope>, CommError> {
        self.pump_retransmits();
        Ok(self
            .block_recv(deadline, t0)?
            .and_then(|env| self.intake(env)))
    }

    /// Next post from the job's [`Host`](crate::Host) with its flow id,
    /// in posting order. An idle rank parks here with no deadline: it
    /// acks and queues peer traffic as it arrives, wakes on the
    /// retransmit tick only while it has unacked sends, and otherwise
    /// sleeps until mail comes. [`CommError::Disconnected`] once the host
    /// is dropped and its posts are drained (at once in a hostless job).
    pub fn recv_host(&self) -> Result<(Payload, u64), CommError> {
        let t0 = Instant::now();
        loop {
            if let Some(post) = self.state.host_inbox.borrow_mut().pop_front() {
                return Ok(post);
            }
            if self.state.host_closed.get() {
                return Err(CommError::Disconnected);
            }
            if let Some(env) = self.next_arrival(None, t0)? {
                self.state.pending.borrow_mut().push(env);
            }
        }
    }

    /// Answer the host. Like its posts this is outside the model: no
    /// clock charge, no fault roll, no stats.
    pub fn send_host(&self, payload: Payload) -> Result<(), CommError> {
        let tx = self.state.host_tx.as_ref().ok_or(CommError::Disconnected)?;
        tx.send((self.state.world_rank, HostEvent::Msg(payload)))
            .map_err(|_| CommError::Disconnected)
    }

    /// One bounded mailbox wait: blocks up to the stall deadline, capped
    /// by the retransmit tick when unacked sends are outstanding. Returns
    /// `Ok(None)` when only the tick expired (caller should pump and
    /// retry); errors with [`CommError::Disconnected`] only if every
    /// sender handle is gone.
    fn block_recv(
        &self,
        deadline: Option<Duration>,
        t0: Instant,
    ) -> Result<Option<Envelope>, CommError> {
        let remaining = match deadline {
            None => None,
            Some(limit) => Some(
                limit
                    .checked_sub(t0.elapsed())
                    .ok_or_else(|| self.stalled_now(t0.elapsed()))?,
            ),
        };
        let wait = match (remaining, self.block_tick()) {
            (None, None) => {
                return self
                    .state
                    .rx
                    .recv()
                    .map(Some)
                    .map_err(|_| CommError::Disconnected)
            }
            (None, Some(tick)) => tick,
            (Some(rem), None) => rem,
            (Some(rem), Some(tick)) => rem.min(tick),
        };
        use std::sync::mpsc::RecvTimeoutError;
        match self.state.rx.recv_timeout(wait) {
            Ok(env) => Ok(Some(env)),
            Err(RecvTimeoutError::Timeout) => {
                if let Some(limit) = deadline {
                    if t0.elapsed() >= limit {
                        return Err(self.stalled_now(t0.elapsed()));
                    }
                }
                Ok(None)
            }
            Err(RecvTimeoutError::Disconnected) => Err(CommError::Disconnected),
        }
    }

    /// Placeholder stall used by `block_recv`; `claim_matching` and
    /// `waitany` rewrite it with the precise match spec via `map_err`.
    fn stalled_now(&self, waited: Duration) -> CommError {
        self.stalled(Src::Any, 0, waited)
    }

    fn stalled(&self, src: Src, tag: Tag, waited: Duration) -> CommError {
        // Snapshot the unmatched mailbox: distinguishes "nothing ever
        // arrived" from "messages arrived with the wrong tag/context" —
        // and the unacked reliable sends, which distinguish "the peer is
        // silent" from "the peer may be waiting on a message this rank
        // still owes a retransmit for".
        let pending = self.state.pending.borrow();
        let unacked = self.state.unacked.borrow();
        let now = Instant::now();
        CommError::Stalled {
            rank: self.state.world_rank,
            src: match src {
                Src::Any => None,
                Src::Rank(r) => Some(self.global_rank_of(r)),
            },
            tag,
            waited_ms: waited.as_millis() as u64,
            queued: pending.len(),
            queued_tags: pending.iter().take(8).map(|e| e.tag).collect(),
            retx_in_flight: unacked.len(),
            retx_seqs: unacked.iter().take(8).map(|r| r.seq).collect(),
            retx_backoff_ms: unacked
                .iter()
                .map(|r| r.next_retry.saturating_duration_since(now).as_millis() as u64)
                .min(),
        }
    }

    /// Deliver an envelope for a receive that was posted at `posted_at`:
    /// the blocking delivery rule, minus flight time that already elapsed
    /// while the rank computed (credited to `overlap_s`).
    fn deliver_posted(&self, env: Envelope, posted_at: f64) -> ((Payload, Status), RecvTiming) {
        let state = &self.state;
        let n = env.payload.wire_len();
        let arrive = env.depart + self.model.latency_s;
        let old = state.clock.get();
        let new = old.max(arrive) + self.model.overhead_s;
        state.clock.set(new);
        let charge = new - old;
        let timing = RecvTiming {
            arrive,
            blocked: (arrive - old).max(0.0),
            adv: charge,
        };
        // What an immediate blocking receive would have cost at post time.
        let blocking_cost = posted_at.max(arrive) + self.model.overhead_s - posted_at;
        {
            let mut st = state.stats.borrow_mut();
            st.msgs_recv += 1;
            st.bytes_recv += n as u64;
            st.modeled_comm_s += charge;
            st.overlap_s += blocking_cost - charge;
        }
        (
            (
                env.payload,
                Status {
                    src: env.src,
                    tag: env.tag,
                    bytes: n,
                    depart: env.depart,
                },
            ),
            timing,
        )
    }

    /// Complete every request, in order. Envelopes arriving for a
    /// later request while an earlier one blocks are parked in the
    /// pending queue, so order never deadlocks.
    pub fn waitall(&self, reqs: Vec<Request>) -> Result<Vec<Completion>, CommError> {
        reqs.into_iter().map(|r| self.wait(r)).collect()
    }

    /// Complete whichever request finishes first, removing it from `reqs`;
    /// returns its original index and completion. Sends complete
    /// immediately; among receives, whichever message is available (or
    /// arrives) first wins. Panics if `reqs` is empty.
    pub fn waitany(&self, reqs: &mut Vec<Request>) -> Result<(usize, Completion), CommError> {
        assert!(!reqs.is_empty(), "waitany on an empty request set");
        let t0 = Instant::now();
        let deadline = self.state.stall_timeout;
        loop {
            for i in 0..reqs.len() {
                if self.test(&mut reqs[i]) {
                    let req = reqs.remove(i);
                    return Ok((i, self.wait(req)?));
                }
            }
            // All are unmatched receives: block for the next envelope and
            // rescan. Mismatches park in pending exactly like `recv`.
            match self.next_arrival(deadline, t0) {
                Ok(Some(env)) => self.state.pending.borrow_mut().push(env),
                Ok(None) => {}
                Err(CommError::Stalled { .. }) => return Err(self.stalled_any(reqs, t0.elapsed())),
                Err(e) => return Err(e),
            }
        }
    }

    fn stalled_any(&self, reqs: &[Request], waited: Duration) -> CommError {
        // Report the first pending receive's match spec as the diagnostic.
        for r in reqs {
            if let ReqInner::Recv { src, tag, .. } = r.inner {
                return self.stalled(src, tag, waited);
            }
        }
        self.stalled(Src::Any, 0, waited)
    }

    /// Receive with an explicit deadline, independent of the universe's
    /// configured stall timeout.
    pub fn recv_timeout<T: Wire>(
        &self,
        src: Src,
        tag: Tag,
        timeout: Duration,
    ) -> Result<(T, Status), CommError> {
        let req = self.irecv_named(src, tag, "recv")?;
        let (payload, status) = self
            .wait_deadline(req, Some(timeout))?
            .expect("receive completion carries a payload");
        let bytes = payload.into_wire_bytes()?;
        let value = decode_from_slice(&bytes)?;
        self.put_buf(bytes);
        Ok((value, status))
    }

    /// Sent-message sizes, through the rank's cached histogram handle.
    /// The message counts themselves live in `CommStats` alone.
    #[cold]
    fn obs_record_send(&self, n: usize) {
        self.state
            .sent_msg_bytes
            .get_or_init(|| obs::global().histogram("comm.sent_msg_bytes"))
            .record(n as u64);
    }

    #[cold]
    #[allow(clippy::too_many_arguments)]
    fn obs_request_done(
        &self,
        timer: obs::span::SpanTimer,
        name: &'static str,
        overlap: f64,
        post_end: f64,
        depart: f64,
        wire: f64,
        flow: u64,
    ) {
        use obs::flow::args;
        timer.finish_meta(
            "comm",
            name,
            self.virtual_time(),
            &[
                ("overlap_s", overlap),
                (args::POST_END, post_end),
                (args::DEPART, depart),
                (args::WIRE, wire),
            ],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Send,
                flow_out: flow,
                flow_in: 0,
            },
        );
    }

    #[cold]
    fn obs_recv_done(
        &self,
        timer: obs::span::SpanTimer,
        name: &'static str,
        status: &Status,
        flow_in: u64,
        timing: RecvTiming,
    ) {
        use obs::flow::args;
        timer.finish_meta(
            "comm",
            name,
            self.virtual_time(),
            &[
                ("bytes", status.bytes as f64),
                ("src", self.global_rank_of(status.src) as f64),
                ("tag", status.tag as f64),
                (args::ARRIVE, timing.arrive),
                (args::BLOCKED, timing.blocked),
                (args::ADV, timing.adv),
                (args::LAT, self.model.latency_s),
            ],
            obs::span::SpanMeta {
                kind: obs::span::SpanKind::Recv,
                flow_out: 0,
                flow_in,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::universe::{Universe, UniverseConfig};
    use crate::NetworkModel;

    #[test]
    fn isend_irecv_roundtrip() {
        let out = Universe::run(2, |comm| {
            if comm.rank() == 0 {
                let r = comm.isend(1, 3, &vec![1u64, 2, 3]).unwrap();
                comm.wait(r).unwrap();
                vec![]
            } else {
                let r = comm.irecv(Src::Rank(0), 3).unwrap();
                let (v, st) = comm.wait_recv::<Vec<u64>>(r).unwrap();
                assert_eq!(st.src, 0);
                v
            }
        });
        assert_eq!(out[1], vec![1, 2, 3]);
    }

    #[test]
    fn test_claims_message_without_blocking() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 7, &42u8).unwrap();
            } else {
                let mut r = comm.irecv(Src::Rank(0), 7).unwrap();
                while !comm.test(&mut r) {
                    std::thread::yield_now();
                }
                // A second receive of the same tag must not steal it.
                assert!(!comm.probe(Src::Rank(0), 7));
                let (v, _) = comm.wait_recv::<u8>(r).unwrap();
                assert_eq!(v, 42);
            }
        });
    }

    #[test]
    fn waitall_completes_out_of_order_arrivals() {
        let out = Universe::run(3, |comm| {
            if comm.rank() == 0 {
                let reqs = vec![
                    comm.irecv(Src::Rank(1), 1).unwrap(),
                    comm.irecv(Src::Rank(2), 2).unwrap(),
                ];
                comm.waitall(reqs)
                    .unwrap()
                    .into_iter()
                    .map(|c| c.unwrap().1.src)
                    .collect()
            } else {
                comm.send(0, comm.rank() as u32, &comm.rank()).unwrap();
                vec![]
            }
        });
        assert_eq!(out[0], vec![1, 2]);
    }

    #[test]
    fn waitany_returns_first_available() {
        Universe::run(2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 9, &1u8).unwrap();
            } else {
                let mut reqs = vec![
                    comm.irecv(Src::Rank(0), 8).unwrap(),
                    comm.irecv(Src::Rank(0), 9).unwrap(),
                ];
                let (i, c) = comm.waitany(&mut reqs).unwrap();
                assert_eq!(i, 1);
                assert_eq!(c.unwrap().1.tag, 9);
                assert_eq!(reqs.len(), 1);
            }
        });
    }

    #[test]
    fn overlap_hides_flight_time_under_compute() {
        // Rank 1 posts the receive, computes 1 ms (≫ the ~0.4 µs message
        // flight), then waits: nearly the whole flight is hidden.
        let report = Universe::run_report(UniverseConfig::default(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &vec![0u8; 1000]).unwrap();
            } else {
                let r = comm.irecv(Src::Rank(0), 0).unwrap();
                comm.advance_compute(2.0e6); // 1 ms at 2 Gflop/s
                comm.wait(r).unwrap();
            }
        });
        let st = report.stats[1];
        assert!(st.overlap_s > 0.0, "expected hidden flight time");
        let model = NetworkModel::default();
        // Hidden time can't exceed the blocking cost of this message.
        assert!(st.overlap_s <= model.transfer_time(1008) + model.overhead_s);
        // The receive charge shrank accordingly: total modeled comm for
        // rank 1 is blocking cost minus what was hidden (≈ just o).
        assert!(st.modeled_comm_s < model.transfer_time(1008));
    }

    #[test]
    fn blocking_wrappers_report_zero_overlap() {
        let report = Universe::run_report(UniverseConfig::default(), 2, |comm| {
            if comm.rank() == 0 {
                comm.send(1, 0, &vec![0u8; 4096]).unwrap();
            } else {
                let _ = comm.recv::<Vec<u8>>(Src::Rank(0), 0).unwrap();
            }
        });
        assert_eq!(report.stats[0].overlap_s, 0.0);
        assert_eq!(report.stats[1].overlap_s, 0.0);
    }

    #[test]
    fn isend_queues_on_the_nic() {
        // Two posted sends serialize back-to-back on the wire; waiting on
        // the second settles the clock past both transfers.
        let report = Universe::run_report(UniverseConfig::default(), 2, |comm| {
            if comm.rank() == 0 {
                let a = comm.isend(1, 0, &vec![0u8; 100_000]).unwrap();
                let b = comm.isend(1, 1, &vec![0u8; 100_000]).unwrap();
                comm.waitall(vec![a, b]).unwrap();
            } else {
                let _ = comm.recv::<Vec<u8>>(Src::Rank(0), 0).unwrap();
                let _ = comm.recv::<Vec<u8>>(Src::Rank(0), 1).unwrap();
            }
        });
        let model = NetworkModel::default();
        let wire = 2.0 * 100_008.0 * model.seconds_per_byte;
        assert!(report.stats[0].modeled_comm_s + report.stats[0].overlap_s >= wire);
    }

    #[test]
    fn region_integrity_verifies_and_counts() {
        let cfg = UniverseConfig::default()
            .with_zerocopy_threshold(1)
            .with_region_integrity(true);
        let report = Universe::run_report(cfg, 2, |comm| {
            if comm.rank() == 0 {
                comm.send_zc(1, 3, vec![1.25f64; 512]).unwrap();
            } else {
                let (v, _) = comm.recv_zc::<Vec<f64>>(Src::Rank(0), 3).unwrap();
                assert_eq!(v, vec![1.25f64; 512]);
            }
        });
        assert_eq!(report.stats[1].region_integrity_checked, 1);
        assert_eq!(report.stats[0].zerocopy_msgs, 1);
    }

    #[test]
    fn region_integrity_mismatch_surfaces_as_corrupt() {
        // A deliberately wrong digest must surface as a typed Corrupt at
        // the typed receive (this is what catches sender-side aliasing:
        // the value no longer matches what was stamped at send time).
        let cfg = UniverseConfig::default().with_region_integrity(true);
        Universe::run_report(cfg, 2, |comm| {
            if comm.rank() == 0 {
                let v = vec![9u64; 64];
                let n = v.wire_size();
                let region = Region::new(v, n).with_integrity(0xbad);
                let req = comm
                    .isend_payload_named(1, 7, Payload::Region(region), "isend")
                    .unwrap();
                comm.wait(req).unwrap();
            } else {
                let err = comm.recv_zc::<Vec<u64>>(Src::Rank(0), 7).unwrap_err();
                assert_eq!(
                    err,
                    CommError::Corrupt {
                        rank: 1,
                        src: 0,
                        tag: 7
                    }
                );
            }
        });
    }

    #[test]
    fn recv_timeout_reports_stall_diagnostics() {
        Universe::run(2, |comm| {
            if comm.rank() == 1 {
                let err = comm
                    .recv_timeout::<u8>(Src::Rank(0), 5, Duration::from_millis(10))
                    .unwrap_err();
                match err {
                    CommError::Stalled { rank, src, tag, .. } => {
                        assert_eq!(rank, 1);
                        assert_eq!(src, Some(0));
                        assert_eq!(tag, 5);
                    }
                    other => panic!("expected Stalled, got {other:?}"),
                }
            }
            // Rank 0 never sends; both ranks fall through to exit.
        });
    }

    #[test]
    fn configured_stall_deadline_applies_to_request_wait() {
        let cfg = UniverseConfig {
            stall_timeout: Some(Duration::from_millis(10)),
            ..Default::default()
        };
        let results = Universe::run_report(cfg, 2, |comm| {
            if comm.rank() == 1 {
                let r = comm.irecv(Src::Rank(0), 11).unwrap();
                match comm.wait(r) {
                    Err(CommError::Stalled { tag: 11, .. }) => true,
                    other => panic!("expected stall, got {other:?}"),
                }
            } else {
                true
            }
        });
        assert!(results.results.iter().all(|&ok| ok));
    }
}
