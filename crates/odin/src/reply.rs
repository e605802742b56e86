//! The master's pipelined reply engine: reply *tickets*, the [`Pending`]
//! reply future, and the bounded waits behind it. Replies and death
//! notices arrive in one mailbox ([`comm::Host::recv`]).

use std::collections::{HashMap, HashSet};
use std::time::{Duration, Instant};

use comm::{HostEvent, Payload, Wire};

use crate::context::OdinContext;
use crate::error::OdinError;
use crate::protocol::Cmd;

/// Demultiplexer for worker replies. Workers execute commands in FIFO
/// order, so the `k`-th reply to arrive from a worker always answers the
/// `k`-th reply-bearing command the master sent it — a *ticket*. Replies
/// that arrive before their ticket is claimed are buffered; tickets whose
/// [`Pending`] was dropped are discarded on arrival so the stream never
/// desynchronizes.
#[derive(Default)]
pub(crate) struct ReplyEngine {
    /// Tickets issued per worker (reply-bearing commands dispatched).
    pub(crate) issued: Vec<u64>,
    /// Replies taken off the host mailbox per worker.
    pub(crate) arrived: Vec<u64>,
    /// Arrived but not yet claimed, keyed by `(worker, ticket)`.
    pub(crate) buffered: HashMap<(usize, u64), Payload>,
    /// Tickets whose `Pending` was dropped before the reply arrived.
    pub(crate) abandoned: HashSet<(usize, u64)>,
}

/// Decoder applied to the raw replies when a [`Pending`] is waited.
type Decode<T> = Box<dyn FnOnce(Vec<Payload>) -> T>;

/// A reply future: the handle returned by pipelined dispatch. Dropping it
/// abandons the reply (the engine discards it on arrival); [`Pending::wait`]
/// first flushes any open command batch, so waiting inside a batch can
/// never deadlock.
#[must_use = "dropping a Pending abandons its reply; call wait() (or hold it to overlap master-side work with the workers)"]
pub struct Pending<'c, T> {
    ctx: &'c OdinContext,
    tickets: Vec<(usize, u64)>,
    span_name: &'static str,
    decode: Option<Decode<T>>,
}

impl<'c, T> Pending<'c, T> {
    /// Whether every reply has already arrived (non-blocking).
    pub fn ready(&mut self) -> bool {
        self.ctx.tickets_ready(&self.tickets)
    }

    /// Block until every reply arrives and decode the result. Flushes any
    /// open command batch first. Panics with the [`OdinError`] diagnostic
    /// if a worker dies; use [`Self::try_wait`] for a typed error.
    pub fn wait(mut self) -> T {
        let tickets = std::mem::take(&mut self.tickets);
        let replies = self.ctx.await_tickets(&tickets, self.span_name);
        (self.decode.take().expect("pending waited twice"))(replies)
    }

    /// Fallible [`Self::wait`]: a dead or silent worker yields
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic or a
    /// hang.
    pub fn try_wait(mut self) -> Result<T, OdinError> {
        let tickets = std::mem::take(&mut self.tickets);
        let replies = self.ctx.try_await_tickets(&tickets, self.span_name)?;
        Ok((self.decode.take().expect("pending waited twice"))(replies))
    }
}

impl<'c, T: 'static> Pending<'c, T> {
    /// The same reply, passed through `f` once decoded.
    pub(crate) fn map<U>(mut self, f: impl FnOnce(T) -> U + 'static) -> Pending<'c, U> {
        let decode = self.decode.take();
        Pending {
            ctx: self.ctx,
            tickets: std::mem::take(&mut self.tickets),
            span_name: self.span_name,
            decode: decode.map(|d| Box::new(move |replies| f(d(replies))) as Decode<U>),
        }
    }
}

impl<T> Drop for Pending<'_, T> {
    fn drop(&mut self) {
        self.ctx.abandon_tickets(&self.tickets);
    }
}

impl OdinContext {
    /// Reserve the next reply ticket from `worker`.
    fn issue_ticket(&self, worker: usize) -> (usize, u64) {
        let mut eng = self.engine.borrow_mut();
        let t = eng.issued[worker];
        eng.issued[worker] += 1;
        (worker, t)
    }

    /// Take one event off the host mailbox: a death notice latches
    /// `dead`; a reply is accounted, given its ticket and buffered —
    /// unless the ticket was abandoned (reply discarded).
    fn admit_arrival(&self, rank: usize, event: HostEvent) {
        let HostEvent::Msg(msg) = event else {
            self.dead.borrow_mut()[rank] = true;
            return;
        };
        {
            let mut st = self.stats.borrow_mut();
            st.data_msgs += 1;
            // Encoded-equivalent size either way, so byte accounting does
            // not depend on which payload arm the reply took.
            st.data_bytes += msg.wire_len() as u64;
        }
        let mut eng = self.engine.borrow_mut();
        let t = eng.arrived[rank];
        eng.arrived[rank] += 1;
        let key = (rank, t);
        if !eng.abandoned.remove(&key) {
            eng.buffered.insert(key, msg);
        }
    }

    /// Block until the reply for `want` arrives, buffering any replies
    /// that belong to other in-flight tickets. Bounded: a worker whose
    /// program ended posts a notice behind its last reply, so its death
    /// is an arrival like any other, and a live-but-silent worker trips
    /// [`OdinConfig::reply_timeout`](crate::OdinConfig) when one is set —
    /// either way the wait ends with a typed [`OdinError`], never a hang.
    fn try_claim_ticket(&self, want: (usize, u64)) -> Result<Payload, OdinError> {
        let t0 = Instant::now();
        let worker_dead = || OdinError::WorkerDead {
            worker: want.0,
            waited: t0.elapsed(),
        };
        loop {
            if let Some(msg) = self.engine.borrow_mut().buffered.remove(&want) {
                return Ok(msg);
            }
            if self.dead.borrow()[want.0] {
                return Err(worker_dead());
            }
            let left = match self.config.reply_timeout {
                Some(limit) => Some(limit.checked_sub(t0.elapsed()).ok_or_else(worker_dead)?),
                None => None,
            };
            let arrival = self.host.borrow().recv(left);
            match arrival {
                Ok(Some((rank, event))) => self.admit_arrival(rank, event),
                Ok(None) => return Err(worker_dead()),
                Err(_) => return Err(OdinError::PoolDown),
            }
        }
    }

    /// Take in every event already in the mailbox (non-blocking).
    pub(crate) fn poll_arrivals(&self) {
        loop {
            let arrival = self.host.borrow().recv(Some(Duration::ZERO));
            match arrival {
                Ok(Some((rank, event))) => self.admit_arrival(rank, event),
                _ => break,
            }
        }
    }

    fn tickets_ready(&self, tickets: &[(usize, u64)]) -> bool {
        self.poll_arrivals();
        let eng = self.engine.borrow();
        tickets.iter().all(|k| eng.buffered.contains_key(k))
    }

    /// Forget tickets whose `Pending` was dropped: discard buffered
    /// replies now, mark the rest for discard on arrival.
    fn abandon_tickets(&self, tickets: &[(usize, u64)]) {
        if tickets.is_empty() {
            return;
        }
        let mut eng = self.engine.borrow_mut();
        for &key in tickets {
            if eng.buffered.remove(&key).is_none() {
                eng.abandoned.insert(key);
            }
        }
    }

    /// Claim `tickets` in order. Panics with the [`OdinError`] diagnostic on
    /// worker death; fallible callers use [`Self::try_await_tickets`].
    fn await_tickets(&self, tickets: &[(usize, u64)], name: &'static str) -> Vec<Payload> {
        self.try_await_tickets(tickets, name)
            .unwrap_or_else(|e| panic!("odin reply wait failed: {e}"))
    }

    /// Fallible [`Self::await_tickets`]: returns a typed error instead of
    /// panicking when a worker dies or times out.
    fn try_await_tickets(
        &self,
        tickets: &[(usize, u64)],
        name: &'static str,
    ) -> Result<Vec<Payload>, OdinError> {
        self.flush_open_batch();
        let timer = self.obs_timer();
        let mut out = Vec::with_capacity(tickets.len());
        let mut reply_bytes = 0u64;
        for (i, &key) in tickets.iter().enumerate() {
            match self.try_claim_ticket(key) {
                Ok(msg) => {
                    reply_bytes += msg.wire_len() as u64;
                    out.push(msg);
                }
                Err(e) => {
                    // Abandon the unclaimed remainder so late replies from
                    // surviving workers are discarded, not leaked.
                    self.abandon_tickets(&tickets[i..]);
                    return Err(e);
                }
            }
        }
        if let Some(t) = timer {
            self.obs_data(name, tickets.len() as u64, reply_bytes, t, 0);
        }
        Ok(out)
    }

    /// Reply future for one reply from every worker (worker order).
    pub(crate) fn pending_all(&self, span_name: &'static str) -> Pending<'_, Vec<Payload>> {
        let tickets = (0..self.n_workers).map(|w| self.issue_ticket(w)).collect();
        Pending {
            ctx: self,
            tickets,
            span_name,
            decode: Some(Box::new(|replies| replies)),
        }
    }

    /// Reply future for a single worker-0 reply decoded as `T`.
    pub(crate) fn pending_single<T: Wire>(&self, span_name: &'static str) -> Pending<'_, T> {
        let tickets = vec![self.issue_ticket(0)];
        Pending {
            ctx: self,
            tickets,
            span_name,
            decode: Some(Box::new(|replies| {
                replies
                    .into_iter()
                    .next()
                    .ok_or(comm::CommError::Disconnected)
                    .and_then(Payload::into_wire_bytes)
                    .and_then(|bytes| comm::decode_from_slice(&bytes))
                    .expect("bad reply encoding")
            })),
        }
    }

    /// Broadcast a command and return a future for one reply per worker —
    /// the pipelined dispatch primitive: the master keeps issuing commands
    /// while replies are still in flight.
    pub(crate) fn dispatch_all(&self, cmd: &Cmd) -> Pending<'_, Vec<Payload>> {
        self.send_cmd(cmd);
        self.pending_all("collect_replies")
    }

    /// Broadcast a command whose protocol says only worker 0 replies and
    /// return a typed future for that reply.
    pub(crate) fn dispatch_single<T: Wire>(&self, cmd: &Cmd) -> Pending<'_, T> {
        self.send_cmd(cmd);
        self.pending_single("collect_single_reply")
    }

    /// Replies reserved by in-flight futures but not yet consumed.
    pub fn outstanding_replies(&self) -> u64 {
        let eng = self.engine.borrow();
        let issued: u64 = eng.issued.iter().sum();
        let arrived: u64 = eng.arrived.iter().sum();
        issued - arrived
    }

    /// Receive one reply from each worker, returned in worker order, as
    /// encoded bytes (only a `Fetch` reply ever rides the region arm).
    pub(crate) fn collect_replies(&self) -> Vec<Vec<u8>> {
        self.pending_all("collect_replies")
            .wait()
            .into_iter()
            .map(|reply| reply.into_wire_bytes().expect("a wire-bytes reply"))
            .collect()
    }

    /// Drain `n` replies (used when several reply-bearing commands were
    /// batched). Broadcast commands produce one reply per worker, so `n`
    /// must be a multiple of the worker count.
    pub fn drain_replies(&self, n: usize) {
        assert!(
            n.is_multiple_of(self.n_workers),
            "drain_replies needs one reply per worker per command"
        );
        let per = n / self.n_workers;
        let tickets: Vec<(usize, u64)> = (0..self.n_workers)
            .flat_map(|w| std::iter::repeat_n(w, per))
            .map(|w| self.issue_ticket(w))
            .collect();
        let _ = self.await_tickets(&tickets, "drain_replies");
    }
}

#[cfg(test)]
mod tests {
    use crate::context::OdinContext;

    #[test]
    fn pipelined_dispatch_overlaps_independent_commands() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.full(&[10], 2.0, crate::protocol::Dist::Block);
        let y = ctx.linspace(1.0, 10.0, 10);
        // dispatch two reductions without waiting for either
        let px = x.sum_async();
        let py = y.sum_async();
        assert_eq!(ctx.outstanding_replies(), 2, "both replies in flight");
        // claim out of dispatch order: the engine buffers the early reply
        assert!((py.wait() - 55.0).abs() < 1e-9);
        assert!((px.wait() - 20.0).abs() < 1e-9);
        assert_eq!(ctx.outstanding_replies(), 0);
    }

    #[test]
    fn pending_ready_polls_without_blocking() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.ones(&[9], crate::buffer::DType::F64);
        let mut p = x.sum_async();
        while !p.ready() {
            std::thread::yield_now();
        }
        assert!((p.wait() - 9.0).abs() < 1e-12);
    }

    #[test]
    fn dropped_pending_reply_is_discarded_not_misdelivered() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.full(&[4], 3.0, crate::protocol::Dist::Block);
        let y = ctx.full(&[4], 5.0, crate::protocol::Dist::Block);
        let abandoned = x.sum_async();
        drop(abandoned);
        // the abandoned reply (12.0) must not be delivered to this wait
        assert!((y.sum() - 20.0).abs() < 1e-12);
        ctx.barrier();
        assert_eq!(ctx.outstanding_replies(), 0);
    }
}
