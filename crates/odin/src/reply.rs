//! The master's pipelined reply engine: reply *tickets*, the [`Pending`]
//! reply future, the folds a trace flush launched, and the bounded waits
//! behind them. Replies and death notices arrive in one mailbox
//! ([`comm::Host::recv`]).

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use std::rc::Rc;
use std::time::{Duration, Instant};

use comm::{HostEvent, Payload, Wire};

use crate::context::OdinContext;
use crate::error::OdinError;
use crate::protocol::{Cmd, ReduceKind};
use crate::worker::Fold;

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

/// A reply future: the handle returned by pipelined dispatch and by an
/// asynchronous reduction. Dropping it abandons the reply (the engine
/// discards it on arrival), or, for a reduction the trace still holds,
/// its statement.
#[must_use = "dropping a Pending abandons its reply; call wait() (or hold it to overlap master-side work with the workers)"]
pub struct Pending<'c, T> {
    ctx: &'c OdinContext,
    wait: Wait<T>,
}

enum Wait<T> {
    /// Replies to the tickets issued when the command was posted.
    Replies {
        tickets: Vec<(usize, u64)>,
        span_name: &'static str,
        decode: Option<Decode<T>>,
    },
    /// A recorded fold's value: it rides the launch of the flush that
    /// posts it, at the latest the one the first `ready`/`wait` forces.
    Fold { key: u64, decode: fn(f64) -> T },
}

impl<'c> Pending<'c, f64> {
    /// The future of the fold [`OdinContext::record_fold`] recorded as
    /// `key`.
    pub(crate) fn fold(ctx: &'c OdinContext, key: u64) -> Self {
        Pending {
            ctx,
            wait: Wait::Fold { key, decode: |v| v },
        }
    }
}

impl<T> Pending<'_, T> {
    /// Whether the result has already arrived (non-blocking, but a fold
    /// still in the trace is flushed first).
    pub fn ready(&mut self) -> bool {
        match &self.wait {
            Wait::Replies { tickets, .. } => self.ctx.tickets_ready(tickets),
            Wait::Fold { key, .. } => self.ctx.fold_ready(*key),
        }
    }

    /// Block until every reply arrives and decode the result. Panics with
    /// the [`OdinError`] diagnostic if a worker dies; use
    /// [`Self::try_wait`] for a typed error.
    pub fn wait(self) -> T {
        self.try_wait()
            .unwrap_or_else(|e| panic!("odin reply wait failed: {e}"))
    }

    /// Fallible [`Self::wait`]: a dead or silent worker yields
    /// [`OdinError::WorkerDead`] in bounded time instead of a panic or a
    /// hang.
    pub fn try_wait(mut self) -> Result<T, OdinError> {
        match &mut self.wait {
            Wait::Replies {
                tickets,
                span_name,
                decode,
            } => {
                let tickets = std::mem::take(tickets);
                let replies = self.ctx.try_await_tickets(&tickets, span_name)?;
                Ok((decode.take().expect("pending waited twice"))(replies))
            }
            Wait::Fold { key, decode } => self.ctx.fold_value(*key).map(*decode),
        }
    }
}

impl<T> Drop for Pending<'_, T> {
    fn drop(&mut self) {
        match &self.wait {
            Wait::Replies { tickets, .. } => self.ctx.abandon_tickets(tickets),
            Wait::Fold { key, .. } => self.ctx.release_fold(*key),
        }
    }
}

/// Flushed folds not yet read, by key: the launch each rides and its
/// column among that launch's reduce tails.
pub(crate) type Folds = HashMap<u64, (Rc<RefCell<Launch>>, usize)>;

/// One launch with reduce tails: its kinds, and its tickets until the
/// first reader claims them, then the totals.
pub(crate) struct Launch {
    kinds: Vec<ReduceKind>,
    reply: Reply,
}

enum Reply {
    Tickets(Vec<(usize, u64)>),
    Totals(Result<Vec<f64>, OdinError>),
}

impl OdinContext {
    /// Reserve the next reply ticket from `worker`. A ticket means a
    /// reply-bearing command was just dispatched, so the command buffer is
    /// posted here — at dispatch, not at the wait, so a future that is
    /// only polled completes too.
    fn issue_ticket(&self, worker: usize) -> (usize, u64) {
        self.flush_batch();
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

    /// Claim `tickets` in order; a typed error when a worker dies or times
    /// out.
    fn try_await_tickets(
        &self,
        tickets: &[(usize, u64)],
        name: &'static str,
    ) -> Result<Vec<Payload>, OdinError> {
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
            let args = [
                ("msgs", tickets.len() as f64),
                ("bytes", reply_bytes as f64),
            ];
            self.obs_span(name, t, &args, obs::flow::NONE);
        }
        Ok(out)
    }

    /// One ticket per worker, in worker order.
    fn tickets_all(&self) -> Vec<(usize, u64)> {
        (0..self.n_workers).map(|w| self.issue_ticket(w)).collect()
    }

    /// Reply future for one reply from every worker (worker order),
    /// passed through `decode`.
    pub(crate) fn pending_all<T>(
        &self,
        span_name: &'static str,
        decode: impl FnOnce(Vec<Payload>) -> T + 'static,
    ) -> Pending<'_, T> {
        Pending {
            ctx: self,
            wait: Wait::Replies {
                tickets: self.tickets_all(),
                span_name,
                decode: Some(Box::new(decode)),
            },
        }
    }

    /// Broadcast a command and return a future for one reply per worker —
    /// the pipelined dispatch primitive: the master keeps issuing commands
    /// while replies are still in flight.
    pub(crate) fn dispatch_all(&self, cmd: &Cmd) -> Pending<'_, Vec<Payload>> {
        self.send_cmd(cmd);
        self.pending_all("collect_replies", |replies| replies)
    }

    /// Broadcast a command every worker answers with one `T` and return
    /// a typed future for the answers, in worker order.
    pub(crate) fn dispatch_each<T: Wire + 'static>(&self, cmd: &Cmd) -> Pending<'_, Vec<T>> {
        self.send_cmd(cmd);
        self.pending_all("collect_replies", |replies| {
            replies.into_iter().map(decode_reply).collect()
        })
    }

    /// A flush just posted a launch whose reduce tails are the folds
    /// `keys`, of `kinds`: take its tickets, and file each fold under it.
    pub(crate) fn launch_folds(&self, keys: &[u64], kinds: Vec<ReduceKind>) {
        let launch = Rc::new(RefCell::new(Launch {
            kinds,
            reply: Reply::Tickets(self.tickets_all()),
        }));
        let mut folds = self.folds.borrow_mut();
        for (col, &key) in keys.iter().enumerate() {
            folds.insert(key, (Rc::clone(&launch), col));
        }
    }

    /// The launch fold `key` rides, flushing the trace first if the fold
    /// is still in it; `None` once a recover dropped it.
    fn fold_launch(&self, key: u64) -> Option<(Rc<RefCell<Launch>>, usize)> {
        if self.is_pending(key) {
            self.flush_trace();
        }
        let folds = self.folds.borrow();
        folds
            .get(&key)
            .map(|(launch, col)| (Rc::clone(launch), *col))
    }

    fn fold_ready(&self, key: u64) -> bool {
        let Some((launch, _)) = self.fold_launch(key) else {
            return true;
        };
        let launch = launch.borrow();
        match &launch.reply {
            Reply::Tickets(tickets) => self.tickets_ready(tickets),
            Reply::Totals(_) => true,
        }
    }

    /// Fold `key`'s value. Its launch's first reader claims the replies
    /// and combines every tail's partials; the others read the totals.
    /// A fold that a recover dropped with its pool is `PoolDown`.
    fn fold_value(&self, key: u64) -> Result<f64, OdinError> {
        let (launch, col) = self.fold_launch(key).ok_or(OdinError::PoolDown)?;
        let mut launch = launch.borrow_mut();
        let Launch { kinds, reply } = &mut *launch;
        let totals = match reply {
            Reply::Totals(totals) => totals.clone(),
            Reply::Tickets(tickets) => {
                // Every worker replies its partials in tail order; each
                // tail's column combines with `Fold::across`.
                let totals = self.try_await_tickets(tickets, "fold").map(|replies| {
                    let partials: Vec<Vec<f64>> = replies.into_iter().map(decode_reply).collect();
                    let column = |j: usize| partials.iter().map(|w| w[j]).collect::<Vec<_>>();
                    let total = |(j, &kind)| Fold::across(kind, &column(j));
                    kinds.iter().enumerate().map(total).collect()
                });
                *reply = Reply::Totals(totals.clone());
                totals
            }
        };
        totals.map(|t| t[col])
    }

    /// Fold `key`'s future was dropped: a fold still in the trace loses its
    /// handle, and the last reader of a launch abandons its unclaimed
    /// replies.
    fn release_fold(&self, key: u64) {
        if self.unhold(key) {
            return;
        }
        let Some((launch, _)) = self.folds.borrow_mut().remove(&key) else {
            return;
        };
        if let Ok(launch) = Rc::try_unwrap(launch) {
            if let Reply::Tickets(tickets) = launch.into_inner().reply {
                self.abandon_tickets(&tickets);
            }
        }
    }

    /// Replies reserved by in-flight futures but not yet consumed: one per
    /// worker for every reply-bearing broadcast (a barrier, a reduction).
    pub fn outstanding_replies(&self) -> u64 {
        let eng = self.engine.borrow();
        let issued: u64 = eng.issued.iter().sum();
        let arrived: u64 = eng.arrived.iter().sum();
        issued - arrived
    }
}

/// A wire-arm reply decoded as `T`.
fn decode_reply<T: Wire>(reply: Payload) -> T {
    reply
        .into_wire_bytes()
        .and_then(|bytes| comm::decode_from_slice(&bytes))
        .expect("bad reply encoding")
}

#[cfg(test)]
mod tests {
    use crate::context::OdinContext;

    #[test]
    fn pipelined_dispatch_overlaps_independent_commands() {
        let ctx = OdinContext::with_workers(2);
        let x = ctx.full(&[10], 2.0, crate::protocol::Dist::Block);
        let y = ctx.linspace(1.0, 10.0, 10);
        // record two reductions without waiting for either: their launch
        // waits on one reply per worker
        let px = x.sum_async();
        let py = y.sum_async();
        assert_eq!(
            ctx.outstanding_replies(),
            0,
            "both recorded, nothing posted"
        );
        ctx.flush_batch();
        assert_eq!(ctx.outstanding_replies(), 2, "both ride one launch");
        // claim out of dispatch order: the engine buffers the early reply
        assert!((py.wait() - 55.0).abs() < 1e-9);
        assert!((px.wait() - 20.0).abs() < 1e-9);
        assert_eq!(ctx.outstanding_replies(), 0);
    }

    #[test]
    fn pending_ready_polls_without_blocking() {
        let ctx = OdinContext::with_workers(3);
        let x = ctx.ones(&[9], crate::buffer::DType::F64);
        let y = &x * 2.0; // buffered ahead of the reduction
        let mut p = y.sum_async();
        while !p.ready() {
            std::thread::yield_now();
        }
        assert!((p.wait() - 18.0).abs() < 1e-12);
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
