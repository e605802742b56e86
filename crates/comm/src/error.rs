//! Error type shared by the whole substrate.

use std::fmt;

/// Errors raised by the message-passing substrate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommError {
    /// A payload could not be decoded into the requested type.
    Decode(String),
    /// The peer's mailbox is gone (its thread panicked or exited early),
    /// or the other end of the job's [`Host`](crate::Host) is.
    Disconnected,
    /// A rank argument was outside `0..size`.
    InvalidRank { rank: usize, size: usize },
    /// A collective was called with inconsistent arguments across ranks
    /// (detected where cheaply possible, e.g. mismatched scatter lengths).
    CollectiveMismatch(String),
    /// A blocking receive or request wait exceeded its deadline. Carries
    /// enough to diagnose the hang: who was waiting (global rank), for
    /// whom (`None` = any source), on which tag, for how long, and a
    /// snapshot of the unmatched mailbox — distinguishing "nothing ever
    /// arrived" from "messages arrived but none matched".
    Stalled {
        /// Global rank that was blocked.
        rank: usize,
        /// Global rank it was waiting on, if a specific one.
        src: Option<usize>,
        /// Tag it was matching.
        tag: u32,
        /// Wall-clock milliseconds spent waiting before giving up.
        waited_ms: u64,
        /// Envelopes queued but unmatched when the wait gave up.
        queued: usize,
        /// Tags of the queued envelopes (capped at the first few).
        queued_tags: Vec<u32>,
        /// Reliable-delivery envelopes this rank had sent but not yet
        /// seen acked when the wait gave up — a nonzero count means the
        /// stall may be self-inflicted (the peer is waiting on a message
        /// this rank still owes a retransmit for). Always 0 in raw mode.
        retx_in_flight: usize,
        /// Sequence numbers of those unacked envelopes (capped at the
        /// first few).
        retx_seqs: Vec<u64>,
        /// Milliseconds until the earliest pending retransmit fires its
        /// next backoff retry (`Some(0)` = a retry is already overdue);
        /// `None` when nothing is in flight.
        retx_backoff_ms: Option<u64>,
    },
    /// A received payload failed checksum verification (injected
    /// bit-corruption surfaced in raw delivery mode).
    Corrupt {
        /// Global rank that detected the corruption (the receiver).
        rank: usize,
        /// Global rank the message came from.
        src: usize,
        /// Tag the message was sent with.
        tag: u32,
    },
    /// This rank was killed by the fault plan: it has exceeded its
    /// configured operation budget and every further comm call fails.
    Killed {
        /// Global rank that died.
        rank: usize,
        /// Operation count at which it died.
        after_ops: u64,
    },
}

impl fmt::Display for CommError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommError::Decode(msg) => write!(f, "decode error: {msg}"),
            CommError::Disconnected => write!(f, "peer disconnected"),
            CommError::InvalidRank { rank, size } => {
                write!(f, "invalid rank {rank} for communicator of size {size}")
            }
            CommError::CollectiveMismatch(msg) => write!(f, "collective mismatch: {msg}"),
            CommError::Stalled {
                rank,
                src,
                tag,
                waited_ms,
                queued,
                queued_tags,
                retx_in_flight,
                retx_seqs,
                retx_backoff_ms,
            } => {
                write!(
                    f,
                    "rank {rank} stalled {waited_ms} ms waiting for tag {tag} from "
                )?;
                match src {
                    Some(s) => write!(f, "rank {s}")?,
                    None => write!(f, "any rank")?,
                }
                if *queued == 0 {
                    write!(f, "; mailbox empty")?;
                } else {
                    write!(f, "; {queued} unmatched queued, tags {queued_tags:?}")?;
                }
                if *retx_in_flight > 0 {
                    write!(
                        f,
                        "; {retx_in_flight} reliable sends unacked, seqs {retx_seqs:?}"
                    )?;
                    if let Some(ms) = retx_backoff_ms {
                        write!(f, ", next retransmit in {ms} ms")?;
                    }
                }
                Ok(())
            }
            CommError::Corrupt { rank, src, tag } => {
                write!(
                    f,
                    "rank {rank} received a corrupt payload (tag {tag} from rank {src})"
                )
            }
            CommError::Killed { rank, after_ops } => {
                write!(f, "rank {rank} was killed after {after_ops} comm ops")
            }
        }
    }
}

impl std::error::Error for CommError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_formats() {
        assert_eq!(
            CommError::Decode("bad".into()).to_string(),
            "decode error: bad"
        );
        assert_eq!(CommError::Disconnected.to_string(), "peer disconnected");
        assert_eq!(
            CommError::InvalidRank { rank: 9, size: 4 }.to_string(),
            "invalid rank 9 for communicator of size 4"
        );
        assert!(CommError::CollectiveMismatch("x".into())
            .to_string()
            .contains("x"));
        assert_eq!(
            CommError::Stalled {
                rank: 3,
                src: Some(1),
                tag: 7,
                waited_ms: 250,
                queued: 0,
                queued_tags: vec![],
                retx_in_flight: 0,
                retx_seqs: vec![],
                retx_backoff_ms: None,
            }
            .to_string(),
            "rank 3 stalled 250 ms waiting for tag 7 from rank 1; mailbox empty"
        );
        assert_eq!(
            CommError::Stalled {
                rank: 0,
                src: None,
                tag: 2,
                waited_ms: 10,
                queued: 2,
                queued_tags: vec![5, 9],
                retx_in_flight: 0,
                retx_seqs: vec![],
                retx_backoff_ms: None,
            }
            .to_string(),
            "rank 0 stalled 10 ms waiting for tag 2 from any rank; 2 unmatched queued, tags [5, 9]"
        );
        assert_eq!(
            CommError::Stalled {
                rank: 2,
                src: Some(0),
                tag: 4,
                waited_ms: 100,
                queued: 0,
                queued_tags: vec![],
                retx_in_flight: 2,
                retx_seqs: vec![11, 12],
                retx_backoff_ms: Some(3),
            }
            .to_string(),
            "rank 2 stalled 100 ms waiting for tag 4 from rank 0; mailbox empty; \
             2 reliable sends unacked, seqs [11, 12], next retransmit in 3 ms"
        );
        assert_eq!(
            CommError::Corrupt {
                rank: 1,
                src: 0,
                tag: 4
            }
            .to_string(),
            "rank 1 received a corrupt payload (tag 4 from rank 0)"
        );
        assert_eq!(
            CommError::Killed {
                rank: 2,
                after_ops: 40
            }
            .to_string(),
            "rank 2 was killed after 40 comm ops"
        );
    }
}
