//! Two-arm message payload: encoded wire bytes, or a transferable region.
//!
//! Ranks are threads in one process, so a large payload never needs to be
//! serialized at all: above [`Comm::zerocopy_threshold`](crate::Comm) the
//! send path wraps the typed value in an [`Arc`]-backed [`Region`] and
//! moves the *handle* through the mailbox. The receiver downcasts and
//! (when it holds the last handle) takes ownership back out — zero
//! serialize, zero memcpy. Small and control messages keep the encoded
//! wire path, whose sizes experiment E2 measures.
//!
//! ## Virtual-time and checksum semantics
//!
//! A region still *models* as the bytes it would have occupied on a real
//! cluster's wire: every region carries its exact encoded-equivalent size
//! (`Region::wire_bytes`, computed by [`Wire::wire_size`](crate::Wire)),
//! and the LogGP clock, [`Status::bytes`](crate::Status), and the
//! byte-counting stats all charge that size. Scaling shapes (E2/E9/E17)
//! are therefore bitwise independent of which arm a message took.
//!
//! FNV checksumming is **wire-path-only**: a region handle has no byte
//! image to corrupt in flight, so region envelopes carry checksum 0 and
//! intake verification applies only to the [`Payload::Bytes`] arm. A
//! `Corrupt` fault landing on a region send is skipped and counted in
//! [`CommStats::corrupt_skipped_region`](crate::CommStats) — never
//! silently half-applied. Drop/duplicate/delay faults act on the mailbox,
//! not the bytes, and apply to both arms.

use std::any::Any;
use std::sync::Arc;

use crate::error::CommError;

/// Payload size (encoded-equivalent bytes) at or above which the typed
/// send paths switch from encoding to region transfer, unless overridden
/// via [`UniverseConfig::zerocopy_threshold`](crate::UniverseConfig).
pub const DEFAULT_ZEROCOPY_THRESHOLD: usize = 4096;

/// An `Arc`-backed handle to a typed value moving between ranks without
/// serialization. The concrete type is erased so one mailbox carries any
/// payload; the receiver recovers it by downcast.
pub struct Region {
    data: Arc<dyn Any + Send + Sync>,
    /// Exact size of this value's wire encoding, had it been encoded.
    wire_bytes: usize,
    /// Optional FNV-1a digest of the value's wire encoding, stamped at
    /// send time when [`UniverseConfig::region_integrity`](crate::UniverseConfig)
    /// is on and re-verified at typed receives. `None` (the default)
    /// skips verification entirely.
    integrity: Option<u64>,
}

impl Region {
    /// Wrap `value` for transfer, recording its encoded-equivalent size
    /// (callers pass `value.wire_size()`).
    pub fn new<T: Send + Sync + 'static>(value: T, wire_bytes: usize) -> Region {
        Region {
            data: Arc::new(value),
            wire_bytes,
            integrity: None,
        }
    }

    /// Stamp an FNV-1a digest of the value's wire encoding onto the
    /// region (see [`Region::integrity`]).
    #[must_use]
    pub fn with_integrity(mut self, digest: u64) -> Region {
        self.integrity = Some(digest);
        self
    }

    /// The integrity digest stamped at send time, if any.
    pub fn integrity(&self) -> Option<u64> {
        self.integrity
    }

    /// Borrow the transported value, if it is a `T`.
    pub fn downcast_ref<T: Any>(&self) -> Option<&T> {
        self.data.downcast_ref::<T>()
    }

    /// Take the transported value, if it is a `T`. Ownership transfers
    /// without a copy when this is the last handle; otherwise (e.g. the
    /// sender's reliable-delivery retransmit copy is still unacked) the
    /// value is cloned — a memcpy, still far cheaper than encode+decode.
    pub fn take<T: Any + Send + Sync + Clone>(self) -> Option<T> {
        let arc = self.data.downcast::<T>().ok()?;
        Some(Arc::try_unwrap(arc).unwrap_or_else(|shared| (*shared).clone()))
    }
}

impl Clone for Region {
    fn clone(&self) -> Self {
        Region {
            data: Arc::clone(&self.data),
            wire_bytes: self.wire_bytes,
            integrity: self.integrity,
        }
    }
}

impl std::fmt::Debug for Region {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Region({} wire bytes)", self.wire_bytes)
    }
}

/// The message body: encoded wire bytes (small/control messages) or a
/// transferable region handle (bulk data at or above the threshold).
#[derive(Debug, Clone)]
pub enum Payload {
    /// The encoded wire path: bytes produced by [`Wire::encode`](crate::Wire).
    Bytes(Vec<u8>),
    /// The zero-copy path: an owned value moved by handle.
    Region(Region),
}

impl Payload {
    /// Encoded-equivalent size in bytes — identical for both arms, by
    /// construction, so every clock/stats charge is arm-independent.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Region(r) => r.wire_bytes,
        }
    }

    /// Did this payload travel as a region handle?
    pub fn is_region(&self) -> bool {
        matches!(self, Payload::Region(_))
    }

    /// Unwrap the wire-bytes arm. A region arriving at a receive that
    /// only understands bytes is a pairing bug (the sender chose zero
    /// copy where the receiver cannot accept it) and surfaces as a typed
    /// decode error rather than a panic.
    pub fn into_wire_bytes(self) -> Result<Vec<u8>, CommError> {
        match self {
            Payload::Bytes(b) => Ok(b),
            Payload::Region(r) => Err(CommError::Decode(format!(
                "zero-copy region ({} wire bytes) arrived at a wire-bytes-only receive; \
                 pair region sends with a `_zc` receive",
                r.wire_bytes
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn region_transfers_ownership_without_copy() {
        let v = vec![1.0f64; 1000];
        let ptr = v.as_ptr();
        let r = Region::new(v, 8008);
        assert_eq!(r.wire_bytes, 8008);
        let back: Vec<f64> = r.take().unwrap();
        // Sole handle: the allocation moved, it was not cloned.
        assert_eq!(back.as_ptr(), ptr);
        assert_eq!(back.len(), 1000);
    }

    #[test]
    fn shared_region_falls_back_to_clone() {
        let r = Region::new(vec![7u64; 4], 40);
        let held = r.clone();
        let back: Vec<u64> = r.take().unwrap();
        assert_eq!(back, vec![7u64; 4]);
        assert_eq!(held.downcast_ref::<Vec<u64>>().unwrap()[0], 7);
    }

    #[test]
    fn downcast_to_wrong_type_fails() {
        let r = Region::new(vec![1u8; 3], 11);
        assert!(r.downcast_ref::<Vec<f64>>().is_none());
        assert!(r.take::<Vec<f64>>().is_none());
    }

    #[test]
    fn payload_wire_len_is_arm_independent() {
        assert_eq!(Payload::Bytes(vec![0u8; 88]).wire_len(), 88);
        assert_eq!(
            Payload::Region(Region::new(vec![0.0f64; 10], 88)).wire_len(),
            88
        );
    }

    #[test]
    fn region_at_bytes_receive_is_a_typed_error() {
        let p = Payload::Region(Region::new(vec![0u8; 8], 16));
        assert!(matches!(
            p.into_wire_bytes(),
            Err(CommError::Decode(msg)) if msg.contains("zero-copy")
        ));
    }
}
