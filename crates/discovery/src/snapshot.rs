//! Deterministic, versioned lease-table snapshots.
//!
//! The replication log ([`crate::replication`]) cannot grow forever: once
//! entries are committed and applied everywhere they carry no information
//! the lease table itself doesn't. A [`LeaseSnapshot`] freezes the applied
//! table — every registration with its exact expiry instant, in
//! `ServiceId` order — together with the log position it covers
//! (`last_index`/`last_epoch`), so the log can be truncated up to that
//! point. A restarted registrar rejoins by decoding its persisted snapshot
//! (or a `SnapshotInstall` shipped by the primary) and replaying only the
//! log suffix, instead of rebuilding from an empty table behind a stale
//! window.
//!
//! The encoding is the discovery codec's own discipline (big-endian,
//! length-prefixed, no self-describing framing, read through
//! [`aroma_net::wire`]): byte-identical for equal tables, version-prefixed
//! so a future layout bump is an explicit [`WireError::BadTag`] instead of
//! silent misparsing, and `decode` consumes the buffer exactly
//! (`TrailingBytes` otherwise).

use crate::codec::{get_item, put_item, ServiceItem, MIN_ITEM_LEN};
use crate::registry::ServiceRegistry;
use aroma_net::wire::{self, Reader, WireError};
use aroma_sim::{SimDuration, SimTime};
use bytes::{BufMut, Bytes, BytesMut};

/// Current snapshot layout version (first byte on the wire).
pub const SNAPSHOT_VERSION: u8 = 1;

/// A frozen lease table plus the replication-log position it covers.
#[derive(Clone, Debug, PartialEq)]
pub struct LeaseSnapshot {
    /// Index of the last log entry folded into this snapshot (0 = none).
    pub last_index: u64,
    /// Epoch of that entry (0 when `last_index` is 0).
    pub last_epoch: u64,
    /// Every registration with its exact expiry, in `ServiceId` order.
    pub entries: Vec<(ServiceItem, SimTime)>,
}

impl LeaseSnapshot {
    /// Freeze `table` as of log position (`last_index`, `last_epoch`).
    pub fn capture(table: &ServiceRegistry, last_index: u64, last_epoch: u64) -> Self {
        LeaseSnapshot {
            last_index,
            last_epoch,
            entries: table
                .entries()
                .map(|(item, expires)| (item.clone(), expires))
                .collect(),
        }
    }

    /// Rebuild a lease table from this snapshot. Grant policy (`max_lease`)
    /// is the restoring registrar's own configuration; the stored expiries
    /// are installed verbatim, so the restored table equals the captured
    /// one whatever its `max_lease`.
    pub fn restore(&self, max_lease: SimDuration) -> ServiceRegistry {
        let mut table = ServiceRegistry::new(max_lease);
        for (item, expires) in &self.entries {
            table.install(item.clone(), *expires);
        }
        table
    }

    /// Encode to bytes (versioned, deterministic).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(32 + self.entries.len() * 64);
        buf.put_u8(SNAPSHOT_VERSION);
        buf.put_u64(self.last_index);
        buf.put_u64(self.last_epoch);
        buf.put_u32(wire::prefix(self.entries.len()));
        for (item, expires) in &self.entries {
            put_item(&mut buf, item);
            buf.put_u64(expires.as_nanos());
        }
        buf.freeze()
    }

    /// Decode from bytes; must consume the buffer exactly.
    pub fn decode(buf: Bytes) -> Result<Self, WireError> {
        let mut r = Reader::new(buf);
        r.tag(SNAPSHOT_VERSION)?;
        let last_index = r.u64()?;
        let last_epoch = r.u64()?;
        let n = r.u32()? as usize;
        // A row is an item and its expiry instant.
        let mut entries = Vec::with_capacity(r.capacity(n, MIN_ITEM_LEN + 8));
        for _ in 0..n {
            entries.push((get_item(&mut r)?, SimTime::from_nanos(r.u64()?)));
        }
        r.finish()?;
        Ok(LeaseSnapshot { last_index, last_epoch, entries })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::{ServiceId, Template};

    fn item(id: u64) -> ServiceItem {
        ServiceItem {
            id: ServiceId(id),
            kind: "projector/display".into(),
            attributes: vec![("room".into(), format!("A-{id}"))],
            provider: id as u32,
            proxy: Bytes::from(vec![id as u8; 4]),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    fn table() -> ServiceRegistry {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        for id in [44u64, 7, 190, 3] {
            r.register(t(0), item(id), SimDuration::from_secs(5 + id));
        }
        r
    }

    #[test]
    fn capture_restore_round_trips_the_table() {
        let orig = table();
        let snap = LeaseSnapshot::capture(&orig, 12, 3);
        // Restore under a *different* lease cap: the stored state must
        // still come back bit-for-bit.
        let back = snap.restore(SimDuration::from_secs(1));
        let render = |r: &ServiceRegistry| {
            r.entries()
                .map(|(i, e)| (i.clone(), e))
                .collect::<Vec<_>>()
        };
        assert_eq!(render(&orig), render(&back));
        assert_eq!(back.lookup(&Template::any()).len(), 4);
    }

    #[test]
    fn encode_decode_identity() {
        let snap = LeaseSnapshot::capture(&table(), 99, 2);
        let decoded = LeaseSnapshot::decode(snap.encode()).expect("decode");
        assert_eq!(decoded, snap);
    }

    #[test]
    fn encoding_is_deterministic() {
        // Two captures of tables built in different orders encode equal.
        let a = LeaseSnapshot::capture(&table(), 5, 1).encode();
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        for id in [3u64, 190, 7, 44] {
            r.register(t(0), item(id), SimDuration::from_secs(5 + id));
        }
        let b = LeaseSnapshot::capture(&r, 5, 1).encode();
        assert_eq!(a, b);
    }

    #[test]
    fn wrong_version_rejected() {
        let good = LeaseSnapshot::capture(&table(), 1, 1).encode();
        let mut raw = BytesMut::new();
        raw.put_u8(SNAPSHOT_VERSION + 1);
        raw.put_slice(&good.slice(1..));
        assert_eq!(LeaseSnapshot::decode(raw.freeze()), Err(WireError::BadTag(SNAPSHOT_VERSION + 1)));
    }

    #[test]
    fn truncation_and_trailing_rejected() {
        let full = LeaseSnapshot::capture(&table(), 1, 1).encode();
        for cut in 0..full.len() {
            assert!(LeaseSnapshot::decode(full.slice(0..cut)).is_err(), "prefix {cut} decoded");
        }
        let mut padded = BytesMut::new();
        padded.put_slice(&full);
        padded.put_u8(0xEE);
        assert_eq!(
            LeaseSnapshot::decode(padded.freeze()),
            Err(WireError::TrailingBytes { remaining: 1 })
        );
    }

    #[test]
    fn empty_table_snapshots() {
        let r = ServiceRegistry::new(SimDuration::from_secs(1));
        let snap = LeaseSnapshot::capture(&r, 0, 0);
        let decoded = LeaseSnapshot::decode(snap.encode()).expect("decode");
        assert!(decoded.entries.is_empty());
        assert!(decoded.restore(SimDuration::from_secs(1)).is_empty());
    }
}
