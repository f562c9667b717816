//! Property-based tests for the replication wire and durable codecs
//! (PR 9): [`RepMsg`], [`LeaseSnapshot`], and [`DurableState`] round-trip
//! bit-exactly, reject trailing bytes, and fail loudly on truncation —
//! the registrar's "disk" format and peer protocol share the discovery
//! codec's discipline (big-endian, length-prefixed, version-tagged, no
//! silent misparsing).

use aroma_discovery::codec::{ServiceId, ServiceItem};
use aroma_discovery::replication::{DurableState, LogEntry, RepMsg, RepOp};
use aroma_discovery::snapshot::{LeaseSnapshot, SNAPSHOT_VERSION};
use aroma_sim::SimTime;
use bytes::Bytes;
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_-]{0,16}"
}

fn arb_item() -> impl Strategy<Value = ServiceItem> {
    (
        any::<u64>(),
        arb_string(),
        prop::collection::vec((arb_string(), arb_string()), 0..3),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..32),
    )
        .prop_map(|(id, kind, attributes, provider, proxy)| ServiceItem {
            id: ServiceId(id),
            kind,
            attributes,
            provider,
            proxy: Bytes::from(proxy),
        })
}

fn arb_op() -> impl Strategy<Value = RepOp> {
    prop_oneof![
        (arb_item(), any::<u64>()).prop_map(|(item, lease_ms)| RepOp::Register { item, lease_ms }),
        any::<u64>().prop_map(|id| RepOp::Renew { id: ServiceId(id) }),
        any::<u64>().prop_map(|id| RepOp::Unregister { id: ServiceId(id) }),
        Just(RepOp::Sweep),
    ]
}

fn arb_entry() -> impl Strategy<Value = LogEntry> {
    (any::<u64>(), any::<u64>(), arb_op())
        .prop_map(|(epoch, at_nanos, op)| LogEntry { epoch, at_nanos, op })
}

fn arb_snapshot() -> impl Strategy<Value = LeaseSnapshot> {
    (
        any::<u64>(),
        any::<u64>(),
        prop::collection::vec((arb_item(), any::<u64>()), 0..4),
    )
        .prop_map(|(last_index, last_epoch, rows)| LeaseSnapshot {
            last_index,
            last_epoch,
            entries: rows
                .into_iter()
                .map(|(item, t)| (item, SimTime::from_nanos(t)))
                .collect(),
        })
}

fn arb_msg() -> impl Strategy<Value = RepMsg> {
    prop_oneof![
        (
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            any::<u64>(),
            prop::collection::vec(arb_entry(), 0..4)
        )
            .prop_map(|(epoch, prev_index, prev_epoch, commit, sent_nanos, entries)| {
                RepMsg::Append { epoch, prev_index, prev_epoch, commit, sent_nanos, entries }
            }),
        (any::<u64>(), any::<bool>(), any::<u64>(), any::<u64>()).prop_map(
            |(epoch, ok, match_index, heard_nanos)| RepMsg::AppendAck {
                epoch,
                ok,
                match_index,
                heard_nanos
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>()).prop_map(|(epoch, last_index, last_epoch)| {
            RepMsg::VoteReq { epoch, last_index, last_epoch }
        }),
        any::<u64>().prop_map(|epoch| RepMsg::VoteGrant { epoch }),
        (any::<u64>(), any::<u64>(), arb_snapshot()).prop_map(|(epoch, sent_nanos, snapshot)| {
            RepMsg::SnapshotInstall { epoch, sent_nanos, snapshot }
        }),
    ]
}

fn arb_durable() -> impl Strategy<Value = DurableState> {
    (
        any::<u64>(),
        arb_snapshot(),
        any::<u64>(),
        prop::collection::vec(arb_entry(), 0..4),
    )
        .prop_map(|(epoch, snapshot, log_start, log)| DurableState {
            epoch,
            snapshot,
            log_start,
            log,
        })
}

proptest! {
    /// Every replication message round-trips unchanged.
    #[test]
    fn repmsg_round_trip(msg in arb_msg()) {
        let encoded = msg.encode();
        let decoded = RepMsg::decode(encoded).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// Every snapshot round-trips unchanged — the blob a rejoining replica
    /// installs is exactly the table the primary froze.
    #[test]
    fn snapshot_round_trip(snap in arb_snapshot()) {
        let encoded = snap.encode();
        let decoded = LeaseSnapshot::decode(encoded).expect("decode");
        prop_assert_eq!(decoded, snap);
    }

    /// Every durable blob round-trips unchanged — what a restarted
    /// registrar reads back is exactly what it fsynced.
    #[test]
    fn durable_round_trip(d in arb_durable()) {
        let encoded = d.encode();
        let decoded = DurableState::decode(encoded).expect("decode");
        prop_assert_eq!(decoded, d);
    }

    /// Decoding arbitrary byte soup never panics on any of the three
    /// decoders — it returns Ok or Err.
    #[test]
    fn decode_arbitrary_bytes_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = RepMsg::decode(Bytes::from(bytes.clone()));
        let _ = LeaseSnapshot::decode(Bytes::from(bytes.clone()));
        let _ = DurableState::decode(Bytes::from(bytes));
    }

    /// Every strict prefix of a valid encoding is rejected (no silent
    /// truncation), and extra trailing bytes are an explicit error (no
    /// silent garbage after a valid body).
    #[test]
    fn repmsg_prefixes_and_suffixes_fail(msg in arb_msg()) {
        let encoded = msg.encode();
        for cut in 0..encoded.len() {
            prop_assert!(RepMsg::decode(encoded.slice(0..cut)).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = encoded[..].to_vec();
        padded.push(0);
        prop_assert!(RepMsg::decode(Bytes::from(padded)).is_err());
    }

    /// Same discipline for the snapshot blob.
    #[test]
    fn snapshot_prefixes_and_suffixes_fail(snap in arb_snapshot()) {
        let encoded = snap.encode();
        for cut in 0..encoded.len() {
            prop_assert!(LeaseSnapshot::decode(encoded.slice(0..cut)).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = encoded[..].to_vec();
        padded.push(0);
        prop_assert!(LeaseSnapshot::decode(Bytes::from(padded)).is_err());
    }

    /// Same discipline for the durable blob.
    #[test]
    fn durable_prefixes_and_suffixes_fail(d in arb_durable()) {
        let encoded = d.encode();
        for cut in 0..encoded.len() {
            prop_assert!(DurableState::decode(encoded.slice(0..cut)).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = encoded[..].to_vec();
        padded.push(0);
        prop_assert!(DurableState::decode(Bytes::from(padded)).is_err());
    }

    /// A bumped version byte is an explicit [`BadTag`]-style rejection,
    /// never a misparse: the layout can evolve without silent corruption.
    #[test]
    fn snapshot_version_is_enforced(snap in arb_snapshot()) {
        let mut bytes = snap.encode()[..].to_vec();
        bytes[0] = SNAPSHOT_VERSION + 1;
        prop_assert!(LeaseSnapshot::decode(Bytes::from(bytes)).is_err());
    }

    /// The snapshot/table round trip: restore() rebuilds exactly the rows
    /// capture() froze.
    #[test]
    fn snapshot_restore_matches_capture(snap in arb_snapshot()) {
        use aroma_sim::SimDuration;
        let table = snap.restore(SimDuration::from_secs(10));
        let recaptured = LeaseSnapshot::capture(&table, snap.last_index, snap.last_epoch);
        // capture() emits ServiceId order and last-write-wins on duplicate
        // ids; normalise the input the same way before comparing.
        let mut want: std::collections::BTreeMap<u64, (ServiceItem, SimTime)> =
            Default::default();
        for (item, t) in &snap.entries {
            want.insert(item.id.0, (item.clone(), *t));
        }
        let want: Vec<(ServiceItem, SimTime)> = want.into_values().collect();
        prop_assert_eq!(recaptured.entries, want);
    }
}
