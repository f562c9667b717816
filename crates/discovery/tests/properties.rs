//! Property-based tests for the discovery codec and registry.

use aroma_discovery::codec::{EventKind, Msg, ServiceId, ServiceItem, Template};
use aroma_discovery::registry::ServiceRegistry;
use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use proptest::prelude::*;

fn arb_string() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9/_-]{0,24}"
}

fn arb_item() -> impl Strategy<Value = ServiceItem> {
    (
        any::<u64>(),
        arb_string(),
        prop::collection::vec((arb_string(), arb_string()), 0..5),
        any::<u32>(),
        prop::collection::vec(any::<u8>(), 0..64),
    )
        .prop_map(|(id, kind, attributes, provider, proxy)| ServiceItem {
            id: ServiceId(id),
            kind,
            attributes,
            provider,
            proxy: Bytes::from(proxy),
        })
}

fn arb_template() -> impl Strategy<Value = Template> {
    (
        prop::option::of(arb_string()),
        prop::collection::vec((arb_string(), arb_string()), 0..4),
    )
        .prop_map(|(kind, attributes)| Template { kind, attributes })
}

fn arb_msg() -> impl Strategy<Value = Msg> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| Msg::DiscoverReq { nonce }),
        any::<u64>().prop_map(|nonce| Msg::DiscoverResp { nonce }),
        (arb_item(), any::<u64>()).prop_map(|(item, lease_ms)| Msg::Register { item, lease_ms }),
        (any::<u64>(), any::<u64>()).prop_map(|(id, granted_ms)| Msg::RegisterAck {
            id: ServiceId(id),
            granted_ms
        }),
        any::<u64>().prop_map(|id| Msg::Renew { id: ServiceId(id) }),
        (any::<u64>(), any::<bool>(), any::<u64>()).prop_map(|(id, ok, granted_ms)| {
            Msg::RenewAck {
                id: ServiceId(id),
                ok,
                granted_ms,
            }
        }),
        any::<u64>().prop_map(|id| Msg::Unregister { id: ServiceId(id) }),
        (any::<u64>(), arb_template()).prop_map(|(req, template)| Msg::Lookup { req, template }),
        (
            any::<u64>(),
            prop::collection::vec(arb_item(), 0..4),
            any::<bool>()
        )
            .prop_map(|(req, items, truncated)| Msg::LookupReply {
                req,
                items,
                truncated
            }),
        arb_template().prop_map(|template| Msg::Subscribe { template }),
        (prop_oneof![
            Just(EventKind::Registered),
            Just(EventKind::Expired),
            Just(EventKind::Unregistered)
        ], arb_item())
            .prop_map(|(kind, item)| Msg::Event { kind, item }),
    ]
}

proptest! {
    /// Every message round-trips through the codec unchanged.
    #[test]
    fn codec_round_trip(msg in arb_msg()) {
        let encoded = msg.encode();
        let decoded = Msg::decode(encoded).expect("decode");
        prop_assert_eq!(decoded, msg);
    }

    /// Decoding any byte soup never panics — it returns Ok or Err.
    #[test]
    fn decode_arbitrary_bytes_is_total(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = Msg::decode(Bytes::from(bytes));
    }

    /// Every strict prefix of a valid encoding is rejected (no silent
    /// truncation), and so is the encoding with one byte appended (no
    /// silent garbage after a valid body).
    #[test]
    fn codec_prefixes_fail(msg in arb_msg(), extra in any::<u8>()) {
        let encoded = msg.encode();
        for cut in 0..encoded.len() {
            prop_assert!(Msg::decode(encoded.slice(0..cut)).is_err(), "prefix {} decoded", cut);
        }
        let mut padded = encoded[..].to_vec();
        padded.push(extra);
        prop_assert!(Msg::decode(Bytes::from(padded)).is_err());
    }

    /// Registry: a registration is visible until its lease lapses and
    /// invisible afterwards.
    #[test]
    fn registry_lease_lifecycle(item in arb_item(), lease_ms in 1u64..10_000, probe_ms in 0u64..20_000) {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(3600));
        let t0 = SimTime::ZERO;
        r.register(t0, item.clone(), SimDuration::from_millis(lease_ms));
        let probe = t0 + SimDuration::from_millis(probe_ms);
        r.expire(probe);
        let visible = r.lookup(&Template::any()).iter().any(|i| i.id == item.id);
        prop_assert_eq!(visible, probe_ms < lease_ms);
    }

    /// Registry lookups never return non-matching items.
    #[test]
    fn registry_lookup_sound(items in prop::collection::vec(arb_item(), 1..10), template in arb_template()) {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        for it in &items {
            r.register(SimTime::ZERO, it.clone(), SimDuration::from_secs(5));
        }
        for found in r.lookup(&template) {
            prop_assert!(template.matches(found));
        }
        // And complete: every matching registered item appears (modulo
        // duplicate ids, where the last write wins).
        let found_ids: Vec<u64> = r.lookup(&template).iter().map(|i| i.id.0).collect();
        for it in &items {
            let last_with_id = items.iter().rev().find(|j| j.id == it.id).unwrap();
            if template.matches(last_with_id) {
                prop_assert!(found_ids.contains(&it.id.0));
            }
        }
    }
}
