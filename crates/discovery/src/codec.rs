//! Wire format for the discovery protocol.
//!
//! A small, explicit binary codec (length-prefixed strings, fixed-width
//! integers, big-endian; read and written through [`aroma_net::wire`])
//! rather than a serde format: the MAC's MTU matters here — lookup replies
//! are packed until they no longer fit, with a truncation flag, exactly the
//! kind of constraint a 1500-byte frame imposes on a real discovery
//! protocol.

use aroma_net::wire::{self, put_str16, Reader, WireError};
use aroma_net::MTU_BYTES;
use bytes::{BufMut, Bytes, BytesMut};

/// Globally unique service identifier (provider-generated).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ServiceId(pub u64);

/// A registered service: its type, searchable attributes, and an opaque
/// proxy blob (the stand-in for Jini's downloadable proxy object — "mobile
/// code" in the paper's terms).
#[derive(Clone, Debug, PartialEq)]
pub struct ServiceItem {
    /// Identifier.
    pub id: ServiceId,
    /// Service type, e.g. `"projector/display"`.
    pub kind: String,
    /// Searchable key/value attributes.
    pub attributes: Vec<(String, String)>,
    /// Node providing the service (who to talk to after lookup).
    pub provider: u32,
    /// Opaque proxy payload handed to clients.
    pub proxy: Bytes,
}

impl ServiceItem {
    /// Attribute lookup by key.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.attributes
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }
}

/// A lookup template: `kind` must match exactly if present; every listed
/// attribute must be present with the same value.
#[derive(Clone, Debug, PartialEq, Default)]
pub struct Template {
    /// Required service type (`None` = any).
    pub kind: Option<String>,
    /// Required attribute values.
    pub attributes: Vec<(String, String)>,
}

impl Template {
    /// Match-anything template.
    pub fn any() -> Self {
        Template::default()
    }

    /// Template requiring a service type.
    pub fn of_kind(kind: &str) -> Self {
        Template {
            kind: Some(kind.to_string()),
            attributes: Vec::new(),
        }
    }

    /// Add a required attribute.
    pub fn with_attr(mut self, key: &str, value: &str) -> Self {
        self.attributes.push((key.to_string(), value.to_string()));
        self
    }

    /// Does `item` satisfy this template?
    pub fn matches(&self, item: &ServiceItem) -> bool {
        if let Some(k) = &self.kind {
            if *k != item.kind {
                return false;
            }
        }
        self.attributes
            .iter()
            .all(|(k, v)| item.attr(k) == Some(v.as_str()))
    }
}

/// Event kinds pushed to subscribers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EventKind {
    /// A matching service appeared.
    Registered,
    /// A matching service's lease lapsed.
    Expired,
    /// A matching service withdrew.
    Unregistered,
    /// A matching service re-registered with *different* content
    /// (attributes, proxy, provider…) — subscribers holding a cached
    /// `ServiceItem` must refresh it. A pure lease refresh (identical
    /// item) emits nothing.
    Updated,
}

/// A discovery-protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum Msg {
    /// Client/provider multicast: "any lookup services out there?"
    DiscoverReq {
        /// Matches responses to requests.
        nonce: u64,
    },
    /// Registrar's unicast answer.
    DiscoverResp {
        /// Echoed nonce.
        nonce: u64,
    },
    /// Provider registers (or re-registers) a service.
    Register {
        /// The service.
        item: ServiceItem,
        /// Requested lease, milliseconds.
        lease_ms: u64,
    },
    /// Registrar confirms a registration.
    RegisterAck {
        /// The service id registered.
        id: ServiceId,
        /// Granted lease, milliseconds (≤ requested).
        granted_ms: u64,
    },
    /// Provider renews a lease.
    Renew {
        /// The service id.
        id: ServiceId,
    },
    /// Registrar answers a renewal.
    RenewAck {
        /// The service id.
        id: ServiceId,
        /// False if the registration is unknown (lapsed): re-register.
        ok: bool,
        /// New lease if `ok`, milliseconds.
        granted_ms: u64,
    },
    /// Provider withdraws a service.
    Unregister {
        /// The service id.
        id: ServiceId,
    },
    /// Client queries for matching services.
    Lookup {
        /// Matches replies to queries.
        req: u64,
        /// What to match.
        template: Template,
    },
    /// Registrar's reply (possibly truncated to fit the MTU).
    LookupReply {
        /// Echoed request id.
        req: u64,
        /// Matching services (MTU-bounded prefix).
        items: Vec<ServiceItem>,
        /// True if more matches existed than fit.
        truncated: bool,
    },
    /// Client subscribes to events matching a template.
    Subscribe {
        /// What to watch.
        template: Template,
    },
    /// Registrar pushes an event to a subscriber.
    Event {
        /// What happened.
        kind: EventKind,
        /// To which service.
        item: ServiceItem,
    },
}

/// Protocol discriminator: first byte of every discovery message, so apps
/// multiplexing several protocols on one node can route unambiguously.
pub const PROTO_DISCOVERY: u8 = 0xD1;

const TAG_DISCOVER_REQ: u8 = 1;
const TAG_DISCOVER_RESP: u8 = 2;
const TAG_REGISTER: u8 = 3;
const TAG_REGISTER_ACK: u8 = 4;
const TAG_RENEW: u8 = 5;
const TAG_RENEW_ACK: u8 = 6;
const TAG_UNREGISTER: u8 = 7;
const TAG_LOOKUP: u8 = 8;
const TAG_LOOKUP_REPLY: u8 = 9;
const TAG_SUBSCRIBE: u8 = 10;
const TAG_EVENT: u8 = 11;

/// Smallest encoding of a [`ServiceItem`]: id, empty kind, no
/// attributes, provider, empty proxy.
pub(crate) const MIN_ITEM_LEN: usize = 8 + 2 + 2 + 4 + 2;

pub(crate) fn put_item(buf: &mut impl BufMut, item: &ServiceItem) {
    buf.put_u64(item.id.0);
    put_str16(buf, &item.kind);
    put_attributes(buf, &item.attributes);
    buf.put_u32(item.provider);
    buf.put_u16(wire::prefix(item.proxy.len()));
    buf.put_slice(&item.proxy);
}

pub(crate) fn get_item(r: &mut Reader) -> Result<ServiceItem, WireError> {
    Ok(ServiceItem {
        id: ServiceId(r.u64()?),
        kind: r.str16()?,
        attributes: get_attributes(r)?,
        provider: r.u32()?,
        proxy: r.bytes16()?,
    })
}

fn put_template(buf: &mut impl BufMut, t: &Template) {
    match &t.kind {
        Some(k) => {
            buf.put_u8(1);
            put_str16(buf, k);
        }
        None => buf.put_u8(0),
    }
    put_attributes(buf, &t.attributes);
}

fn get_template(r: &mut Reader) -> Result<Template, WireError> {
    let kind = match r.u8()? {
        0 => None,
        1 => Some(r.str16()?),
        flag => return Err(WireError::BadTag(flag)),
    };
    Ok(Template {
        kind,
        attributes: get_attributes(r)?,
    })
}

/// A u16-counted list of key/value string pairs.
fn put_attributes(buf: &mut impl BufMut, attributes: &[(String, String)]) {
    buf.put_u16(wire::prefix(attributes.len()));
    for (k, v) in attributes {
        put_str16(buf, k);
        put_str16(buf, v);
    }
}

/// A u16-counted list of key/value string pairs; a pair takes at least
/// its two u16 length prefixes.
fn get_attributes(r: &mut Reader) -> Result<Vec<(String, String)>, WireError> {
    let n = r.u16()? as usize;
    let mut attributes = Vec::with_capacity(r.capacity(n, 4));
    for _ in 0..n {
        attributes.push((r.str16()?, r.str16()?));
    }
    Ok(attributes)
}

/// Encode the [`Msg::LookupReply`] to `req` that carries the longest
/// prefix of `matches` fitting one [`MTU_BYTES`] frame: items are taken
/// in order until the first one that does not fit, and `truncated` is set
/// when any match was left out. Each item is encoded once, straight into
/// the frame. Returns the wire bytes and how many items they carry.
pub fn pack_lookup_reply(req: u64, matches: &[&ServiceItem]) -> (Bytes, usize) {
    let mut buf = Vec::with_capacity(MTU_BYTES);
    buf.put_u8(PROTO_DISCOVERY);
    buf.put_u8(TAG_LOOKUP_REPLY);
    buf.put_u64(req);
    let header = buf.len();
    buf.put_u8(0); // truncated flag, set below
    buf.put_u16(0); // item count, set below
    let mut packed = 0;
    for item in matches {
        let end = buf.len();
        put_item(&mut buf, item);
        if buf.len() > MTU_BYTES {
            buf.truncate(end);
            break;
        }
        packed += 1;
    }
    buf[header] = (packed < matches.len()) as u8;
    buf[header + 1..header + 3].copy_from_slice(&wire::prefix::<u16>(packed).to_be_bytes());
    (Bytes::from(buf), packed)
}

impl Msg {
    /// Encode to wire bytes (prefixed with [`PROTO_DISCOVERY`]).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(64);
        buf.put_u8(PROTO_DISCOVERY);
        match self {
            Msg::DiscoverReq { nonce } => {
                buf.put_u8(TAG_DISCOVER_REQ);
                buf.put_u64(*nonce);
            }
            Msg::DiscoverResp { nonce } => {
                buf.put_u8(TAG_DISCOVER_RESP);
                buf.put_u64(*nonce);
            }
            Msg::Register { item, lease_ms } => {
                buf.put_u8(TAG_REGISTER);
                buf.put_u64(*lease_ms);
                put_item(&mut buf, item);
            }
            Msg::RegisterAck { id, granted_ms } => {
                buf.put_u8(TAG_REGISTER_ACK);
                buf.put_u64(id.0);
                buf.put_u64(*granted_ms);
            }
            Msg::Renew { id } => {
                buf.put_u8(TAG_RENEW);
                buf.put_u64(id.0);
            }
            Msg::RenewAck {
                id,
                ok,
                granted_ms,
            } => {
                buf.put_u8(TAG_RENEW_ACK);
                buf.put_u64(id.0);
                buf.put_u8(*ok as u8);
                buf.put_u64(*granted_ms);
            }
            Msg::Unregister { id } => {
                buf.put_u8(TAG_UNREGISTER);
                buf.put_u64(id.0);
            }
            Msg::Lookup { req, template } => {
                buf.put_u8(TAG_LOOKUP);
                buf.put_u64(*req);
                put_template(&mut buf, template);
            }
            Msg::LookupReply {
                req,
                items,
                truncated,
            } => {
                buf.put_u8(TAG_LOOKUP_REPLY);
                buf.put_u64(*req);
                buf.put_u8(*truncated as u8);
                buf.put_u16(wire::prefix(items.len()));
                for item in items {
                    put_item(&mut buf, item);
                }
            }
            Msg::Subscribe { template } => {
                buf.put_u8(TAG_SUBSCRIBE);
                put_template(&mut buf, template);
            }
            Msg::Event { kind, item } => {
                buf.put_u8(TAG_EVENT);
                buf.put_u8(match kind {
                    EventKind::Registered => 0,
                    EventKind::Expired => 1,
                    EventKind::Unregistered => 2,
                    EventKind::Updated => 3,
                });
                put_item(&mut buf, item);
            }
        }
        buf.freeze()
    }

    /// Decode from wire bytes (expects the [`PROTO_DISCOVERY`] prefix).
    pub fn decode(buf: Bytes) -> Result<Msg, WireError> {
        let mut r = Reader::new(buf);
        r.tag(PROTO_DISCOVERY)?;
        let msg = match r.u8()? {
            TAG_DISCOVER_REQ => Msg::DiscoverReq { nonce: r.u64()? },
            TAG_DISCOVER_RESP => Msg::DiscoverResp { nonce: r.u64()? },
            TAG_REGISTER => Msg::Register {
                lease_ms: r.u64()?,
                item: get_item(&mut r)?,
            },
            TAG_REGISTER_ACK => Msg::RegisterAck {
                id: ServiceId(r.u64()?),
                granted_ms: r.u64()?,
            },
            TAG_RENEW => Msg::Renew {
                id: ServiceId(r.u64()?),
            },
            TAG_RENEW_ACK => Msg::RenewAck {
                id: ServiceId(r.u64()?),
                ok: r.u8()? != 0,
                granted_ms: r.u64()?,
            },
            TAG_UNREGISTER => Msg::Unregister {
                id: ServiceId(r.u64()?),
            },
            TAG_LOOKUP => Msg::Lookup {
                req: r.u64()?,
                template: get_template(&mut r)?,
            },
            TAG_LOOKUP_REPLY => {
                let req = r.u64()?;
                let truncated = r.u8()? != 0;
                let n = r.u16()? as usize;
                let mut items = Vec::with_capacity(r.capacity(n, MIN_ITEM_LEN));
                for _ in 0..n {
                    items.push(get_item(&mut r)?);
                }
                Msg::LookupReply {
                    req,
                    items,
                    truncated,
                }
            }
            TAG_SUBSCRIBE => Msg::Subscribe {
                template: get_template(&mut r)?,
            },
            TAG_EVENT => {
                let kind = match r.u8()? {
                    0 => EventKind::Registered,
                    1 => EventKind::Expired,
                    2 => EventKind::Unregistered,
                    3 => EventKind::Updated,
                    t => return Err(WireError::BadTag(t)),
                };
                Msg::Event {
                    kind,
                    item: get_item(&mut r)?,
                }
            }
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn item() -> ServiceItem {
        ServiceItem {
            id: ServiceId(0xDEADBEEF),
            kind: "projector/display".into(),
            attributes: vec![
                ("room".into(), "A-101".into()),
                ("resolution".into(), "1024x768".into()),
            ],
            provider: 7,
            proxy: Bytes::from_static(b"proxy-code"),
        }
    }

    #[test]
    fn all_variants_round_trip() {
        let msgs = vec![
            Msg::DiscoverReq { nonce: 42 },
            Msg::DiscoverResp { nonce: 42 },
            Msg::Register {
                item: item(),
                lease_ms: 30_000,
            },
            Msg::RegisterAck {
                id: ServiceId(1),
                granted_ms: 10_000,
            },
            Msg::Renew { id: ServiceId(9) },
            Msg::RenewAck {
                id: ServiceId(9),
                ok: true,
                granted_ms: 10_000,
            },
            Msg::Unregister { id: ServiceId(9) },
            Msg::Lookup {
                req: 5,
                template: Template::of_kind("projector/display").with_attr("room", "A-101"),
            },
            Msg::LookupReply {
                req: 5,
                items: vec![item(), item()],
                truncated: true,
            },
            Msg::Subscribe {
                template: Template::any(),
            },
            Msg::Event {
                kind: EventKind::Expired,
                item: item(),
            },
        ];
        for m in msgs {
            let decoded = Msg::decode(m.encode()).expect("decode");
            assert_eq!(decoded, m);
        }
    }

    #[test]
    fn truncated_buffer_rejected_not_panicking() {
        let full = Msg::Register {
            item: item(),
            lease_ms: 1,
        }
        .encode();
        for cut in 0..full.len() {
            let r = Msg::decode(full.slice(0..cut));
            assert!(r.is_err(), "prefix of {cut} bytes decoded successfully");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let msgs = [
            Msg::DiscoverReq { nonce: 42 },
            Msg::Register {
                item: item(),
                lease_ms: 1,
            },
            Msg::LookupReply {
                req: 5,
                items: vec![item()],
                truncated: false,
            },
        ];
        for m in msgs {
            let mut buf = bytes::BytesMut::new();
            buf.put_slice(&m.encode());
            buf.put_slice(&[0xAA, 0xBB]);
            assert_eq!(
                Msg::decode(buf.freeze()),
                Err(WireError::TrailingBytes { remaining: 2 })
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Msg::decode(Bytes::from_static(&[200, 0, 0])),
            Err(WireError::BadTag(200))
        );
    }

    #[test]
    fn bad_utf8_rejected() {
        // Hand-craft a DiscoverReq-like Register with invalid UTF-8 kind.
        let mut buf = bytes::BytesMut::new();
        buf.put_u8(PROTO_DISCOVERY);
        buf.put_u8(3); // TAG_REGISTER
        buf.put_u64(100); // lease
        buf.put_u64(1); // id
        buf.put_u16(2); // kind length
        buf.put_slice(&[0xFF, 0xFE]); // invalid UTF-8
        assert_eq!(Msg::decode(buf.freeze()), Err(WireError::BadString));
    }

    #[test]
    #[should_panic(expected = "does not fit its length prefix")]
    fn register_with_overlong_proxy_panics() {
        // A u16 proxy prefix cannot count 65,536 bytes; writing it as 0
        // and then the whole body would desynchronise the receiver.
        let mut it = item();
        it.proxy = Bytes::from(vec![0; 65_536]);
        Msg::Register { item: it, lease_ms: 1 }.encode();
    }

    #[test]
    fn template_matching_semantics() {
        let it = item();
        assert!(Template::any().matches(&it));
        assert!(Template::of_kind("projector/display").matches(&it));
        assert!(!Template::of_kind("printer").matches(&it));
        assert!(Template::of_kind("projector/display")
            .with_attr("room", "A-101")
            .matches(&it));
        assert!(!Template::of_kind("projector/display")
            .with_attr("room", "B-202")
            .matches(&it));
        assert!(!Template::any().with_attr("missing", "x").matches(&it));
    }

    #[test]
    fn attr_lookup() {
        let it = item();
        assert_eq!(it.attr("room"), Some("A-101"));
        assert_eq!(it.attr("nope"), None);
    }

    #[test]
    fn template_kind_flag_other_than_0_or_1_rejected() {
        for flag in 2..=u8::MAX {
            let mut buf = BytesMut::new();
            buf.put_u8(PROTO_DISCOVERY);
            buf.put_u8(TAG_LOOKUP);
            buf.put_u64(5);
            buf.put_u8(flag);
            buf.put_u16(0); // no attributes
            assert_eq!(Msg::decode(buf.freeze()), Err(WireError::BadTag(flag)));
        }
    }

    /// The packing loop both registrars ran before [`pack_lookup_reply`]:
    /// re-encode the whole reply after each added item, and drop the item
    /// that first pushes it past the MTU.
    fn reference_reply(req: u64, matches: &[&ServiceItem]) -> Msg {
        let mut items: Vec<ServiceItem> = Vec::new();
        for item in matches {
            items.push((*item).clone());
            let candidate = Msg::LookupReply {
                req,
                items: items.clone(),
                truncated: false,
            };
            if candidate.encode().len() > MTU_BYTES {
                items.pop();
                break;
            }
        }
        let truncated = items.len() < matches.len();
        Msg::LookupReply {
            req,
            items,
            truncated,
        }
    }

    fn sized_item(id: u64, kind_len: usize, attrs: usize, proxy_len: usize) -> ServiceItem {
        ServiceItem {
            id: ServiceId(id),
            kind: "k".repeat(kind_len),
            attributes: (0..attrs).map(|a| (format!("a{a}"), "v".repeat(a * 7))).collect(),
            provider: id as u32,
            proxy: Bytes::from(vec![id as u8; proxy_len]),
        }
    }

    fn item_len(item: &ServiceItem) -> usize {
        let mut buf = BytesMut::new();
        put_item(&mut buf, item);
        buf.len()
    }

    use proptest::prelude::*;

    proptest! {
        /// `pack_lookup_reply` emits the reference loop's bytes. `fit`
        /// picks the case: 0 leaves the random sizes alone, 1 resizes the
        /// first item that does not fit so the reply lands exactly on
        /// `MTU_BYTES`, 2 makes that item overshoot by a single byte.
        #[test]
        fn lookup_reply_packing_matches_the_old_loop(
            sizes in prop::collection::vec((0usize..24, 0usize..4, 0usize..700), 0..12),
            fit in 0u8..3,
            req in any::<u64>()
        ) {
            let mut items: Vec<ServiceItem> = sizes
                .iter()
                .enumerate()
                .map(|(i, &(kind, attrs, proxy))| sized_item(i as u64, kind, attrs, proxy))
                .collect();
            let mut landed = false;
            if fit > 0 {
                let mut used = 13; // proto, tag, req, truncated flag, count
                for item in items.iter_mut() {
                    let len = item_len(item);
                    if used + len > MTU_BYTES {
                        let room = MTU_BYTES - used;
                        let base = len - item.proxy.len();
                        if room >= base {
                            let proxy_len = room - base + (fit == 2) as usize;
                            item.proxy = Bytes::from(vec![7; proxy_len]);
                            landed = fit == 1;
                        }
                        break;
                    }
                    used += len;
                }
            }
            let matches: Vec<&ServiceItem> = items.iter().collect();
            let (wire, packed) = pack_lookup_reply(req, &matches);
            let reference = reference_reply(req, &matches);
            prop_assert_eq!(&wire, &reference.encode());
            let Msg::LookupReply { items: kept, .. } = &reference else { unreachable!() };
            prop_assert_eq!(packed, kept.len());
            if landed {
                prop_assert_eq!(wire.len(), MTU_BYTES);
            }
        }
    }
}
