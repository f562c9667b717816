//! Wire format for the discovery protocol.
//!
//! A small, explicit binary codec (length-prefixed strings, fixed-width
//! integers, big-endian) rather than a serde format: the MAC's MTU matters
//! here — lookup replies are packed until they no longer fit, with a
//! truncation flag, exactly the kind of constraint a 1500-byte frame imposes
//! on a real discovery protocol.

use aroma_net::MTU_BYTES;
use bytes::{Buf, BufMut, Bytes, BytesMut};

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

/// Codec errors.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CodecError {
    /// Buffer ended mid-message.
    Truncated,
    /// Unknown message tag.
    BadTag(u8),
    /// String was not UTF-8.
    BadString,
    /// Bytes remained after a well-formed message — a framing bug or a
    /// smuggled payload; wire messages must parse exactly.
    TrailingBytes {
        /// How many bytes were left over.
        remaining: usize,
    },
}

impl std::fmt::Display for CodecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CodecError::Truncated => write!(f, "message truncated"),
            CodecError::BadTag(t) => write!(f, "unknown message tag {t}"),
            CodecError::BadString => write!(f, "invalid UTF-8 in string"),
            CodecError::TrailingBytes { remaining } => {
                write!(f, "{remaining} trailing bytes after message")
            }
        }
    }
}

impl std::error::Error for CodecError {}

pub(crate) fn put_str(buf: &mut impl BufMut, s: &str) {
    debug_assert!(s.len() <= u16::MAX as usize, "string too long for codec");
    buf.put_u16(s.len() as u16);
    buf.put_slice(s.as_bytes());
}

pub(crate) fn get_str(buf: &mut Bytes) -> Result<String, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    let len = buf.get_u16() as usize;
    if buf.remaining() < len {
        return Err(CodecError::Truncated);
    }
    let raw = buf.split_to(len);
    String::from_utf8(raw.to_vec()).map_err(|_| CodecError::BadString)
}

pub(crate) fn put_item(buf: &mut impl BufMut, item: &ServiceItem) {
    buf.put_u64(item.id.0);
    put_str(buf, &item.kind);
    buf.put_u16(item.attributes.len() as u16);
    for (k, v) in &item.attributes {
        put_str(buf, k);
        put_str(buf, v);
    }
    buf.put_u32(item.provider);
    buf.put_u16(item.proxy.len() as u16);
    buf.put_slice(&item.proxy);
}

pub(crate) fn get_item(buf: &mut Bytes) -> Result<ServiceItem, CodecError> {
    if buf.remaining() < 8 {
        return Err(CodecError::Truncated);
    }
    let id = ServiceId(buf.get_u64());
    let kind = get_str(buf)?;
    let attributes = get_attributes(buf)?;
    if buf.remaining() < 6 {
        return Err(CodecError::Truncated);
    }
    let provider = buf.get_u32();
    let proxy_len = buf.get_u16() as usize;
    if buf.remaining() < proxy_len {
        return Err(CodecError::Truncated);
    }
    let proxy = buf.split_to(proxy_len);
    Ok(ServiceItem {
        id,
        kind,
        attributes,
        provider,
        proxy,
    })
}

pub(crate) fn put_template(buf: &mut BytesMut, t: &Template) {
    match &t.kind {
        Some(k) => {
            buf.put_u8(1);
            put_str(buf, k);
        }
        None => buf.put_u8(0),
    }
    buf.put_u16(t.attributes.len() as u16);
    for (k, v) in &t.attributes {
        put_str(buf, k);
        put_str(buf, v);
    }
}

pub(crate) fn get_template(buf: &mut Bytes) -> Result<Template, CodecError> {
    if buf.remaining() < 1 {
        return Err(CodecError::Truncated);
    }
    let kind = match buf.get_u8() {
        0 => None,
        1 => Some(get_str(buf)?),
        flag => return Err(CodecError::BadTag(flag)),
    };
    let attributes = get_attributes(buf)?;
    Ok(Template { kind, attributes })
}

/// A u16-counted list of key/value string pairs. The reservation is
/// bounded by what the remaining bytes can hold (a pair takes at least
/// two u16 length prefixes), so a forged count cannot make a short
/// message allocate for 65,535 pairs.
fn get_attributes(buf: &mut Bytes) -> Result<Vec<(String, String)>, CodecError> {
    if buf.remaining() < 2 {
        return Err(CodecError::Truncated);
    }
    let n = buf.get_u16() as usize;
    let mut attributes = Vec::with_capacity(n.min(buf.remaining() / 4));
    for _ in 0..n {
        let k = get_str(buf)?;
        let v = get_str(buf)?;
        attributes.push((k, v));
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
    buf[header + 1..header + 3].copy_from_slice(&(packed as u16).to_be_bytes());
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
                buf.put_u16(items.len() as u16);
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
    pub fn decode(mut buf: Bytes) -> Result<Msg, CodecError> {
        if buf.remaining() < 2 {
            return Err(CodecError::Truncated);
        }
        let proto = buf.get_u8();
        if proto != PROTO_DISCOVERY {
            return Err(CodecError::BadTag(proto));
        }
        let tag = buf.get_u8();
        let need_u64 = |buf: &mut Bytes| -> Result<u64, CodecError> {
            if buf.remaining() < 8 {
                Err(CodecError::Truncated)
            } else {
                Ok(buf.get_u64())
            }
        };
        let msg = match tag {
            TAG_DISCOVER_REQ => Ok(Msg::DiscoverReq {
                nonce: need_u64(&mut buf)?,
            }),
            TAG_DISCOVER_RESP => Ok(Msg::DiscoverResp {
                nonce: need_u64(&mut buf)?,
            }),
            TAG_REGISTER => {
                let lease_ms = need_u64(&mut buf)?;
                let item = get_item(&mut buf)?;
                Ok(Msg::Register { item, lease_ms })
            }
            TAG_REGISTER_ACK => Ok(Msg::RegisterAck {
                id: ServiceId(need_u64(&mut buf)?),
                granted_ms: need_u64(&mut buf)?,
            }),
            TAG_RENEW => Ok(Msg::Renew {
                id: ServiceId(need_u64(&mut buf)?),
            }),
            TAG_RENEW_ACK => {
                let id = ServiceId(need_u64(&mut buf)?);
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                let ok = buf.get_u8() != 0;
                let granted_ms = need_u64(&mut buf)?;
                Ok(Msg::RenewAck {
                    id,
                    ok,
                    granted_ms,
                })
            }
            TAG_UNREGISTER => Ok(Msg::Unregister {
                id: ServiceId(need_u64(&mut buf)?),
            }),
            TAG_LOOKUP => {
                let req = need_u64(&mut buf)?;
                let template = get_template(&mut buf)?;
                Ok(Msg::Lookup { req, template })
            }
            TAG_LOOKUP_REPLY => {
                let req = need_u64(&mut buf)?;
                if buf.remaining() < 3 {
                    return Err(CodecError::Truncated);
                }
                let truncated = buf.get_u8() != 0;
                let n = buf.get_u16() as usize;
                let mut items = Vec::with_capacity(n.min(64));
                for _ in 0..n {
                    items.push(get_item(&mut buf)?);
                }
                Ok(Msg::LookupReply {
                    req,
                    items,
                    truncated,
                })
            }
            TAG_SUBSCRIBE => Ok(Msg::Subscribe {
                template: get_template(&mut buf)?,
            }),
            TAG_EVENT => {
                if buf.remaining() < 1 {
                    return Err(CodecError::Truncated);
                }
                let kind = match buf.get_u8() {
                    0 => EventKind::Registered,
                    1 => EventKind::Expired,
                    2 => EventKind::Unregistered,
                    3 => EventKind::Updated,
                    t => return Err(CodecError::BadTag(t)),
                };
                let item = get_item(&mut buf)?;
                Ok(Msg::Event { kind, item })
            }
            t => Err(CodecError::BadTag(t)),
        }?;
        // Wire messages must parse exactly; leftover bytes mean a framing
        // bug or a smuggled payload riding behind the message.
        if buf.remaining() > 0 {
            return Err(CodecError::TrailingBytes {
                remaining: buf.remaining(),
            });
        }
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
                Err(CodecError::TrailingBytes { remaining: 2 })
            );
        }
    }

    #[test]
    fn unknown_tag_rejected() {
        assert_eq!(
            Msg::decode(Bytes::from_static(&[200, 0, 0])),
            Err(CodecError::BadTag(200))
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
        assert_eq!(Msg::decode(buf.freeze()), Err(CodecError::BadString));
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
            assert_eq!(Msg::decode(buf.freeze()), Err(CodecError::BadTag(flag)));
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
