//! VNC-style wire protocol: client-pull update requests and MTU-sized
//! update chunks.

use aroma_net::wire::{self, Reader, WireError};
use aroma_net::MTU_BYTES;
use bytes::{BufMut, Bytes, BytesMut};

/// Protocol discriminator: first byte of every VNC message, so apps
/// multiplexing several protocols on one node can route unambiguously.
pub const PROTO_VNC: u8 = 0xF8;

const TAG_UPDATE_REQUEST: u8 = 1;
const TAG_UPDATE_CHUNK: u8 = 2;
/// A degraded-mode request (quantised tiles). A separate tag rather than a
/// flag byte so full-quality requests stay byte-identical to the original
/// two-tag protocol.
const TAG_UPDATE_REQUEST_COARSE: u8 = 3;

/// Chunk header: proto(1) + tag(1) + update_id(4) + seq(2) + last(1) + len(4).
const CHUNK_HEADER: usize = 13;

/// Maximum payload carried per chunk frame.
pub const CHUNK_PAYLOAD: usize = MTU_BYTES - CHUNK_HEADER;

/// A VNC protocol message.
#[derive(Clone, Debug, PartialEq)]
pub enum VncMsg {
    /// Viewer asks for a screen update.
    UpdateRequest {
        /// True: only what changed since the last update. False: the full
        /// screen (initial connect or loss recovery).
        incremental: bool,
        /// True: the viewer is in degraded mode and accepts quantised
        /// (coarser-colour) tiles in exchange for a smaller stream.
        coarse: bool,
    },
    /// One fragment of a screen update.
    UpdateChunk {
        /// Update this chunk belongs to.
        update_id: u32,
        /// Position within the update (0-based, contiguous).
        seq: u16,
        /// True on the final chunk.
        last: bool,
        /// Slice of the update's tile stream.
        payload: Bytes,
    },
}

impl VncMsg {
    /// Encode to wire bytes.
    pub fn encode(&self) -> Bytes {
        match self {
            VncMsg::UpdateRequest {
                incremental,
                coarse,
            } => {
                let mut b = BytesMut::with_capacity(3);
                b.put_u8(PROTO_VNC);
                b.put_u8(if *coarse {
                    TAG_UPDATE_REQUEST_COARSE
                } else {
                    TAG_UPDATE_REQUEST
                });
                b.put_u8(*incremental as u8);
                b.freeze()
            }
            VncMsg::UpdateChunk {
                update_id,
                seq,
                last,
                payload,
            } => {
                let mut b = BytesMut::with_capacity(CHUNK_HEADER + payload.len());
                b.put_u8(PROTO_VNC);
                b.put_u8(TAG_UPDATE_CHUNK);
                b.put_u32(*update_id);
                b.put_u16(*seq);
                b.put_u8(*last as u8);
                b.put_u32(wire::prefix(payload.len()));
                b.put_slice(payload);
                b.freeze()
            }
        }
    }

    /// Decode from wire bytes (expects the [`PROTO_VNC`] prefix).
    pub fn decode(buf: Bytes) -> Result<VncMsg, WireError> {
        let mut r = Reader::new(buf);
        r.tag(PROTO_VNC)?;
        let msg = match r.u8()? {
            tag @ (TAG_UPDATE_REQUEST | TAG_UPDATE_REQUEST_COARSE) => VncMsg::UpdateRequest {
                incremental: r.u8()? != 0,
                coarse: tag == TAG_UPDATE_REQUEST_COARSE,
            },
            TAG_UPDATE_CHUNK => VncMsg::UpdateChunk {
                update_id: r.u32()?,
                seq: r.u16()?,
                last: r.u8()? != 0,
                payload: r.bytes32()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

/// Split an update's tile stream into MTU-sized chunks. Always yields at
/// least one chunk (an empty update still answers the request).
pub fn chunk_update(update_id: u32, stream: Bytes) -> Vec<VncMsg> {
    let mut chunks = Vec::with_capacity(stream.len() / CHUNK_PAYLOAD + 1);
    let total = stream.len();
    let mut offset = 0usize;
    let mut seq: u16 = 0;
    loop {
        let end = (offset + CHUNK_PAYLOAD).min(total);
        let last = end == total;
        chunks.push(VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload: stream.slice(offset..end),
        });
        if last {
            break;
        }
        offset = end;
        seq = seq.checked_add(1).expect("update too large for u16 chunks");
    }
    chunks
}

/// Encode an update's full chunk sequence as ready-to-send wire frames in
/// **one allocation**: every returned `Bytes` is a refcounted view into a
/// single buffer, byte-identical to encoding each [`chunk_update`] message
/// with [`VncMsg::encode`]. This is the broadcast fan-out's hot path — the
/// frames are encoded once, then cloned (a refcount bump) into every
/// viewer's queue. Frames are appended to `out` (recycle the `Vec` across
/// updates); always at least one frame, like [`chunk_update`].
pub fn encode_chunk_frames_into(update_id: u32, stream: &[u8], out: &mut Vec<Bytes>) {
    let total = stream.len();
    let n_frames = if total == 0 { 1 } else { total.div_ceil(CHUNK_PAYLOAD) };
    assert!(n_frames - 1 <= u16::MAX as usize, "update too large for u16 chunks");
    let mut buf = BytesMut::with_capacity(n_frames * CHUNK_HEADER + total);
    let mut offset = 0usize;
    let mut seq: u16 = 0;
    loop {
        let end = (offset + CHUNK_PAYLOAD).min(total);
        let last = end == total;
        buf.put_u8(PROTO_VNC);
        buf.put_u8(TAG_UPDATE_CHUNK);
        buf.put_u32(update_id);
        buf.put_u16(seq);
        buf.put_u8(last as u8);
        buf.put_u32(wire::prefix(end - offset));
        buf.put_slice(&stream[offset..end]);
        if last {
            break;
        }
        offset = end;
        seq += 1;
    }
    let frozen = buf.freeze();
    out.reserve(n_frames);
    let mut at = 0usize;
    offset = 0;
    loop {
        let end = (offset + CHUNK_PAYLOAD).min(total);
        let frame_len = CHUNK_HEADER + (end - offset);
        out.push(frozen.slice(at..at + frame_len));
        at += frame_len;
        if end == total {
            break;
        }
        offset = end;
    }
}

/// [`encode_chunk_frames_into`] returning a fresh `Vec`.
pub fn encode_chunk_frames(update_id: u32, stream: &[u8]) -> Vec<Bytes> {
    let mut out = Vec::new();
    encode_chunk_frames_into(update_id, stream, &mut out);
    out
}

/// Reassembles chunk payloads back into the update's tile stream.
#[derive(Debug, Default)]
pub struct Reassembler {
    current: Option<(u32, u16, BytesMut)>,
}

/// What [`Reassembler::push`] concluded.
#[derive(Debug, PartialEq)]
pub enum PushResult {
    /// Chunk accepted, update incomplete.
    Incomplete,
    /// Update complete: here is its tile stream.
    Complete(Bytes),
    /// Chunk did not fit the expected sequence; state reset. The caller
    /// should re-request a full update.
    Gap,
}

impl Reassembler {
    /// Fresh reassembler.
    pub fn new() -> Self {
        Reassembler::default()
    }

    /// Feed one chunk.
    pub fn push(&mut self, update_id: u32, seq: u16, last: bool, payload: &Bytes) -> PushResult {
        if let Some((id, next_seq, buf)) = &mut self.current {
            if *id == update_id && seq == *next_seq {
                buf.extend_from_slice(payload);
                *next_seq += 1;
                return if last {
                    let (_, _, buf) = self.current.take().unwrap();
                    PushResult::Complete(buf.freeze())
                } else {
                    PushResult::Incomplete
                };
            }
            // The pending partial is stale. A seq-0 chunk of a *different*
            // update is the clean start of the next update — restart with
            // it below rather than discarding it, which would cost the
            // viewer a full re-request round-trip after every mid-update
            // loss. Anything else is an unrecoverable gap.
            let fresh_start = *id != update_id && seq == 0;
            self.current = None;
            if !fresh_start {
                return PushResult::Gap;
            }
        } else if seq != 0 {
            return PushResult::Gap; // joined mid-update
        }
        if last {
            return PushResult::Complete(payload.clone());
        }
        let mut buf = BytesMut::with_capacity(payload.len() * 4);
        buf.extend_from_slice(payload);
        self.current = Some((update_id, 1, buf));
        PushResult::Incomplete
    }

    /// Drop any partial update (loss recovery).
    pub fn reset(&mut self) {
        self.current = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_round_trip() {
        for inc in [true, false] {
            for coarse in [true, false] {
                let m = VncMsg::UpdateRequest {
                    incremental: inc,
                    coarse,
                };
                assert_eq!(VncMsg::decode(m.encode()).unwrap(), m);
            }
        }
    }

    #[test]
    fn full_quality_request_wire_bytes_are_unchanged() {
        // The coarse flag must not perturb the original two-tag protocol:
        // a full-quality request still encodes to the exact pre-degradation
        // bytes (proto, tag 1, incremental).
        let m = VncMsg::UpdateRequest {
            incremental: true,
            coarse: false,
        };
        assert_eq!(&m.encode()[..], &[PROTO_VNC, 1, 1]);
    }

    #[test]
    fn chunk_round_trip() {
        let m = VncMsg::UpdateChunk {
            update_id: 77,
            seq: 3,
            last: true,
            payload: Bytes::from_static(b"pixels"),
        };
        assert_eq!(VncMsg::decode(m.encode()).unwrap(), m);
    }

    #[test]
    fn chunks_respect_mtu() {
        let stream = Bytes::from(vec![9u8; CHUNK_PAYLOAD * 3 + 100]);
        let chunks = chunk_update(1, stream.clone());
        assert_eq!(chunks.len(), 4);
        let mut total = 0usize;
        for (i, c) in chunks.iter().enumerate() {
            let encoded = c.encode();
            assert!(encoded.len() <= MTU_BYTES, "chunk {i} too big");
            if let VncMsg::UpdateChunk { seq, payload, last, .. } = c {
                assert_eq!(*seq as usize, i);
                assert_eq!(*last, i == 3);
                total += payload.len();
            }
        }
        assert_eq!(total, stream.len());
    }

    #[test]
    fn empty_update_is_one_last_chunk() {
        let chunks = chunk_update(5, Bytes::new());
        assert_eq!(chunks.len(), 1);
        assert!(matches!(
            &chunks[0],
            VncMsg::UpdateChunk { last: true, payload, .. } if payload.is_empty()
        ));
    }

    #[test]
    fn reassembly_round_trip() {
        let stream = Bytes::from((0..10_000u32).map(|i| i as u8).collect::<Vec<_>>());
        let chunks = chunk_update(9, stream.clone());
        let mut r = Reassembler::new();
        let mut out = None;
        for c in &chunks {
            if let VncMsg::UpdateChunk {
                update_id,
                seq,
                last,
                payload,
            } = c
            {
                match r.push(*update_id, *seq, *last, payload) {
                    PushResult::Complete(b) => out = Some(b),
                    PushResult::Incomplete => {}
                    PushResult::Gap => panic!("unexpected gap"),
                }
            }
        }
        assert_eq!(out.unwrap(), stream);
    }

    #[test]
    fn reassembly_detects_gap_and_resets() {
        let stream = Bytes::from(vec![1u8; CHUNK_PAYLOAD * 3]);
        let chunks = chunk_update(4, stream);
        let mut r = Reassembler::new();
        // Push chunk 0 then skip to chunk 2.
        let (c0, c2) = (&chunks[0], &chunks[2]);
        if let VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload,
        } = c0
        {
            assert_eq!(r.push(*update_id, *seq, *last, payload), PushResult::Incomplete);
        }
        if let VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload,
        } = c2
        {
            assert_eq!(r.push(*update_id, *seq, *last, payload), PushResult::Gap);
        }
        // After a gap the reassembler accepts a fresh update from seq 0.
        if let VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload,
        } = c0
        {
            assert_eq!(r.push(*update_id, *seq, *last, payload), PushResult::Incomplete);
        }
    }

    #[test]
    fn loss_then_new_update_restarts_reassembly() {
        // Mid-update loss: chunks 1.. of update 7 never arrive, then the
        // server moves on to update 8. Its seq-0 chunk must restart
        // reassembly (not be discarded as a Gap) so update 8 completes
        // without an extra full-update round-trip.
        let stream7 = Bytes::from(vec![7u8; CHUNK_PAYLOAD * 3]);
        let stream8 = Bytes::from(vec![8u8; CHUNK_PAYLOAD + 10]);
        let chunks7 = chunk_update(7, stream7);
        let chunks8 = chunk_update(8, stream8.clone());
        let mut r = Reassembler::new();
        if let VncMsg::UpdateChunk {
            update_id,
            seq,
            last,
            payload,
        } = &chunks7[0]
        {
            assert_eq!(r.push(*update_id, *seq, *last, payload), PushResult::Incomplete);
        }
        // chunks7[1..] lost; update 8 starts.
        let mut out = None;
        for c in &chunks8 {
            if let VncMsg::UpdateChunk {
                update_id,
                seq,
                last,
                payload,
            } = c
            {
                match r.push(*update_id, *seq, *last, payload) {
                    PushResult::Complete(b) => out = Some(b),
                    PushResult::Incomplete => {}
                    PushResult::Gap => panic!("fresh seq-0 chunk must not be a gap"),
                }
            }
        }
        assert_eq!(out.unwrap(), stream8);
    }

    #[test]
    fn single_chunk_new_update_completes_over_stale_partial() {
        let mut r = Reassembler::new();
        assert_eq!(
            r.push(1, 0, false, &Bytes::from_static(b"old")),
            PushResult::Incomplete
        );
        assert_eq!(
            r.push(2, 0, true, &Bytes::from_static(b"new")),
            PushResult::Complete(Bytes::from_static(b"new"))
        );
    }

    #[test]
    fn joining_mid_update_is_a_gap() {
        let mut r = Reassembler::new();
        assert_eq!(
            r.push(1, 5, false, &Bytes::from_static(b"x")),
            PushResult::Gap
        );
    }

    #[test]
    fn encoded_chunk_frames_match_the_per_chunk_path() {
        // The one-allocation frame encoder must be byte-identical to
        // chunk_update + per-message encode, across the size edge cases:
        // empty, sub-chunk, exact multiple, and multi-chunk with remainder.
        for len in [
            0usize,
            1,
            CHUNK_PAYLOAD - 1,
            CHUNK_PAYLOAD,
            CHUNK_PAYLOAD * 2,
            CHUNK_PAYLOAD * 3 + 100,
        ] {
            let stream = Bytes::from((0..len).map(|i| i as u8).collect::<Vec<_>>());
            let reference: Vec<Bytes> = chunk_update(77, stream.clone())
                .iter()
                .map(|m| m.encode())
                .collect();
            let frames = encode_chunk_frames(77, &stream);
            assert_eq!(frames, reference, "len {len} diverged");
            // All frames view one shared buffer: zero-copy fan-out works
            // because cloning any of them is a refcount bump, not a copy.
            for f in &frames {
                assert!(f.len() <= MTU_BYTES);
            }
        }
    }

    #[test]
    fn encode_chunk_frames_into_appends_and_recycles() {
        let mut out = Vec::new();
        encode_chunk_frames_into(1, b"abc", &mut out);
        assert_eq!(out.len(), 1);
        out.clear();
        encode_chunk_frames_into(2, &vec![9u8; CHUNK_PAYLOAD + 1], &mut out);
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn reassembler_survives_update_id_wraparound() {
        // Satellite: next_update_id wraps u32::MAX → 0. The reassembler
        // must treat the wrapped id as a fresh update, not a stale one —
        // it compares ids only for equality, never for order, and this
        // test pins that property at the boundary.
        let stream_max = Bytes::from(vec![1u8; CHUNK_PAYLOAD + 7]);
        let stream_zero = Bytes::from(vec![2u8; CHUNK_PAYLOAD + 9]);
        let mut r = Reassembler::new();
        // Complete an update with the largest possible id…
        let mut done = None;
        for c in chunk_update(u32::MAX, stream_max.clone()) {
            if let VncMsg::UpdateChunk { update_id, seq, last, payload } = c {
                if let PushResult::Complete(b) = r.push(update_id, seq, last, &payload) {
                    done = Some(b);
                }
            }
        }
        assert_eq!(done.unwrap(), stream_max);
        // …then the wrapped id 0 must assemble cleanly from seq 0.
        let mut done = None;
        for c in chunk_update(0, stream_zero.clone()) {
            if let VncMsg::UpdateChunk { update_id, seq, last, payload } = c {
                match r.push(update_id, seq, last, &payload) {
                    PushResult::Complete(b) => done = Some(b),
                    PushResult::Incomplete => {}
                    PushResult::Gap => panic!("wrapped update id treated as stale"),
                }
            }
        }
        assert_eq!(done.unwrap(), stream_zero);
    }

    #[test]
    fn wrapped_id_restarts_reassembly_over_a_stale_partial() {
        // Mid-update loss right at the wrap: a partial of update u32::MAX
        // is pending when the wrapped update 0 starts. Its seq-0 chunk
        // must restart reassembly (the fresh-start rule is id-inequality,
        // so it survives the wrap).
        let mut r = Reassembler::new();
        assert_eq!(
            r.push(u32::MAX, 0, false, &Bytes::from_static(b"stale")),
            PushResult::Incomplete
        );
        assert_eq!(
            r.push(0, 0, true, &Bytes::from_static(b"wrapped")),
            PushResult::Complete(Bytes::from_static(b"wrapped"))
        );
    }

    #[test]
    fn decode_rejects_garbage() {
        assert_eq!(
            VncMsg::decode(Bytes::from_static(&[99, 0])),
            Err(WireError::BadTag(99))
        );
        assert_eq!(
            VncMsg::decode(Bytes::from_static(&[PROTO_VNC, 99])),
            Err(WireError::BadTag(99))
        );
        assert_eq!(
            VncMsg::decode(Bytes::new()),
            Err(WireError::Truncated)
        );
        // Truncated chunk length.
        let full = VncMsg::UpdateChunk {
            update_id: 1,
            seq: 0,
            last: true,
            payload: Bytes::from_static(b"abcdef"),
        }
        .encode();
        assert!(VncMsg::decode(full.slice(0..full.len() - 2)).is_err());
    }

    #[test]
    fn decode_rejects_trailing_bytes() {
        for m in [
            VncMsg::UpdateRequest {
                incremental: true,
                coarse: false,
            },
            VncMsg::UpdateRequest {
                incremental: false,
                coarse: true,
            },
            VncMsg::UpdateChunk {
                update_id: 3,
                seq: 1,
                last: false,
                payload: Bytes::from_static(b"tiles"),
            },
        ] {
            let mut b = BytesMut::new();
            b.put_slice(&m.encode());
            b.put_u8(0xAB);
            assert_eq!(
                VncMsg::decode(b.freeze()),
                Err(WireError::TrailingBytes { remaining: 1 })
            );
        }
    }
}
