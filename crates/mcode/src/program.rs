//! Validated program container and its wire format.
//!
//! Programs arriving over the network (as service-proxy blobs) are decoded
//! and **validated once**, so the interpreter never needs to re-check jump
//! targets or local indices on the hot path — and malformed mobile code is
//! rejected before it runs at all.

use crate::isa::{DecodeError, Op, MAX_LOCALS};
use bytes::{Buf, BufMut, Bytes, BytesMut};

/// Why a decoded instruction sequence is not a runnable program.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ValidateError {
    /// A jump targets an instruction index ≥ program length.
    JumpOutOfRange {
        /// Instruction index of the offending jump.
        at: usize,
        /// Its target.
        target: u16,
    },
    /// A local slot index ≥ [`MAX_LOCALS`].
    LocalOutOfRange {
        /// Instruction index.
        at: usize,
        /// The slot.
        slot: u8,
    },
    /// The program is empty.
    Empty,
    /// The program exceeds the u16-addressable instruction space.
    TooLong,
}

/// Wire-format or structural failure while accepting foreign code.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProgramError {
    /// Byte-level decode failure.
    Decode(DecodeError),
    /// Structural validation failure.
    Validate(ValidateError),
}

/// A validated, immutable program.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Program {
    ops: Vec<Op>,
}

impl Program {
    /// Validate an instruction sequence into a program.
    pub fn new(ops: Vec<Op>) -> Result<Program, ValidateError> {
        if ops.is_empty() {
            return Err(ValidateError::Empty);
        }
        if ops.len() > u16::MAX as usize {
            return Err(ValidateError::TooLong);
        }
        for (at, op) in ops.iter().enumerate() {
            match *op {
                Op::Jmp(t) | Op::Jz(t) | Op::Jnz(t) if t as usize >= ops.len() => {
                    return Err(ValidateError::JumpOutOfRange { at, target: t });
                }
                Op::Store(slot) | Op::Load(slot) if slot >= MAX_LOCALS => {
                    return Err(ValidateError::LocalOutOfRange { at, slot });
                }
                _ => {}
            }
        }
        Ok(Program { ops })
    }

    /// The instructions.
    pub fn ops(&self) -> &[Op] {
        &self.ops
    }

    /// Number of instructions.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// Always false (validation rejects empty programs); present for API
    /// completeness.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Serialise to proxy bytes (magic + count + ops).
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::with_capacity(4 + self.ops.len() * 3);
        buf.put_u8(0xAC); // "Aroma Code"
        buf.put_u16(self.ops.len() as u16);
        for op in &self.ops {
            op.encode_into(&mut buf);
        }
        buf.freeze()
    }

    /// Decode and validate proxy bytes.
    pub fn decode(mut bytes: Bytes) -> Result<Program, ProgramError> {
        if bytes.remaining() < 3 {
            return Err(ProgramError::Decode(DecodeError::Truncated));
        }
        let magic = bytes.get_u8();
        if magic != 0xAC {
            return Err(ProgramError::Decode(DecodeError::BadOpcode(magic)));
        }
        let n = bytes.get_u16() as usize;
        // Every op takes at least one byte, so the remaining input bounds
        // what a forged count may reserve.
        let mut ops = Vec::with_capacity(n.min(bytes.remaining()));
        for _ in 0..n {
            ops.push(Op::decode_from(&mut bytes).map_err(ProgramError::Decode)?);
        }
        // Foreign code must parse exactly: leftover bytes mean a framing
        // bug or a smuggled payload riding behind the program.
        if bytes.remaining() > 0 {
            return Err(ProgramError::Decode(DecodeError::TrailingBytes {
                remaining: bytes.remaining(),
            }));
        }
        Program::new(ops).map_err(ProgramError::Validate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn valid_program_accepted() {
        let p = Program::new(vec![Op::PushI(1), Op::PushI(2), Op::Add, Op::Halt]).unwrap();
        assert_eq!(p.len(), 4);
        assert!(!p.is_empty());
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(Program::new(vec![]), Err(ValidateError::Empty));
    }

    #[test]
    fn wild_jump_rejected() {
        let e = Program::new(vec![Op::Jmp(5), Op::Halt]).unwrap_err();
        assert_eq!(e, ValidateError::JumpOutOfRange { at: 0, target: 5 });
        // Jump to the last instruction is fine.
        assert!(Program::new(vec![Op::Jmp(1), Op::Halt]).is_ok());
    }

    #[test]
    fn wild_local_rejected() {
        let e = Program::new(vec![Op::Load(MAX_LOCALS), Op::Halt]).unwrap_err();
        assert_eq!(
            e,
            ValidateError::LocalOutOfRange {
                at: 0,
                slot: MAX_LOCALS
            }
        );
        assert!(Program::new(vec![Op::Load(MAX_LOCALS - 1), Op::Halt]).is_ok());
    }

    #[test]
    fn encode_decode_round_trip() {
        let p = Program::new(vec![
            Op::Arg(0),
            Op::PushI(100),
            Op::Mul,
            Op::PushI(255),
            Op::Min,
            Op::Halt,
        ])
        .unwrap();
        let decoded = Program::decode(p.encode()).unwrap();
        assert_eq!(decoded, p);
    }

    #[test]
    fn bad_magic_rejected() {
        let p = Program::new(vec![Op::Halt]).unwrap();
        let mut raw = p.encode().to_vec();
        raw[0] = 0x00;
        assert!(matches!(
            Program::decode(Bytes::from(raw)),
            Err(ProgramError::Decode(DecodeError::BadOpcode(0)))
        ));
    }

    #[test]
    fn truncated_stream_rejected() {
        let p = Program::new(vec![Op::PushI(7), Op::Halt]).unwrap();
        let full = p.encode();
        for cut in 0..full.len() {
            assert!(Program::decode(full.slice(0..cut)).is_err(), "prefix {cut}");
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let p = Program::new(vec![Op::PushI(7), Op::Halt]).unwrap();
        let mut raw = p.encode().to_vec();
        raw.push(0x00);
        assert_eq!(
            Program::decode(Bytes::from(raw)),
            Err(ProgramError::Decode(DecodeError::TrailingBytes {
                remaining: 1
            }))
        );
    }

    #[test]
    fn decoded_programs_are_validated() {
        // Hand-craft bytes containing a wild jump.
        let mut buf = BytesMut::new();
        buf.put_u8(0xAC);
        buf.put_u16(1);
        Op::Jmp(9).encode_into(&mut buf);
        assert!(matches!(
            Program::decode(buf.freeze()),
            Err(ProgramError::Validate(ValidateError::JumpOutOfRange { .. }))
        ));
    }
}
