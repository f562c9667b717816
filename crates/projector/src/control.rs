//! Wire protocol for the projector's two guarded services.
//!
//! Clients acquire a session on a service (projection or control), then use
//! it: projection owners stream VNC updates, control owners send projector
//! commands. Replies carry explicit denial reasons so the laptop's workflow
//! (and the experiments) can distinguish "busy" from "bad token".

use aroma_net::wire::{put_str16, Reader, WireError};
use bytes::{BufMut, Bytes, BytesMut};

/// Protocol discriminator for control messages.
pub const PROTO_CONTROL: u8 = 0xC7;

/// Which guarded service a request addresses.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Service {
    /// Remote projection of the laptop display.
    Projection,
    /// Remote control of the projector.
    Control,
}

/// A projector command (the control service's verbs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ProjectorCommand {
    /// Power the lamp on.
    PowerOn,
    /// Power the lamp off.
    PowerOff,
    /// Select the input source (0 = VNC, 1 = VGA, …).
    SelectInput(u8),
    /// Set brightness 0–100.
    Brightness(u8),
}

/// Control-plane messages.
#[derive(Clone, Debug, PartialEq)]
pub enum CtlMsg {
    /// Ask for a session on a service.
    Acquire {
        /// Which service.
        service: Service,
    },
    /// Session granted.
    Granted {
        /// Which service.
        service: Service,
        /// Proof of ownership for subsequent requests.
        token: u64,
    },
    /// Session refused.
    Denied {
        /// Which service.
        service: Service,
        /// Human-readable reason ("busy").
        reason: String,
    },
    /// Give the session back.
    Release {
        /// Which service.
        service: Service,
        /// The token being surrendered.
        token: u64,
    },
    /// A command under the control session.
    Command {
        /// Session proof.
        token: u64,
        /// The command.
        cmd: ProjectorCommand,
    },
    /// Command acknowledged.
    CommandOk,
    /// Command refused (bad/expired token).
    CommandDenied {
        /// Why.
        reason: String,
    },
}

const TAG_ACQUIRE: u8 = 1;
const TAG_GRANTED: u8 = 2;
const TAG_DENIED: u8 = 3;
const TAG_RELEASE: u8 = 4;
const TAG_COMMAND: u8 = 5;
const TAG_COMMAND_OK: u8 = 6;
const TAG_COMMAND_DENIED: u8 = 7;

fn put_service(b: &mut BytesMut, s: Service) {
    b.put_u8(match s {
        Service::Projection => 0,
        Service::Control => 1,
    });
}

fn get_service(r: &mut Reader) -> Result<Service, WireError> {
    match r.u8()? {
        0 => Ok(Service::Projection),
        1 => Ok(Service::Control),
        s => Err(WireError::BadTag(s)),
    }
}

impl CtlMsg {
    /// Encode to wire bytes (prefixed with [`PROTO_CONTROL`]).
    pub fn encode(&self) -> Bytes {
        let mut b = BytesMut::with_capacity(16);
        b.put_u8(PROTO_CONTROL);
        match self {
            CtlMsg::Acquire { service } => {
                b.put_u8(TAG_ACQUIRE);
                put_service(&mut b, *service);
            }
            CtlMsg::Granted { service, token } => {
                b.put_u8(TAG_GRANTED);
                put_service(&mut b, *service);
                b.put_u64(*token);
            }
            CtlMsg::Denied { service, reason } => {
                b.put_u8(TAG_DENIED);
                put_service(&mut b, *service);
                put_str16(&mut b, reason);
            }
            CtlMsg::Release { service, token } => {
                b.put_u8(TAG_RELEASE);
                put_service(&mut b, *service);
                b.put_u64(*token);
            }
            CtlMsg::Command { token, cmd } => {
                b.put_u8(TAG_COMMAND);
                b.put_u64(*token);
                match cmd {
                    ProjectorCommand::PowerOn => b.put_slice(&[0, 0]),
                    ProjectorCommand::PowerOff => b.put_slice(&[1, 0]),
                    ProjectorCommand::SelectInput(i) => b.put_slice(&[2, *i]),
                    ProjectorCommand::Brightness(v) => b.put_slice(&[3, *v]),
                }
            }
            CtlMsg::CommandOk => {
                b.put_u8(TAG_COMMAND_OK);
            }
            CtlMsg::CommandDenied { reason } => {
                b.put_u8(TAG_COMMAND_DENIED);
                put_str16(&mut b, reason);
            }
        }
        b.freeze()
    }

    /// Decode from wire bytes. Strict: a message must fill `b` exactly
    /// (trailing bytes are rejected), and a command without an argument
    /// must carry a zero argument byte.
    pub fn decode(b: Bytes) -> Result<CtlMsg, WireError> {
        let mut r = Reader::new(b);
        r.tag(PROTO_CONTROL)?;
        let msg = match r.u8()? {
            TAG_ACQUIRE => CtlMsg::Acquire {
                service: get_service(&mut r)?,
            },
            TAG_GRANTED => CtlMsg::Granted {
                service: get_service(&mut r)?,
                token: r.u64()?,
            },
            TAG_DENIED => CtlMsg::Denied {
                service: get_service(&mut r)?,
                reason: r.str16()?,
            },
            TAG_RELEASE => CtlMsg::Release {
                service: get_service(&mut r)?,
                token: r.u64()?,
            },
            TAG_COMMAND => {
                let token = r.u64()?;
                let cmd = match (r.u8()?, r.u8()?) {
                    (0, 0) => ProjectorCommand::PowerOn,
                    (1, 0) => ProjectorCommand::PowerOff,
                    (2, arg) => ProjectorCommand::SelectInput(arg),
                    (3, arg) => ProjectorCommand::Brightness(arg),
                    (kind, _) => return Err(WireError::BadTag(kind)),
                };
                CtlMsg::Command { token, cmd }
            }
            TAG_COMMAND_OK => CtlMsg::CommandOk,
            TAG_COMMAND_DENIED => CtlMsg::CommandDenied {
                reason: r.str16()?,
            },
            t => return Err(WireError::BadTag(t)),
        };
        r.finish()?;
        Ok(msg)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_variants() -> Vec<CtlMsg> {
        vec![
            CtlMsg::Acquire {
                service: Service::Projection,
            },
            CtlMsg::Granted {
                service: Service::Control,
                token: 42,
            },
            CtlMsg::Denied {
                service: Service::Projection,
                reason: "busy".into(),
            },
            CtlMsg::Release {
                service: Service::Control,
                token: 42,
            },
            CtlMsg::Command {
                token: 7,
                cmd: ProjectorCommand::Brightness(80),
            },
            CtlMsg::Command {
                token: 7,
                cmd: ProjectorCommand::SelectInput(1),
            },
            CtlMsg::Command {
                token: 7,
                cmd: ProjectorCommand::PowerOn,
            },
            CtlMsg::Command {
                token: 7,
                cmd: ProjectorCommand::PowerOff,
            },
            CtlMsg::CommandOk,
            CtlMsg::CommandDenied {
                reason: "bad token".into(),
            },
        ]
    }

    #[test]
    fn all_variants_round_trip() {
        for m in all_variants() {
            assert_eq!(CtlMsg::decode(m.encode()), Ok(m));
        }
    }

    #[test]
    fn wrong_protocol_byte_rejected() {
        let m = CtlMsg::CommandOk.encode();
        let mut wrong = m.to_vec();
        wrong[0] = 0xD1;
        assert_eq!(CtlMsg::decode(Bytes::from(wrong)), Err(WireError::BadTag(0xD1)));
    }

    #[test]
    fn trailing_bytes_rejected() {
        for m in all_variants() {
            let mut long = m.encode().to_vec();
            long.push(0);
            assert_eq!(
                CtlMsg::decode(Bytes::from(long)),
                Err(WireError::TrailingBytes { remaining: 1 }),
                "{m:?} + 1 byte"
            );
        }
    }

    #[test]
    fn argument_on_argless_command_rejected() {
        for (kind, cmd) in [
            (0u8, ProjectorCommand::PowerOn),
            (1, ProjectorCommand::PowerOff),
        ] {
            let mut wire = CtlMsg::Command { token: 7, cmd }.encode().to_vec();
            assert_eq!(wire[wire.len() - 2..], [kind, 0]);
            *wire.last_mut().expect("command has an argument byte") = 1;
            assert_eq!(
                CtlMsg::decode(Bytes::from(wire)),
                Err(WireError::BadTag(kind)),
                "{cmd:?} with arg 1"
            );
        }
    }

    #[test]
    fn overlong_reason_keeps_prefix_and_body_in_step() {
        // 'é' is two bytes: 40,000 of them straddle the u16 limit mid-char.
        let reason = "é".repeat(40_000);
        let wire = CtlMsg::CommandDenied {
            reason: reason.clone(),
        }
        .encode();
        let Ok(CtlMsg::CommandDenied { reason: got }) = CtlMsg::decode(wire) else {
            panic!("an overlong reason must still encode a decodable message");
        };
        assert_eq!(got.len(), u16::MAX as usize - 1);
        assert!(reason.starts_with(&got));
    }

    #[test]
    fn truncation_rejected() {
        let m = CtlMsg::Granted {
            service: Service::Projection,
            token: 9,
        }
        .encode();
        for cut in 0..m.len() {
            assert!(CtlMsg::decode(m.slice(0..cut)).is_err(), "prefix {cut}");
        }
    }
}
