//! Property-based tests for session objects and the control codec.

use aroma_sim::{SimDuration, SimTime};
use bytes::Bytes;
use proptest::prelude::*;
use smart_projector::control::{CtlMsg, ProjectorCommand, Service};
use smart_projector::session::{SessionManager, SessionPolicy, SessionToken};

#[derive(Clone, Debug)]
enum Op {
    Acquire { user: u64 },
    Release { user: u64 },
    Touch { user: u64 },
    Advance { ms: u64 },
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (0u64..4).prop_map(|user| Op::Acquire { user }),
        (0u64..4).prop_map(|user| Op::Release { user }),
        (0u64..4).prop_map(|user| Op::Touch { user }),
        (1u64..5_000).prop_map(|ms| Op::Advance { ms }),
    ]
}

fn arb_policy() -> impl Strategy<Value = SessionPolicy> {
    prop_oneof![
        Just(SessionPolicy::None),
        Just(SessionPolicy::ManualRelease),
        (500u64..20_000).prop_map(|ms| SessionPolicy::AutoExpire {
            idle: SimDuration::from_millis(ms)
        }),
    ]
}

proptest! {
    /// Under any operation sequence: at most one owner at a time; tokens
    /// held by non-owners never work; with sessions enabled an active
    /// owner is never displaced except by expiry.
    #[test]
    fn session_manager_invariants(policy in arb_policy(), ops in prop::collection::vec(arb_op(), 1..60)) {
        let mut m = SessionManager::new(policy);
        let mut now = SimTime::ZERO;
        // user -> token they most recently got
        let mut tokens: std::collections::HashMap<u64, SessionToken> = Default::default();
        for op in ops {
            match op {
                Op::Advance { ms } => now += SimDuration::from_millis(ms),
                Op::Acquire { user } => {
                    let owner_before = m.owner(now);
                    match m.acquire(user, now) {
                        Ok(tok) => {
                            tokens.insert(user, tok);
                            prop_assert_eq!(m.owner(now), Some(user));
                            // With sessions enabled, a *different* active
                            // owner can never be displaced.
                            if policy != SessionPolicy::None {
                                if let Some(prev) = owner_before {
                                    prop_assert_eq!(prev, user, "hijack under session policy");
                                }
                            }
                        }
                        Err(_) => {
                            prop_assert!(policy != SessionPolicy::None, "None policy never refuses");
                            prop_assert_ne!(m.owner(now), Some(user));
                        }
                    }
                }
                Op::Release { user } => {
                    if let Some(tok) = tokens.get(&user) {
                        let was_owner = m.owner(now) == Some(user);
                        let ok = m.release(*tok, now).is_ok();
                        // A release with the owner's own live token succeeds.
                        prop_assert_eq!(ok, was_owner);
                        if ok {
                            prop_assert_eq!(m.owner(now), None);
                        }
                    }
                }
                Op::Touch { user } => {
                    if let Some(tok) = tokens.get(&user) {
                        let was_owner = m.owner(now) == Some(user);
                        let ok = m.touch(*tok, now).is_ok();
                        prop_assert_eq!(ok, was_owner, "touch must succeed iff live owner");
                    }
                }
            }
            // Global invariant: stats are consistent.
            let s = m.stats;
            prop_assert!(s.releases + s.expirations <= s.acquisitions);
            if policy != SessionPolicy::None {
                prop_assert_eq!(s.hijacks, 0);
            }
        }
    }

    /// Auto-expiry: after advancing past the idle horizon with no activity,
    /// the session is always gone.
    #[test]
    fn auto_expiry_always_frees(idle_ms in 100u64..10_000, extra_ms in 0u64..5_000) {
        let mut m = SessionManager::new(SessionPolicy::AutoExpire {
            idle: SimDuration::from_millis(idle_ms),
        });
        m.acquire(1, SimTime::ZERO).unwrap();
        let probe = SimTime::ZERO + SimDuration::from_millis(idle_ms + extra_ms);
        prop_assert_eq!(m.owner(probe), None);
        prop_assert!(m.acquire(2, probe).is_ok());
    }

    /// Control messages round-trip for arbitrary field values.
    #[test]
    fn control_codec_round_trip(token in any::<u64>(), level in any::<u8>(), reason in "[ -~]{0,40}") {
        let msgs = vec![
            CtlMsg::Granted { service: Service::Projection, token },
            CtlMsg::Denied { service: Service::Control, reason: reason.clone() },
            CtlMsg::Release { service: Service::Projection, token },
            CtlMsg::Command { token, cmd: ProjectorCommand::Brightness(level) },
            CtlMsg::Command { token, cmd: ProjectorCommand::SelectInput(level) },
            CtlMsg::CommandDenied { reason },
        ];
        for m in msgs {
            prop_assert_eq!(CtlMsg::decode(m.encode()), Ok(m));
        }
    }

    /// Decoding arbitrary bytes never panics.
    #[test]
    fn control_decode_total(bytes in prop::collection::vec(any::<u8>(), 0..64)) {
        let _ = CtlMsg::decode(Bytes::from(bytes));
    }
}
