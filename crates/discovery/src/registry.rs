//! The lookup service's state machine, independent of the network.
//!
//! Pure logic: register/renew/expire/unregister with leases, template
//! matching, and subscription bookkeeping. The [`crate::apps::RegistrarApp`]
//! wraps this in protocol I/O; keeping the core pure makes the lease
//! invariants (no registration outlives its lease without renewal; events
//! fire exactly once per transition) directly testable.

use crate::codec::{EventKind, ServiceId, ServiceItem, Template};
use aroma_sim::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// A live registration.
#[derive(Clone, Debug)]
pub struct Registration {
    /// The service.
    pub item: ServiceItem,
    /// When the lease lapses unless renewed.
    pub lease_expires: SimTime,
}

/// An event produced by a registry transition, addressed to a subscriber.
#[derive(Clone, Debug, PartialEq)]
pub struct RegistryEvent {
    /// Subscriber's node id (as registered via [`ServiceRegistry::subscribe`]).
    pub subscriber: u32,
    /// What happened.
    pub kind: EventKind,
    /// The service involved.
    pub item: ServiceItem,
}

/// The lookup service's registration table.
///
/// `BTreeMap`-backed so that *every* traversal — lookup replies, the expiry
/// sweep's event order, model-checker snapshots — happens in `ServiceId`
/// order by construction. The registry's output reaches protocol replies,
/// subscriber notifications, and chaos-report traces, all of which the
/// determinism gate (`aroma-lint`, DESIGN.md §14) requires to be pure
/// functions of the seed; a hash-backed table made the expiry event order
/// depend on `HashMap`'s per-process iteration order.
#[derive(Clone, Debug)]
pub struct ServiceRegistry {
    /// Maximum lease the registrar will grant.
    pub max_lease: SimDuration,
    regs: BTreeMap<ServiceId, Registration>,
    subs: Vec<(u32, Template)>,
}

impl ServiceRegistry {
    /// Registry granting leases of at most `max_lease`.
    pub fn new(max_lease: SimDuration) -> Self {
        ServiceRegistry {
            max_lease,
            regs: BTreeMap::new(),
            subs: Vec::new(),
        }
    }

    /// Number of live registrations (expired ones may linger until
    /// [`ServiceRegistry::expire`] runs).
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// True when no registrations exist.
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// Register (or refresh) a service. Returns the granted lease and any
    /// subscriber events: `Registered` for a fresh id, `Updated` when an
    /// existing id comes back with *different* content (attributes, proxy,
    /// provider…), and nothing for a pure lease refresh with an identical
    /// item.
    pub fn register(
        &mut self,
        now: SimTime,
        item: ServiceItem,
        requested: SimDuration,
    ) -> (SimDuration, Vec<RegistryEvent>) {
        let granted = requested.min(self.max_lease);
        let kind = match self.regs.get(&item.id) {
            None => Some(EventKind::Registered),
            Some(prev) if prev.item != item => Some(EventKind::Updated),
            Some(_) => None,
        };
        self.regs.insert(
            item.id,
            Registration {
                item: item.clone(),
                lease_expires: now + granted,
            },
        );
        let events = match kind {
            Some(k) => self.events_for(k, &item),
            None => Vec::new(),
        };
        (granted, events)
    }

    /// Renew a lease. Returns the new lease if the registration is live.
    ///
    /// ## The expiry boundary
    ///
    /// A lease expiring exactly at `now` is **already dead** — the boundary
    /// is inclusive on the dead side (`lease_expires <= now` ⇒ lapsed), and
    /// every reader of `lease_expires` in this registry agrees on it:
    /// `renew` rejects at the instant of expiry (the caller must
    /// re-register), [`ServiceRegistry::lookup_live`] hides the entry from
    /// that same instant (`lease_expires > now` to be served), and
    /// [`ServiceRegistry::expire`] sweeps it (`lease_expires <= now`). If
    /// any one of these flipped to the other convention a service could be
    /// looked up at an instant where its renewal is refused (or vice
    /// versa), re-opening the stale-lookup window `aroma-check` proves
    /// closed. Pinned by `expiry_boundary_*` unit tests below.
    pub fn renew(&mut self, now: SimTime, id: ServiceId) -> Option<SimDuration> {
        let reg = self.regs.get_mut(&id)?;
        if reg.lease_expires <= now {
            return None; // lapsed; caller must re-register
        }
        let granted = self.max_lease;
        reg.lease_expires = now + granted;
        Some(granted)
    }

    /// Withdraw a service. Returns subscriber events if it existed.
    pub fn unregister(&mut self, id: ServiceId) -> Vec<RegistryEvent> {
        match self.regs.remove(&id) {
            Some(reg) => self.events_for(EventKind::Unregistered, &reg.item),
            None => Vec::new(),
        }
    }

    /// Drop every registration whose lease has lapsed; returns their events
    /// in `ServiceId` order (`regs` is a `BTreeMap`, so the sweep visits —
    /// and notifies subscribers about — lapsed services deterministically;
    /// pinned by `expiry_sweep_event_order_is_registration_order_free`).
    pub fn expire(&mut self, now: SimTime) -> Vec<RegistryEvent> {
        let lapsed: Vec<ServiceId> = self
            .regs
            .iter()
            .filter(|(_, r)| r.lease_expires <= now)
            .map(|(id, _)| *id)
            .collect();
        let mut events = Vec::new();
        for id in lapsed {
            if let Some(reg) = self.regs.remove(&id) {
                events.extend(self.events_for(EventKind::Expired, &reg.item));
            }
        }
        events
    }

    /// Earliest lease expiry among live registrations (to schedule the next
    /// expiry sweep precisely instead of polling).
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.regs.values().map(|r| r.lease_expires).min()
    }

    /// All registrations matching `template`, in `ServiceId` order — by
    /// construction: `regs` is a `BTreeMap`, so no post-hoc sort is needed
    /// for deterministic replies.
    ///
    /// Includes lapsed-but-unswept registrations; protocol-facing callers
    /// must use [`ServiceRegistry::lookup_live`] instead so a lookup
    /// arriving between a lease's expiry instant and the next expiry sweep
    /// never observes the stale entry (the no-stale-lookup invariant
    /// `aroma-check` proves).
    pub fn lookup(&self, template: &Template) -> Vec<&ServiceItem> {
        self.regs
            .values()
            .filter(|r| template.matches(&r.item))
            .map(|r| &r.item)
            .collect()
    }

    /// Registrations matching `template` whose lease is still live as of
    /// `now`, in `ServiceId` order. A lease expiring exactly at `now` is
    /// already dead ([`ServiceRegistry::renew`] uses the same boundary).
    pub fn lookup_live(&self, now: SimTime, template: &Template) -> Vec<&ServiceItem> {
        self.regs
            .values()
            .filter(|r| r.lease_expires > now && template.matches(&r.item))
            .map(|r| &r.item)
            .collect()
    }

    /// Subscribe `node` to events for services matching `template`.
    pub fn subscribe(&mut self, node: u32, template: Template) {
        self.subs.push((node, template));
    }

    /// Number of subscriptions.
    pub fn subscription_count(&self) -> usize {
        self.subs.len()
    }

    /// The stored expiry for `id` (lapsed-but-unswept included).
    pub fn expiry_of(&self, id: ServiceId) -> Option<SimTime> {
        self.regs.get(&id).map(|r| r.lease_expires)
    }

    /// Every stored registration with its expiry, in `ServiceId` order —
    /// including lapsed-but-unswept entries. This is the snapshot capture
    /// path ([`crate::snapshot::LeaseSnapshot`]): persisting the raw table
    /// (not just the live subset) keeps a restored registry byte-equivalent
    /// to the original, sweep-pending entries and all.
    pub fn entries(&self) -> impl Iterator<Item = (&ServiceItem, SimTime)> {
        self.regs.values().map(|r| (&r.item, r.lease_expires))
    }

    /// Install a registration with an exact expiry instant, bypassing lease
    /// capping and subscriber events. Snapshot restore and replicated log
    /// application use this: the lease was granted (and capped, and
    /// notified) by the original registrar; replaying it must reproduce the
    /// stored state bit-for-bit, not re-run grant policy at restore time.
    pub fn install(&mut self, item: ServiceItem, lease_expires: SimTime) {
        self.regs.insert(item.id, Registration { item, lease_expires });
    }

    /// Model-checker introspection (feature `model-check`): every stored
    /// registration as `(id, lease_expires)`, in id order — including
    /// lapsed-but-unswept entries, which `aroma-check` distinguishes
    /// because re-registration semantics differ before and after a sweep.
    #[cfg(feature = "model-check")]
    pub fn snapshot(&self) -> Vec<(ServiceId, SimTime)> {
        self.regs.iter().map(|(id, r)| (*id, r.lease_expires)).collect()
    }

    fn events_for(&self, kind: EventKind, item: &ServiceItem) -> Vec<RegistryEvent> {
        self.subs
            .iter()
            .filter(|(_, t)| t.matches(item))
            .map(|(node, _)| RegistryEvent {
                subscriber: *node,
                kind,
                item: item.clone(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bytes::Bytes;

    fn item(id: u64, kind: &str) -> ServiceItem {
        ServiceItem {
            id: ServiceId(id),
            kind: kind.into(),
            attributes: vec![("room".into(), "A".into())],
            provider: 1,
            proxy: Bytes::new(),
        }
    }

    fn t(ms: u64) -> SimTime {
        SimTime::ZERO + SimDuration::from_millis(ms)
    }

    #[test]
    fn register_grants_capped_lease() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        let (granted, _) = r.register(t(0), item(1, "a"), SimDuration::from_secs(60));
        assert_eq!(granted, SimDuration::from_secs(10));
        let (granted2, _) = r.register(t(0), item(2, "a"), SimDuration::from_secs(5));
        assert_eq!(granted2, SimDuration::from_secs(5));
        assert_eq!(r.len(), 2);
    }

    #[test]
    fn lookup_matches_templates() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.register(t(0), item(1, "projector"), SimDuration::from_secs(5));
        r.register(t(0), item(2, "printer"), SimDuration::from_secs(5));
        assert_eq!(r.lookup(&Template::any()).len(), 2);
        assert_eq!(r.lookup(&Template::of_kind("projector")).len(), 1);
        assert_eq!(r.lookup(&Template::of_kind("scanner")).len(), 0);
    }

    #[test]
    fn lookup_is_deterministically_ordered() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        for id in [5u64, 3, 9, 1] {
            r.register(t(0), item(id, "x"), SimDuration::from_secs(5));
        }
        let ids: Vec<u64> = r.lookup(&Template::any()).iter().map(|i| i.id.0).collect();
        assert_eq!(ids, vec![1, 3, 5, 9]);
    }

    #[test]
    fn replies_and_sweep_events_are_registration_order_free() {
        // The determinism contract (DESIGN.md §14): everything the registry
        // emits — lookup replies AND the expiry sweep's subscriber events —
        // must be a pure function of the registered *set*, not of the order
        // services happened to arrive (nor of any hash seed). Register the
        // same services in several shuffled orders and demand byte-identical
        // behaviour from each registry.
        let ids = [7u64, 2, 9, 4, 1, 8, 3];
        let orders: [&[u64]; 3] = [
            &[7, 2, 9, 4, 1, 8, 3],
            &[1, 2, 3, 4, 7, 8, 9],
            &[9, 8, 7, 4, 3, 2, 1],
        ];
        let mut lookups: Vec<Vec<u64>> = Vec::new();
        let mut sweeps: Vec<Vec<(u64, EventKind)>> = Vec::new();
        for order in orders {
            let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
            r.subscribe(42, Template::any());
            for &id in order {
                // Odd ids get short leases so the sweep fires on a strict
                // subset, in an order the sweep must itself determine.
                let lease = if id % 2 == 1 { 1 } else { 10 };
                r.register(t(0), item(id, "x"), SimDuration::from_secs(lease));
            }
            lookups.push(r.lookup(&Template::any()).iter().map(|i| i.id.0).collect());
            sweeps.push(
                r.expire(t(1_000))
                    .into_iter()
                    .map(|e| (e.item.id.0, e.kind))
                    .collect(),
            );
        }
        let sorted: Vec<u64> = {
            let mut v = ids.to_vec();
            v.sort_unstable();
            v
        };
        for (lookup, sweep) in lookups.iter().zip(&sweeps) {
            assert_eq!(*lookup, sorted, "replies in ServiceId order");
            assert_eq!(
                *sweep,
                vec![
                    (1, EventKind::Expired),
                    (3, EventKind::Expired),
                    (7, EventKind::Expired),
                    (9, EventKind::Expired)
                ],
                "sweep events in ServiceId order"
            );
        }
    }

    #[test]
    fn expiry_removes_lapsed_leases() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        r.register(t(0), item(2, "a"), SimDuration::from_secs(10));
        let ev = r.expire(t(1_000));
        assert_eq!(r.len(), 1);
        assert!(ev.is_empty(), "no subscribers yet");
        assert!(r.lookup(&Template::any())[0].id == ServiceId(2));
    }

    #[test]
    fn lookup_live_hides_lapsed_but_unswept_entries() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        r.register(t(0), item(2, "a"), SimDuration::from_secs(10));
        // No expiry sweep has run: the raw table still holds both, but a
        // protocol reply at t=1s (the expiry boundary is inclusive-dead)
        // must not serve the lapsed service.
        assert_eq!(r.lookup(&Template::any()).len(), 2);
        let live = r.lookup_live(t(1_000), &Template::any());
        assert_eq!(live.len(), 1);
        assert_eq!(live[0].id, ServiceId(2));
        // Just before the boundary it is still live.
        assert_eq!(r.lookup_live(t(999), &Template::any()).len(), 2);
    }

    #[test]
    fn renewal_extends_lease() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(2));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(2));
        assert!(r.renew(t(1_000), ServiceId(1)).is_some());
        // Would have expired at 2 s without renewal.
        r.expire(t(2_500));
        assert_eq!(r.len(), 1);
        r.expire(t(3_100));
        assert_eq!(r.len(), 0);
    }

    #[test]
    fn renewing_lapsed_or_unknown_fails() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(1));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        assert!(r.renew(t(1_000), ServiceId(1)).is_none(), "lease just lapsed");
        assert!(r.renew(t(500), ServiceId(99)).is_none(), "unknown id");
    }

    #[test]
    fn unregister_removes_and_notifies() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.subscribe(42, Template::of_kind("projector"));
        r.register(t(0), item(1, "projector"), SimDuration::from_secs(5));
        let ev = r.unregister(ServiceId(1));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].subscriber, 42);
        assert_eq!(ev[0].kind, EventKind::Unregistered);
        assert!(r.is_empty());
        assert!(r.unregister(ServiceId(1)).is_empty(), "double unregister");
    }

    #[test]
    fn subscribers_notified_on_register_and_expire() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(1));
        r.subscribe(7, Template::of_kind("projector"));
        r.subscribe(8, Template::of_kind("printer"));
        let (_, ev) = r.register(t(0), item(1, "projector"), SimDuration::from_secs(1));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].subscriber, 7);
        assert_eq!(ev[0].kind, EventKind::Registered);
        let ev = r.expire(t(1_000));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::Expired);
    }

    #[test]
    fn reregistration_does_not_renotify() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.subscribe(7, Template::any());
        let (_, ev1) = r.register(t(0), item(1, "a"), SimDuration::from_secs(5));
        assert_eq!(ev1.len(), 1);
        let (_, ev2) = r.register(t(100), item(1, "a"), SimDuration::from_secs(5));
        assert!(ev2.is_empty(), "refresh is not a new registration");
    }

    #[test]
    fn changed_reregistration_notifies_updated() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        r.subscribe(7, Template::any());
        r.register(t(0), item(1, "a"), SimDuration::from_secs(5));
        // Same id, different attributes: subscribers must learn about it.
        let mut changed = item(1, "a");
        changed.attributes = vec![("room".into(), "B".into())];
        let (_, ev) = r.register(t(100), changed.clone(), SimDuration::from_secs(5));
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].kind, EventKind::Updated);
        assert_eq!(ev[0].item, changed);
        // The stored item was replaced, not just the lease.
        assert_eq!(r.lookup(&Template::any())[0].attributes[0].1, "B");
        // And only subscribers whose template matches hear it.
        let mut r2 = ServiceRegistry::new(SimDuration::from_secs(10));
        r2.subscribe(9, Template::of_kind("printer"));
        r2.register(t(0), item(1, "a"), SimDuration::from_secs(5));
        let mut changed2 = item(1, "a");
        changed2.provider = 99;
        let (_, ev2) = r2.register(t(100), changed2, SimDuration::from_secs(5));
        assert!(ev2.is_empty(), "non-matching subscriber must not be notified");
    }

    #[test]
    fn expiry_boundary_renew_is_inclusive_dead() {
        // Pin: at the exact expiry instant, renewal is refused; one
        // nanosecond earlier it succeeds.
        let mut r = ServiceRegistry::new(SimDuration::from_secs(1));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        let just_before = SimTime::from_nanos(1_000_000_000 - 1);
        assert!(r.renew(just_before, ServiceId(1)).is_some());
        // (the successful renewal moved the expiry; rebuild to re-test)
        let mut r = ServiceRegistry::new(SimDuration::from_secs(1));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        assert!(
            r.renew(t(1_000), ServiceId(1)).is_none(),
            "a lease expiring exactly now is already dead for renewal"
        );
    }

    #[test]
    fn expiry_boundary_lookup_live_agrees_with_renew() {
        // Pin: lookup_live sits on the same inclusive-dead boundary as
        // renew — there is no instant where a service is servable but
        // unrenewable, or renewable but hidden.
        let mut r = ServiceRegistry::new(SimDuration::from_secs(1));
        r.register(t(0), item(1, "a"), SimDuration::from_secs(1));
        let just_before = SimTime::from_nanos(1_000_000_000 - 1);
        let at_expiry = t(1_000);
        // One nanosecond before expiry: both live.
        assert_eq!(r.lookup_live(just_before, &Template::any()).len(), 1);
        assert!(r.clone().renew(just_before, ServiceId(1)).is_some());
        // At the exact expiry instant: both dead.
        assert_eq!(r.lookup_live(at_expiry, &Template::any()).len(), 0);
        assert!(r.renew(at_expiry, ServiceId(1)).is_none());
        // And the expiry sweep uses the same boundary.
        assert_eq!(r.expire(at_expiry).len(), 0, "no subscribers");
        assert!(r.is_empty(), "expire(now) sweeps a lease expiring at now");
    }

    #[test]
    fn entries_are_in_service_id_order() {
        // The snapshot capture path: `entries()` yields `ServiceId` order
        // whatever the registration order, each row with its expiry.
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        for id in [9u64, 2, 77, 31, 5] {
            r.register(t(0), item(id, "x"), SimDuration::from_secs(id));
        }
        let rows: Vec<(u64, SimTime)> = r.entries().map(|(i, e)| (i.id.0, e)).collect();
        assert_eq!(
            rows,
            vec![(2, t(2_000)), (5, t(5_000)), (9, t(9_000)), (31, t(10_000)), (77, t(10_000))]
        );
    }

    #[test]
    fn next_expiry_tracks_minimum() {
        let mut r = ServiceRegistry::new(SimDuration::from_secs(10));
        assert_eq!(r.next_expiry(), None);
        r.register(t(0), item(1, "a"), SimDuration::from_secs(5));
        r.register(t(0), item(2, "a"), SimDuration::from_secs(2));
        assert_eq!(r.next_expiry(), Some(t(2_000)));
    }
}
