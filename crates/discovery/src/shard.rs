//! Hash-sharded lease table.
//!
//! One `BTreeMap` holding millions of leases turns every point operation
//! into a walk of a single deep tree and every expiry sweep into one long
//! stop-the-world scan. [`ShardedRegistry`] splits the table into `N`
//! independent [`ServiceRegistry`] shards routed by a fixed multiplicative
//! hash of the [`ServiceId`], so point operations (register/renew/
//! unregister — the hot path under heavy provider traffic) touch one small
//! tree, while whole-table traversals re-establish the global `ServiceId`
//! order by k-way merging the per-shard outputs.
//!
//! Determinism: the shard route is a pure function of the id (a fixed
//! Fibonacci-hash constant — never a per-process hasher seed), each shard
//! is itself a `BTreeMap`, and every cross-shard output is merged back into
//! `ServiceId` order, so lookup replies, sweep events, and snapshots remain
//! byte-identical to the unsharded registry's. Pinned by the equivalence
//! tests below and benchmarked (sharded vs unsharded) in `BENCH_disc.json`.

use crate::codec::{ServiceId, ServiceItem, Template};
use crate::registry::{RegistryEvent, ServiceRegistry};
use aroma_sim::{SimDuration, SimTime};

/// Fibonacci multiplicative hashing: spreads consecutive provider-assigned
/// ids across shards while staying a pure function of the id.
const HASH_K: u64 = 0x9E37_79B9_7F4A_7C15;

/// A lease table split into `N` hash-routed [`ServiceRegistry`] shards.
#[derive(Clone, Debug)]
pub struct ShardedRegistry {
    shards: Vec<ServiceRegistry>,
}

impl ShardedRegistry {
    /// A table of `shards` shards granting leases of at most `max_lease`.
    pub fn new(shards: usize, max_lease: SimDuration) -> Self {
        assert!(shards >= 1, "need at least one shard");
        ShardedRegistry {
            shards: (0..shards).map(|_| ServiceRegistry::new(max_lease)).collect(),
        }
    }

    /// Which shard owns `id`.
    pub fn shard_of(&self, id: ServiceId) -> usize {
        (id.0.wrapping_mul(HASH_K) >> 33) as usize % self.shards.len()
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// Maximum lease granted (uniform across shards).
    pub fn max_lease(&self) -> SimDuration {
        self.shards[0].max_lease
    }

    /// Total registrations across shards (lapsed-but-unswept included).
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.len()).sum()
    }

    /// True when no registrations exist.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.is_empty())
    }

    /// Register (or refresh) a service; see [`ServiceRegistry::register`].
    pub fn register(
        &mut self,
        now: SimTime,
        item: ServiceItem,
        requested: SimDuration,
    ) -> (SimDuration, Vec<RegistryEvent>) {
        let shard = self.shard_of(item.id);
        self.shards[shard].register(now, item, requested)
    }

    /// Renew a lease; see [`ServiceRegistry::renew`].
    pub fn renew(&mut self, now: SimTime, id: ServiceId) -> Option<SimDuration> {
        let shard = self.shard_of(id);
        self.shards[shard].renew(now, id)
    }

    /// Withdraw a service; see [`ServiceRegistry::unregister`].
    pub fn unregister(&mut self, id: ServiceId) -> Vec<RegistryEvent> {
        let shard = self.shard_of(id);
        self.shards[shard].unregister(id)
    }

    /// The stored expiry for `id` (lapsed-but-unswept included).
    pub fn expiry_of(&self, id: ServiceId) -> Option<SimTime> {
        let shard = self.shard_of(id);
        self.shards[shard].expiry_of(id)
    }

    /// Install a registration with an exact expiry (snapshot restore / log
    /// application); see [`ServiceRegistry::install`].
    pub fn install(&mut self, item: ServiceItem, lease_expires: SimTime) {
        let shard = self.shard_of(item.id);
        self.shards[shard].install(item, lease_expires);
    }

    /// Drop every lapsed registration, returning subscriber events in
    /// global `ServiceId` order (per-shard sweeps are id-ordered; the
    /// outputs are k-way merged so the sharding is unobservable).
    pub fn expire(&mut self, now: SimTime) -> Vec<RegistryEvent> {
        let per_shard: Vec<Vec<RegistryEvent>> =
            self.shards.iter_mut().map(|s| s.expire(now)).collect();
        merge_by_id(per_shard, |e| e.item.id)
    }

    /// Earliest lease expiry across shards.
    pub fn next_expiry(&self) -> Option<SimTime> {
        self.shards.iter().filter_map(|s| s.next_expiry()).min()
    }

    /// All registrations matching `template` in global `ServiceId` order
    /// (lapsed-but-unswept included); protocol paths must use
    /// [`ShardedRegistry::lookup_live`].
    pub fn lookup(&self, template: &Template) -> Vec<&ServiceItem> {
        let per_shard: Vec<Vec<&ServiceItem>> =
            self.shards.iter().map(|s| s.lookup(template)).collect();
        merge_by_id(per_shard, |i| i.id)
    }

    /// Live registrations matching `template` as of `now`, in global
    /// `ServiceId` order; see [`ServiceRegistry::lookup_live`].
    pub fn lookup_live(&self, now: SimTime, template: &Template) -> Vec<&ServiceItem> {
        let per_shard: Vec<Vec<&ServiceItem>> =
            self.shards.iter().map(|s| s.lookup_live(now, template)).collect();
        merge_by_id(per_shard, |i| i.id)
    }

    /// Subscribe `node` to events matching `template`. The subscription is
    /// mirrored into every shard; only the shard owning a service emits its
    /// events, so no duplicates arise.
    pub fn subscribe(&mut self, node: u32, template: Template) {
        for s in &mut self.shards {
            s.subscribe(node, template.clone());
        }
    }

    /// Number of subscriptions (as seen by any one shard — they mirror).
    pub fn subscription_count(&self) -> usize {
        self.shards[0].subscription_count()
    }

    /// Every stored registration with its expiry, in global `ServiceId`
    /// order — the snapshot capture path.
    pub fn entries(&self) -> Vec<(&ServiceItem, SimTime)> {
        let per_shard: Vec<Vec<(&ServiceItem, SimTime)>> =
            self.shards.iter().map(|s| s.entries().collect()).collect();
        merge_by_id(per_shard, |(i, _)| i.id)
    }
}

/// K-way merge of per-shard vectors, each already sorted by `ServiceId`,
/// into one globally id-ordered vector. Shard count is small (≤ dozens), so
/// a linear scan for the minimum head beats a heap's constant factor.
fn merge_by_id<T>(per_shard: Vec<Vec<T>>, id_of: impl Fn(&T) -> ServiceId) -> Vec<T> {
    let total: usize = per_shard.iter().map(|v| v.len()).sum();
    let mut queues: Vec<std::collections::VecDeque<T>> =
        per_shard.into_iter().map(std::collections::VecDeque::from).collect();
    let mut out = Vec::with_capacity(total);
    for _ in 0..total {
        let mut best: Option<(usize, ServiceId)> = None;
        for (s, q) in queues.iter().enumerate() {
            if let Some(head) = q.front() {
                let id = id_of(head);
                let better = match best {
                    None => true,
                    Some((_, b)) => id < b,
                };
                if better {
                    best = Some((s, id));
                }
            }
        }
        let (s, _) = best.expect("total counted non-empty heads");
        out.push(queues[s].pop_front().expect("head just observed"));
    }
    out
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

    /// The sharding must be unobservable: every output of an 8-shard table
    /// is byte-identical to the 1-shard (plain) table's.
    #[test]
    fn sharded_outputs_match_unsharded() {
        let max = SimDuration::from_secs(10);
        let mut flat = ShardedRegistry::new(1, max);
        let mut sharded = ShardedRegistry::new(8, max);
        for r in [&mut flat, &mut sharded] {
            r.subscribe(42, Template::any());
            for id in [17u64, 3, 99, 4, 1000, 23, 8, 56, 71, 2] {
                let lease = if id % 2 == 1 { 1 } else { 10 };
                r.register(t(0), item(id, "x"), SimDuration::from_secs(lease));
            }
        }
        let ids = |v: Vec<&ServiceItem>| v.iter().map(|i| i.id.0).collect::<Vec<_>>();
        assert_eq!(ids(flat.lookup(&Template::any())), ids(sharded.lookup(&Template::any())));
        assert_eq!(
            ids(flat.lookup_live(t(500), &Template::any())),
            ids(sharded.lookup_live(t(500), &Template::any()))
        );
        assert_eq!(flat.next_expiry(), sharded.next_expiry());
        let sweep = |r: &mut ShardedRegistry| {
            r.expire(t(1_000))
                .into_iter()
                .map(|e| (e.item.id.0, e.kind, e.subscriber))
                .collect::<Vec<_>>()
        };
        let (f, s) = (sweep(&mut flat), sweep(&mut sharded));
        assert!(!f.is_empty());
        assert_eq!(f, s, "sweep events in identical global order");
        assert_eq!(flat.len(), sharded.len());
    }

    #[test]
    fn point_ops_route_to_owning_shard() {
        let mut r = ShardedRegistry::new(4, SimDuration::from_secs(10));
        for id in 0..100u64 {
            r.register(t(0), item(id, "x"), SimDuration::from_secs(5));
        }
        assert_eq!(r.len(), 100);
        // Every id is found again through the route (renew + unregister).
        for id in 0..100u64 {
            assert!(r.renew(t(10), ServiceId(id)).is_some(), "id {id} lost in routing");
        }
        for id in 0..100u64 {
            r.unregister(ServiceId(id));
        }
        assert!(r.is_empty());
    }

    #[test]
    fn shards_are_actually_used() {
        let r = ShardedRegistry::new(8, SimDuration::from_secs(1));
        let mut hit = [false; 8];
        for id in 0..64u64 {
            hit[r.shard_of(ServiceId(id))] = true;
        }
        assert!(hit.iter().all(|&h| h), "64 consecutive ids must touch all 8 shards");
    }

    #[test]
    fn entries_are_globally_ordered() {
        let mut r = ShardedRegistry::new(8, SimDuration::from_secs(10));
        for id in [9u64, 2, 77, 31, 5] {
            r.register(t(0), item(id, "x"), SimDuration::from_secs(5));
        }
        let ids: Vec<u64> = r.entries().iter().map(|(i, _)| i.id.0).collect();
        assert_eq!(ids, vec![2, 5, 9, 31, 77]);
    }
}
