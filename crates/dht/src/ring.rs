//! Consistent-hashing ring with virtual nodes.
//!
//! The paper stores metadata in an off-the-shelf DHT (BambooDHT) so that
//! tree nodes are "uniformly dispersed among the metadata providers". The
//! ring gives the same property: each member owns many pseudo-random
//! points on a `u64` circle; a key is served by the first `replication`
//! *distinct* members clockwise of its hash. Virtual nodes smooth the load
//! (≈ 1/vnodes imbalance).

use blobseer_proto::NodeId;
use blobseer_util::fxhash::mix64;
use blobseer_util::rng::child_seed;

/// A consistent-hash ring, fixed when it is built: the deployment builds
/// it once over its metadata providers and only ever routes through it.
#[derive(Clone, Debug)]
pub struct Ring {
    /// (position, member) sorted by position.
    points: Vec<(u64, NodeId)>,
    replication: usize,
}

impl Ring {
    /// Build a ring.
    ///
    /// * `members` — the participating nodes (metadata providers).
    /// * `vnodes` — virtual nodes per member (64–256 is typical).
    /// * `replication` — how many distinct members serve each key.
    /// * `seed` — placement seed (deterministic layouts for tests).
    pub fn new(members: &[NodeId], vnodes: usize, replication: usize, seed: u64) -> Self {
        assert!(!members.is_empty(), "ring needs at least one member");
        assert!(vnodes >= 1);
        let mut points = Vec::with_capacity(members.len() * vnodes);
        for &m in members {
            let base = child_seed(seed, m.0 as u64);
            for v in 0..vnodes {
                points.push((mix64(base ^ (v as u64).wrapping_mul(0x9e37)), m));
            }
        }
        points.sort_unstable();
        points.dedup_by_key(|(p, _)| *p);
        Self {
            points,
            replication: replication.clamp(1, members.len()),
        }
    }

    /// Replication factor.
    pub fn replication(&self) -> usize {
        self.replication
    }

    /// The `replication` distinct members responsible for `key`, primary
    /// first.
    pub fn replicas(&self, key: u64) -> Vec<NodeId> {
        let mut out = Vec::with_capacity(self.replication);
        let start = self.points.partition_point(|(p, _)| *p < key);
        let n = self.points.len();
        for i in 0..n {
            let (_, m) = self.points[(start + i) % n];
            if !out.contains(&m) {
                out.push(m);
                if out.len() == self.replication {
                    break;
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use blobseer_util::FxHashMap;

    fn members(n: u32) -> Vec<NodeId> {
        (0..n).map(NodeId).collect()
    }

    #[test]
    fn deterministic_layout() {
        let r1 = Ring::new(&members(8), 64, 2, 42);
        let r2 = Ring::new(&members(8), 64, 2, 42);
        for k in 0..100u64 {
            assert_eq!(r1.replicas(mix64(k)), r2.replicas(mix64(k)));
        }
    }

    #[test]
    fn replicas_are_distinct_and_sized() {
        let r = Ring::new(&members(5), 32, 3, 7);
        for k in 0..500u64 {
            let reps = r.replicas(mix64(k));
            assert_eq!(reps.len(), 3);
            let mut uniq = reps.clone();
            uniq.dedup();
            uniq.sort();
            uniq.dedup();
            assert_eq!(uniq.len(), 3, "replicas must be distinct members");
        }
    }

    #[test]
    fn replication_clamped_to_members() {
        let r = Ring::new(&members(2), 16, 5, 1);
        assert_eq!(r.replication(), 2);
        assert_eq!(r.replicas(123).len(), 2);
    }

    #[test]
    fn load_is_roughly_uniform() {
        let r = Ring::new(&members(10), 128, 1, 3);
        let mut counts: FxHashMap<NodeId, u64> = FxHashMap::default();
        let keys = 20_000u64;
        for k in 0..keys {
            *counts.entry(r.replicas(mix64(k))[0]).or_default() += 1;
        }
        let expect = keys as f64 / 10.0;
        for (m, c) in &counts {
            let ratio = *c as f64 / expect;
            assert!(
                (0.6..1.4).contains(&ratio),
                "member {m} has load ratio {ratio}"
            );
        }
    }
}
