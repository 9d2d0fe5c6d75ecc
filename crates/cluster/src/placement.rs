//! Consistent-hash placement.
//!
//! A [`HashRing`] maps stable `u64` keys onto a changing member set
//! with minimal movement: when a member leaves, only the keys it owned
//! are re-placed; when one joins, it takes over only the arcs it now
//! covers. Members are spread around the ring with `vnodes` virtual
//! points each, hashed through the SplitMix64 finalizer, so balance is
//! statistical but tight once `vnodes` is large enough. The serving
//! tier uses two rings: a static one mapping tenants onto shards, and
//! a membership-driven one mapping shards onto live nodes.

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit hash.
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D049BB133111EB);
    x ^ (x >> 31)
}

/// A consistent-hash ring over `u32` member ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashRing {
    vnodes: u32,
    /// `(point_hash, member)`, sorted; ties broken by member id so
    /// collisions resolve deterministically.
    points: Vec<(u64, u32)>,
}

impl HashRing {
    /// An empty ring spreading each member over `vnodes` virtual
    /// points (at least 1).
    pub fn new(vnodes: u32) -> HashRing {
        HashRing {
            vnodes: vnodes.max(1),
            points: Vec::new(),
        }
    }

    /// A ring pre-populated with `members` (duplicates collapse, as
    /// with repeated [`HashRing::insert`]). Every virtual point is
    /// collected first and sorted once.
    pub fn with_members(vnodes: u32, members: impl IntoIterator<Item = u32>) -> HashRing {
        let mut ring = HashRing::new(vnodes);
        let mut members: Vec<u32> = members.into_iter().collect();
        members.sort_unstable();
        members.dedup();
        ring.points = members
            .iter()
            .flat_map(|&m| (0..ring.vnodes).map(move |v| (Self::point(m, v), m)))
            .collect();
        // `point` is injective (the finalizer is a bijection on u64),
        // so no two entries tie and the unstable sort is exact.
        ring.points.sort_unstable();
        ring
    }

    fn point(member: u32, vnode: u32) -> u64 {
        mix64((u64::from(member) << 32) | u64::from(vnode))
    }

    /// Adds a member (idempotent).
    pub fn insert(&mut self, member: u32) {
        if self.contains(member) {
            return;
        }
        for v in 0..self.vnodes {
            let entry = (Self::point(member, v), member);
            let pos = self.points.partition_point(|p| *p <= entry);
            self.points.insert(pos, entry);
        }
    }

    /// Removes a member (idempotent).
    pub fn remove(&mut self, member: u32) {
        self.points.retain(|&(_, m)| m != member);
    }

    /// Whether `member` is on the ring.
    pub fn contains(&self, member: u32) -> bool {
        self.points.iter().any(|&(_, m)| m == member)
    }

    /// Number of members on the ring.
    pub fn len(&self) -> usize {
        self.points.len() / self.vnodes as usize
    }

    /// Whether the ring has no members.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The member owning `key`: the first virtual point at or past the
    /// key's hash, wrapping at the top. `None` on an empty ring.
    pub fn place(&self, key: u64) -> Option<u32> {
        if self.points.is_empty() {
            return None;
        }
        let h = mix64(key);
        let idx = self.points.partition_point(|&(p, _)| p < h);
        let idx = if idx == self.points.len() { 0 } else { idx };
        Some(self.points[idx].1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn placement_is_deterministic_and_total() {
        let ring = HashRing::with_members(64, 0..8);
        for key in 0..1_000u64 {
            let a = ring.place(key).expect("non-empty ring places");
            let b = ring.place(key).expect("non-empty ring places");
            assert_eq!(a, b);
            assert!(a < 8);
        }
        assert_eq!(HashRing::new(8).place(1), None);
    }

    #[test]
    fn insert_and_remove_are_idempotent() {
        let mut ring = HashRing::with_members(16, 0..4);
        let before = ring.clone();
        ring.insert(2);
        assert_eq!(ring, before);
        ring.remove(9);
        assert_eq!(ring, before);
        assert_eq!(ring.len(), 4);
        ring.remove(3);
        assert_eq!(ring.len(), 3);
        assert!(!ring.contains(3));
    }

    #[test]
    fn one_sort_build_equals_the_insert_built_ring() {
        let member_sets: [&[u32]; 5] = [
            &[],
            &[3],
            &[0, 1, 2, 3],
            &[7, 2, 9, 2, 0],
            &[15, 4, 8, 1, 4, 4],
        ];
        for vnodes in [0, 1, 3, 16, 64] {
            for members in member_sets {
                let mut by_insert = HashRing::new(vnodes);
                for &m in members {
                    by_insert.insert(m);
                }
                let built = HashRing::with_members(vnodes, members.iter().copied());
                assert_eq!(built, by_insert, "vnodes {vnodes}, members {members:?}");
            }
        }
    }

    #[test]
    fn removal_moves_only_the_removed_members_keys() {
        let mut ring = HashRing::with_members(64, 0..6);
        let before: Vec<u32> = (0..2_000u64)
            .map(|k| ring.place(k).expect("placed"))
            .collect();
        ring.remove(4);
        for (k, &owner) in before.iter().enumerate() {
            let now = ring.place(k as u64).expect("placed");
            if owner != 4 {
                assert_eq!(now, owner, "key {k} moved without cause");
            } else {
                assert_ne!(now, 4, "key {k} still on the removed member");
            }
        }
    }
}
