//! Identifiers used across the discovery system.

use serde::{Deserialize, Serialize};
use std::collections::hash_map::RandomState;
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::hash::{BuildHasher, Hasher};
use std::sync::OnceLock;

/// Identifier of a participating peer (assigned by the application).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct PeerId(pub u64);

impl fmt::Display for PeerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "peer{}", self.0)
    }
}

/// Identifier of a landmark (dense index into the server's landmark table).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LandmarkId(pub u32);

impl LandmarkId {
    /// The id as a `usize` index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LandmarkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "lmk{}", self.0)
    }
}

/// Hasher state for maps keyed by the fixed-width ids (`RouterId`,
/// [`PeerId`]): two keyed multiplies per id, each 128-bit product folded
/// onto itself, so that both the low bits (hashbrown's bucket index) and
/// the top seven (its tag) depend on every input bit. SipHash on a 4- or
/// 8-byte key costs more than the rest of a directory probe. One multiply is not
/// enough: under an unlucky key it maps a 2^16- or 2^24-strided id set
/// onto a few percent of the buckets; two are indistinguishable from a
/// random function on every layout the tests below draw.
///
/// It is **keyed** because router and peer ids are chosen by clients: with
/// a fixed multiplier anyone could compute, offline, a set of ids that
/// all land in one bucket. Both halves of the key are drawn once per
/// process from [`RandomState`] and are not configurable.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdHash {
    mask: u64,
    multiplier: u64,
}

/// A `HashMap` keyed by an id, hashed with [`IdHash`].
pub(crate) type IdMap<K, V> = HashMap<K, V, IdHash>;
/// A `HashSet` of ids, hashed with [`IdHash`].
pub(crate) type IdSet<T> = HashSet<T, IdHash>;

impl Default for IdHash {
    fn default() -> Self {
        static KEY: OnceLock<IdHash> = OnceLock::new();
        *KEY.get_or_init(|| {
            let seed = RandomState::new();
            IdHash {
                mask: seed.hash_one(0u8),
                multiplier: seed.hash_one(1u8) | 1,
            }
        })
    }
}

impl BuildHasher for IdHash {
    type Hasher = IdHasher;

    fn build_hasher(&self) -> IdHasher {
        IdHasher {
            key: *self,
            state: 0,
        }
    }
}

/// The [`Hasher`] that [`IdHash`] builds.
#[derive(Debug, Clone, Copy)]
pub(crate) struct IdHasher {
    key: IdHash,
    state: u64,
}

impl Hasher for IdHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    fn write_u32(&mut self, id: u32) {
        self.write_u64(u64::from(id));
    }

    fn write_u64(&mut self, id: u64) {
        let fold = |word: u64| {
            let product = u128::from(word) * u128::from(self.key.multiplier);
            product as u64 ^ (product >> 64) as u64
        };
        self.state = fold(fold(self.state ^ id ^ self.key.mask));
    }

    fn finish(&self) -> u64 {
        self.state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nearpeer_topology::RouterId;

    #[test]
    fn display_forms() {
        assert_eq!(PeerId(7).to_string(), "peer7");
        assert_eq!(LandmarkId(2).to_string(), "lmk2");
    }

    #[test]
    fn ordering_is_numeric() {
        assert!(PeerId(2) < PeerId(10));
        assert!(LandmarkId(0) < LandmarkId(1));
        assert_eq!(LandmarkId(3).index(), 3);
    }

    /// hashbrown indexes buckets with the hash's low bits and tags entries
    /// with its top seven: both must look like a random function's.
    fn assert_spreads<T: std::hash::Hash>(key: IdHash, name: &str, ids: impl Iterator<Item = T>) {
        let hashes: Vec<u64> = ids.map(|id| key.hash_one(id)).collect();
        let n = hashes.len();
        // As many buckets as keys: a random function fills ~63 % of them
        // and its fullest holds fewer than ten.
        let buckets = n.next_power_of_two();
        let mut load = vec![0usize; buckets];
        for h in &hashes {
            load[*h as usize & (buckets - 1)] += 1;
        }
        let occupied = load.iter().filter(|&&l| l > 0).count();
        assert!(
            occupied * 2 > n,
            "{name}: {occupied} of {n} buckets, {key:?}"
        );
        let fullest = *load.iter().max().expect("non-empty");
        assert!(fullest <= 12, "{name}: a bucket holds {fullest}, {key:?}");
        // 128 tags, n / 128 expected each.
        let mut tags = [0usize; 128];
        for h in &hashes {
            tags[(h >> 57) as usize] += 1;
        }
        let expected = n / 128;
        for (tag, &count) in tags.iter().enumerate() {
            assert!(
                (expected / 4..=expected * 3).contains(&count),
                "{name}: tag {tag} seen {count}×, expected ≈{expected}, {key:?}"
            );
        }
    }

    /// The id layouts that occur must spread whatever the key — a plain
    /// multiply leaves the low bits of a 2^16-strided set constant, a
    /// single folded one clusters it under some keys.
    #[test]
    fn id_hash_spreads_low_bits_and_tag_bits_on_real_layouts() {
        let keys = [
            IdHash {
                mask: 0x243f_6a88_85a3_08d3,
                multiplier: 0x1319_8a2e_0370_7345,
            },
            IdHash {
                mask: 0xa409_3822_299f_31d0,
                multiplier: 0x082e_fa98_ec4e_6c89,
            },
        ];
        // `SyntheticJoins`' infrastructure routers: (landmark, level, prefix).
        let packed = (0..8u32).flat_map(|lmk| {
            (1..8u32).flat_map(move |level| {
                (0..64u32).map(move |prefix| 0x4000_0000 + (lmk << 24) + (level << 18) + prefix)
            })
        });
        for key in keys {
            assert_spreads(key, "packed routers", packed.clone().map(RouterId));
            let access = (0..4096u32).map(|peer| RouterId(u32::MAX - peer));
            assert_spreads(key, "access routers", access);
            assert_spreads(key, "sequential peers", (0..4096u64).map(PeerId));
            assert_spreads(
                key,
                "routers, stride 2^16",
                (0..4096u32).map(|i| RouterId(i << 16)),
            );
            assert_spreads(
                key,
                "peers, stride 2^16",
                (0..4096u64).map(|i| PeerId(i << 16)),
            );
            assert_spreads(
                key,
                "peers, stride 2^24",
                (0..4096u64).map(|i| PeerId(i << 24)),
            );
        }
    }

    #[test]
    fn id_hash_key_is_drawn_once_per_process() {
        let (a, b) = (IdHash::default(), IdHash::default());
        assert_eq!((a.mask, a.multiplier), (b.mask, b.multiplier));
        assert_eq!(a.multiplier % 2, 1, "an even multiplier loses the top bit");
        assert_eq!(a.hash_one(PeerId(7)), b.hash_one(PeerId(7)));
    }
}
