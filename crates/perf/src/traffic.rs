//! Seeded request streams. The workload seed drives every id and every
//! op choice, so the daemon sees only generated frames and the same seed
//! always produces the same bytes in the same order.

use crate::spec::{Profile, Workload, K, LANDMARKS, POOL_SIZE};
use bytes::Bytes;
use nearpeer_bench::wire::world;
use nearpeer_bench::SyntheticJoins;
use nearpeer_core::codec;
use nearpeer_core::protocol::Message;
use nearpeer_core::{LandmarkId, PeerId, PeerPath};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// Ids no workload ever registers: the newcomer paths of the query pool
/// start here.
const NEWCOMER_BASE: u64 = 1 << 22;

/// An independent generator for one purpose (`salt`) of one run (`seed`).
pub fn rng_for(seed: u64, salt: u64) -> StdRng {
    StdRng::seed_from_u64(seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15))
}

/// What a request asks the daemon to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum OpKind {
    /// `QueryRequest` for a pool path.
    Query,
    /// `JoinRequest` of an absent id.
    Join,
    /// `Leave` of a present id (fire-and-forget).
    Leave,
    /// `Heartbeat` of a present id (fire-and-forget).
    Heartbeat,
    /// `HandoverRequest` of a present id to another landmark.
    Handover,
}

impl OpKind {
    /// The request kind that carries `workload`'s primary op: the query
    /// itself, or the join whose reply (`churn_1r`) or push (`subs_1r`) is
    /// timed.
    pub fn carrying(workload: Workload) -> Self {
        match workload {
            Workload::Query1r | Workload::Query4r => OpKind::Query,
            Workload::Churn1r | Workload::Subs1r => OpKind::Join,
        }
    }

    /// Whether the daemon answers this op with a frame of its own.
    pub fn expects_reply(self) -> bool {
        !matches!(self, OpKind::Leave | OpKind::Heartbeat)
    }
}

/// The compact log entry of one sent op — all the oracle needs to replay
/// it through the mirror.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpRecord {
    /// What was asked.
    pub kind: OpKind,
    /// The peer id — or, for [`OpKind::Query`], the pool index.
    pub subject: u64,
    /// [`OpKind::Handover`] only: the destination landmark.
    pub landmark: u32,
}

/// One request ready to send.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Op {
    /// Its log entry.
    pub record: OpRecord,
    /// The encoded frame.
    pub frame: Bytes,
}

/// The synthetic world every workload draws paths from.
pub fn joins() -> SyntheticJoins {
    world(LANDMARKS)
}

/// The read pool: [`POOL_SIZE`] query paths, 90 % a registered peer's own
/// path excluding itself, 10 % the path of a newcomer that never joins.
/// Frames are encoded once, with the pool index as nonce.
#[derive(Debug, Clone)]
pub struct QueryPool {
    paths: Vec<PeerPath>,
    exclude: Vec<Option<PeerId>>,
    frames: Vec<Bytes>,
}

impl QueryPool {
    /// Draws the pool over registered ids `0..registered`.
    pub fn generate(seed: u64, registered: u64) -> Self {
        let mut rng = rng_for(seed, 1);
        let joins = joins();
        let mut pool = QueryPool {
            paths: Vec::with_capacity(POOL_SIZE),
            exclude: Vec::with_capacity(POOL_SIZE),
            frames: Vec::with_capacity(POOL_SIZE),
        };
        for idx in 0..POOL_SIZE {
            let (path, exclude) = if rng.gen_range(0..10u32) == 0 {
                let newcomer = NEWCOMER_BASE + rng.gen_range(0..1u64 << 20);
                (joins.path(newcomer), None)
            } else {
                let peer = rng.gen_range(0..registered);
                (joins.path(peer), Some(PeerId(peer)))
            };
            pool.frames
                .push(codec::encode_to_bytes(&Message::QueryRequest {
                    nonce: idx as u64,
                    path: path.clone(),
                    k: K as u16,
                    exclude,
                }));
            pool.paths.push(path);
            pool.exclude.push(exclude);
        }
        pool
    }

    /// Entries in the pool.
    pub fn len(&self) -> usize {
        self.frames.len()
    }

    /// Whether the pool is empty (it never is).
    pub fn is_empty(&self) -> bool {
        self.frames.is_empty()
    }

    /// The query path of entry `idx`.
    pub fn path(&self, idx: usize) -> &PeerPath {
        &self.paths[idx]
    }

    /// The peer entry `idx` leaves out of its answer.
    pub fn exclude(&self, idx: usize) -> Option<PeerId> {
        self.exclude[idx]
    }

    /// The op that sends entry `idx`.
    pub fn op(&self, idx: usize) -> Op {
        Op {
            record: OpRecord {
                kind: OpKind::Query,
                subject: idx as u64,
                landmark: 0,
            },
            frame: self.frames[idx].clone(),
        }
    }

    /// An endless seeded stream of pool queries.
    pub fn stream(&self, seed: u64, salt: u64) -> impl FnMut() -> Op + '_ {
        let mut rng = rng_for(seed, salt);
        move || self.op(rng.gen_range(0..self.len()))
    }
}

/// The churn mix: 50 % queries, 15 % joins of an absent id, 15 % leaves,
/// 12 % heartbeats, 8 % handovers to another landmark. The stream tracks
/// which ids are present, so no op it emits can be refused.
#[derive(Debug, Clone)]
pub struct ChurnStream<'p> {
    rng: StdRng,
    joins: SyntheticJoins,
    pool: &'p QueryPool,
    present: Vec<u64>,
    absent: Vec<u64>,
    /// Landmark of every present peer a handover moved off its home.
    moved: HashMap<u64, u32>,
}

impl<'p> ChurnStream<'p> {
    /// A stream over `present` (registered) and `absent` (spare) ids.
    pub fn new(
        seed: u64,
        salt: u64,
        pool: &'p QueryPool,
        present: Vec<u64>,
        absent: Vec<u64>,
    ) -> Self {
        ChurnStream {
            rng: rng_for(seed, salt),
            joins: joins(),
            pool,
            present,
            absent,
            moved: HashMap::new(),
        }
    }

    /// Splits the stream's current population into two streams writing
    /// disjoint id halves. The halves are cut on a bit above the landmark
    /// residue, so both touch every shard.
    pub fn split(self, seed: u64) -> (ChurnStream<'p>, ChurnStream<'p>) {
        let half = |id: &u64| (id / LANDMARKS as u64) % 2 == 0;
        let (pa, pb): (Vec<u64>, Vec<u64>) = self.present.iter().partition(|id| half(id));
        let (aa, ab): (Vec<u64>, Vec<u64>) = self.absent.iter().partition(|id| half(id));
        let (ma, mb): (HashMap<u64, u32>, HashMap<u64, u32>) =
            self.moved.iter().partition(|(id, _)| half(id));
        let make = |salt, present, absent, moved| ChurnStream {
            rng: rng_for(seed, salt),
            joins: self.joins,
            pool: self.pool,
            present,
            absent,
            moved,
        };
        (make(11, pa, aa, ma), make(12, pb, ab, mb))
    }

    /// Peers currently registered, as this stream left them.
    pub fn present(&self) -> &[u64] {
        &self.present
    }

    fn op(kind: OpKind, peer: u64, landmark: u32, msg: &Message) -> Op {
        Op {
            record: OpRecord {
                kind,
                subject: peer,
                landmark,
            },
            frame: codec::encode_to_bytes(msg),
        }
    }

    /// The next op of the mix.
    pub fn next_op(&mut self) -> Op {
        let roll = self.rng.gen_range(0..100u32);
        match roll {
            50..=64 if !self.absent.is_empty() => {
                let at = self.rng.gen_range(0..self.absent.len());
                let id = self.absent.swap_remove(at);
                self.present.push(id);
                let (peer, path) = self.joins.join(id);
                Self::op(OpKind::Join, id, 0, &Message::JoinRequest { peer, path })
            }
            65..=79 if !self.present.is_empty() => {
                let at = self.rng.gen_range(0..self.present.len());
                let id = self.present.swap_remove(at);
                self.absent.push(id);
                self.moved.remove(&id);
                Self::op(OpKind::Leave, id, 0, &Message::Leave { peer: PeerId(id) })
            }
            80..=91 if !self.present.is_empty() => {
                let id = self.present[self.rng.gen_range(0..self.present.len())];
                let msg = Message::Heartbeat { peer: PeerId(id) };
                Self::op(OpKind::Heartbeat, id, 0, &msg)
            }
            92..=99 if !self.present.is_empty() => {
                let id = self.present[self.rng.gen_range(0..self.present.len())];
                let home = self.joins.landmark_of(id).0;
                let from = self.moved.get(&id).copied().unwrap_or(home);
                // Any landmark but the current one.
                let to = (from + self.rng.gen_range(1..LANDMARKS as u32)) % LANDMARKS as u32;
                self.moved.insert(id, to);
                let (peer, path) = self.joins.join_to(id, LandmarkId(to));
                let msg = Message::HandoverRequest { peer, path };
                Self::op(OpKind::Handover, id, to, &msg)
            }
            _ => self.pool.op(self.rng.gen_range(0..self.pool.len())),
        }
    }
}

/// Id stride between peers that share their level-6 router under
/// [`SyntheticJoins`] (branching 4: 4⁶ access positions × 8 landmarks).
const SIBLING_STRIDE: u64 = 4096 * LANDMARKS as u64;
/// Churner ids per subscriber.
const CHURNERS_PER_SUB: u64 = 4;

/// The population of `subs_1r`: a base that never moves, the subscribers,
/// and the churner ids connection C joins and leaves. Each subscriber `s`
/// has four churners `s + 32768·m`: they share its level-6 router, so a
/// churner is always among its subscriber's five nearest and every churn
/// event changes at least one standing answer — there is always a push
/// to time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubsPlan {
    /// Base peers are ids `0..base`.
    pub base: u64,
    /// Subscriber ids, `base..base + n`.
    pub subscribers: Vec<u64>,
    /// Churner ids in the seeded order events visit them.
    pub churners: Vec<u64>,
    /// The churners registered during set-up (every other one of the
    /// visiting order), so events start as an even mix of joins and
    /// leaves.
    pub initially_present: Vec<u64>,
}

impl SubsPlan {
    /// Half the profile's population as base, a twentieth as subscribers
    /// (50 000 + 5 000 + 20 000 churner ids at full size).
    pub fn generate(seed: u64, profile: &Profile) -> Self {
        let base = profile.population / 2;
        let subscribers: Vec<u64> = (base..base + profile.population / 20).collect();
        let mut churners: Vec<u64> = subscribers
            .iter()
            .flat_map(|s| (1..=CHURNERS_PER_SUB).map(move |m| s + SIBLING_STRIDE * m))
            .collect();
        churners.shuffle(&mut rng_for(seed, 21));
        let initially_present = churners.iter().copied().step_by(2).collect();
        SubsPlan {
            base,
            subscribers,
            churners,
            initially_present,
        }
    }

    /// Every id registered before the first event, set-up order.
    pub fn setup_ids(&self) -> Vec<u64> {
        (0..self.base)
            .chain(self.subscribers.iter().copied())
            .chain(self.initially_present.iter().copied())
            .collect()
    }

    /// Position of subscriber `peer` in [`SubsPlan::subscribers`].
    pub fn subscriber_index(&self, peer: u64) -> Option<usize> {
        let i = peer.checked_sub(self.base)? as usize;
        (i < self.subscribers.len()).then_some(i)
    }

    /// Whether `peer` is one of the churner ids.
    pub fn is_churner(&self, peer: u64) -> bool {
        peer >= self.base + SIBLING_STRIDE
    }

    /// The endless event stream: churners in visiting order, round after
    /// round, each joining if absent and leaving if present.
    pub fn events(&self) -> SubsEvents<'_> {
        SubsEvents {
            plan: self,
            joins: joins(),
            present: (0..self.churners.len()).map(|i| i % 2 == 0).collect(),
            cursor: 0,
        }
    }
}

/// See [`SubsPlan::events`].
#[derive(Debug, Clone)]
pub struct SubsEvents<'a> {
    plan: &'a SubsPlan,
    joins: SyntheticJoins,
    present: Vec<bool>,
    cursor: usize,
}

impl SubsEvents<'_> {
    /// The next churn event.
    pub fn next_op(&mut self) -> Op {
        let at = self.cursor % self.present.len();
        self.cursor += 1;
        let id = self.plan.churners[at];
        self.present[at] = !self.present[at];
        let (kind, msg) = if self.present[at] {
            let (peer, path) = self.joins.join(id);
            (OpKind::Join, Message::JoinRequest { peer, path })
        } else {
            (OpKind::Leave, Message::Leave { peer: PeerId(id) })
        };
        Op {
            record: OpRecord {
                kind,
                subject: id,
                landmark: 0,
            },
            frame: codec::encode_to_bytes(&msg),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn churn_ops(seed: u64, n: usize) -> Vec<Op> {
        let pool = QueryPool::generate(seed, 2_000);
        let mut stream = ChurnStream::new(
            seed,
            2,
            &pool,
            (0..2_000).collect(),
            (2_000..3_000).collect(),
        );
        (0..n).map(|_| stream.next_op()).collect()
    }

    #[test]
    fn same_seed_same_op_stream() {
        // Every byte the daemon will see is a pure function of the seed.
        assert_eq!(churn_ops(7, 5_000), churn_ops(7, 5_000));
        assert_ne!(churn_ops(7, 5_000), churn_ops(8, 5_000));
        let pool_a = QueryPool::generate(3, 2_000);
        let pool_b = QueryPool::generate(3, 2_000);
        let (mut a, mut b) = (pool_a.stream(3, 5), pool_b.stream(3, 5));
        for _ in 0..1_000 {
            assert_eq!(a(), b());
        }
        let profile = Profile::smoke();
        let plan = SubsPlan::generate(9, &profile);
        assert_eq!(plan, SubsPlan::generate(9, &profile));
        assert_ne!(plan.churners, SubsPlan::generate(10, &profile).churners);
        let (mut ea, mut eb) = (plan.events(), plan.events());
        for _ in 0..1_000 {
            assert_eq!(ea.next_op(), eb.next_op());
        }
    }

    #[test]
    fn churn_stream_never_emits_a_refusable_op() {
        let mut present: HashSet<u64> = (0..2_000).collect();
        let mut landmark: HashMap<u64, u32> = HashMap::new();
        let mut seen = HashSet::new();
        for op in churn_ops(11, 20_000) {
            let OpRecord {
                kind,
                subject,
                landmark: to,
            } = op.record;
            seen.insert(kind);
            match kind {
                OpKind::Join => assert!(present.insert(subject), "joined a present id"),
                OpKind::Leave => {
                    assert!(present.remove(&subject), "left an absent id");
                    landmark.remove(&subject);
                }
                OpKind::Heartbeat => assert!(present.contains(&subject)),
                OpKind::Handover => {
                    assert!(present.contains(&subject));
                    let from = landmark
                        .insert(subject, to)
                        .unwrap_or((subject % LANDMARKS as u64) as u32);
                    assert_ne!(from, to, "handover must change landmark");
                    assert!((to as usize) < LANDMARKS);
                }
                OpKind::Query => assert!((subject as usize) < POOL_SIZE),
            }
        }
        assert_eq!(seen.len(), 5, "every op kind appears in the mix");
    }

    #[test]
    fn split_halves_are_disjoint_and_cover_every_landmark() {
        let pool = QueryPool::generate(1, 2_000);
        let stream = ChurnStream::new(1, 2, &pool, (0..2_000).collect(), (2_000..3_000).collect());
        let (a, b) = stream.split(1);
        let ids_a: HashSet<u64> = a.present.iter().chain(&a.absent).copied().collect();
        let ids_b: HashSet<u64> = b.present.iter().chain(&b.absent).copied().collect();
        assert!(ids_a.is_disjoint(&ids_b));
        assert_eq!(ids_a.len() + ids_b.len(), 3_000);
        for ids in [&ids_a, &ids_b] {
            let shards: HashSet<u64> = ids.iter().map(|id| id % LANDMARKS as u64).collect();
            assert_eq!(shards.len(), LANDMARKS);
        }
    }

    #[test]
    fn pool_mixes_registered_and_newcomer_paths() {
        let pool = QueryPool::generate(5, 2_000);
        assert_eq!(pool.len(), POOL_SIZE);
        let newcomers = (0..pool.len())
            .filter(|&i| pool.exclude(i).is_none())
            .count();
        let share = newcomers as f64 / pool.len() as f64;
        assert!((0.07..0.13).contains(&share), "newcomer share {share}");
        assert!((0..pool.len())
            .filter_map(|i| pool.exclude(i))
            .all(|p| p.0 < 2_000));
    }

    #[test]
    fn subs_plan_places_churners_beside_their_subscriber() {
        let plan = SubsPlan::generate(4, &Profile::full(25.0));
        assert_eq!(
            (plan.base, plan.subscribers.len(), plan.churners.len()),
            (50_000, 5_000, 20_000)
        );
        assert_eq!(plan.initially_present.len(), 10_000);
        let joins = joins();
        for &c in plan.churners.iter().take(200) {
            assert!(plan.is_churner(c));
            let s = plan.base + (c - plan.base) % SIBLING_STRIDE;
            assert!(plan.subscriber_index(s).is_some());
            // Same landmark, same routers from level 6 up: at most the
            // access router and the level-7 router differ.
            let (pc, ps) = (joins.path(c), joins.path(s));
            assert_eq!(pc.routers()[2..], ps.routers()[2..]);
            assert_ne!(pc.routers()[0], ps.routers()[0]);
        }
        assert!(plan.subscribers.iter().all(|&s| !plan.is_churner(s)));
        // Events alternate per churner, starting from the set-up state.
        let mut events = plan.events();
        let first = events.next_op().record;
        assert_eq!(
            (first.kind, first.subject),
            (OpKind::Leave, plan.churners[0])
        );
        let second = events.next_op().record;
        assert_eq!(
            (second.kind, second.subject),
            (OpKind::Join, plan.churners[1])
        );
    }
}
