//! The router path a peer reports to the management server.

use crate::error::CoreError;
use nearpeer_topology::RouterId;
use serde::{Deserialize, Serialize};

/// The validated router path from a peer's access router to its landmark —
/// the payload of the paper's round 1.
///
/// Invariants: non-empty and loop-free (each router appears once). The path
/// may have *holes* (anonymous traceroute hops are simply absent), which
/// costs branch resolution but never correctness.
///
/// Position 0 is the peer's attachment (access) router; the last position is
/// the landmark's router. A single-router path is legal: the peer sits on
/// the landmark's own router.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct PeerPath {
    routers: Vec<RouterId>,
}

impl PeerPath {
    /// Validates and wraps a router sequence.
    pub fn new(routers: Vec<RouterId>) -> Result<Self, CoreError> {
        if routers.is_empty() {
            return Err(CoreError::InvalidPath("empty path".into()));
        }
        // Loop check on a sorted copy, where a repeat ends up adjacent: this
        // runs for every path the decoder accepts, and sorting a dozen ids
        // is cheaper than hashing them.
        let mut sorted = routers.clone();
        sorted.sort_unstable();
        if let Some(pair) = sorted.windows(2).find(|pair| pair[0] == pair[1]) {
            let r = pair[0];
            return Err(CoreError::InvalidPath(format!("router {r} repeats (loop)")));
        }
        Ok(Self { routers })
    }

    /// The borrowed read view of this path.
    pub fn view(&self) -> PathView<'_> {
        PathView {
            routers: &self.routers,
        }
    }

    /// The peer's access router (position 0).
    pub fn attach(&self) -> RouterId {
        self.view().attach()
    }

    /// The landmark's router (last position).
    pub fn landmark_router(&self) -> RouterId {
        self.view().landmark_router()
    }

    /// Number of hops from the access router to the landmark.
    pub fn depth(&self) -> u32 {
        self.view().depth()
    }

    /// The routers, access-first.
    pub fn routers(&self) -> &[RouterId] {
        &self.routers
    }

    /// Iterator of `(router, hops_from_peer)` pairs, access-first.
    pub fn with_depths(&self) -> impl Iterator<Item = (RouterId, u32)> + '_ {
        self.view().with_depths()
    }

    /// Hops from the peer to `router`, if the router is on the path.
    pub fn depth_of(&self, router: RouterId) -> Option<u32> {
        self.view().depth_of(router)
    }

    /// [`PathView::dtree`] between two owned paths.
    pub fn dtree(&self, other: &PeerPath) -> Option<(RouterId, u32)> {
        self.view().dtree(other.view())
    }
}

/// A validated path borrowed from wherever it is stored: a [`PeerPath`],
/// or a run of a [`crate::PathStore`]'s flat router arena. `Copy`, so the
/// read paths pass it by value and never clone a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PathView<'a> {
    routers: &'a [RouterId],
}

impl<'a> From<&'a PeerPath> for PathView<'a> {
    fn from(path: &'a PeerPath) -> Self {
        path.view()
    }
}

impl<'a> PathView<'a> {
    /// Wraps routers already validated as a path (non-empty, loop-free).
    pub(crate) fn new(routers: &'a [RouterId]) -> Self {
        debug_assert!(!routers.is_empty());
        Self { routers }
    }

    /// An owned copy of the path.
    pub fn to_path(self) -> PeerPath {
        PeerPath {
            routers: self.routers.to_vec(),
        }
    }

    /// The peer's access router (position 0).
    pub fn attach(self) -> RouterId {
        self.routers[0]
    }

    /// The landmark's router (last position).
    pub fn landmark_router(self) -> RouterId {
        *self.routers.last().expect("paths are non-empty")
    }

    /// Number of hops from the access router to the landmark.
    pub fn depth(self) -> u32 {
        (self.routers.len() - 1) as u32
    }

    /// The routers, access-first.
    pub fn routers(self) -> &'a [RouterId] {
        self.routers
    }

    /// Iterator of `(router, hops_from_peer)` pairs, access-first.
    pub fn with_depths(self) -> impl Iterator<Item = (RouterId, u32)> + 'a {
        self.routers.iter().enumerate().map(|(i, &r)| (r, i as u32))
    }

    /// Hops from the peer to `router`, if the router is on the path.
    pub fn depth_of(self, router: RouterId) -> Option<u32> {
        self.routers
            .iter()
            .position(|&r| r == router)
            .map(|i| i as u32)
    }

    /// The deepest (closest-to-both-peers) router shared with `other`, and
    /// the resulting `dtree` hop estimate — the paper's inferred distance
    /// through the first common router.
    ///
    /// Paths are bounded by the topology diameter (a dozen-odd routers),
    /// so the quadratic scan beats building a hash map per comparison —
    /// this is the inner loop of every brute-force baseline and accuracy
    /// study, called `O(n²)` times per experiment.
    pub fn dtree(self, other: PathView<'_>) -> Option<(RouterId, u32)> {
        self.with_depths()
            .filter_map(|(r, d_self)| other.depth_of(r).map(|d_other| (r, d_self + d_other)))
            .min_by_key(|&(_, d)| d)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    #[test]
    fn accessors() {
        let p = path(&[5, 3, 1, 0]);
        assert_eq!(p.attach(), RouterId(5));
        assert_eq!(p.landmark_router(), RouterId(0));
        assert_eq!(p.depth(), 3);
        assert_eq!(p.depth_of(RouterId(1)), Some(2));
        assert_eq!(p.depth_of(RouterId(9)), None);
    }

    #[test]
    fn rejects_empty_and_loops() {
        assert!(matches!(
            PeerPath::new(vec![]),
            Err(CoreError::InvalidPath(_))
        ));
        assert!(matches!(
            PeerPath::new(vec![RouterId(1), RouterId(2), RouterId(1)]),
            Err(CoreError::InvalidPath(_))
        ));
    }

    #[test]
    fn rejects_a_repeat_at_any_position() {
        // Router 7 twice: adjacent at the front, in the middle and at the
        // end, then apart (first/last, first/middle, middle/last).
        for looped in [
            [7, 7, 2, 3, 4],
            [1, 2, 7, 7, 4],
            [1, 2, 3, 7, 7],
            [7, 2, 3, 4, 7],
            [7, 2, 7, 3, 4],
            [1, 2, 7, 3, 7],
        ] {
            let routers = looped.iter().map(|&i| RouterId(i)).collect();
            let err = PeerPath::new(routers).expect_err("a loop");
            assert!(err.to_string().contains("r7 repeats"), "{looped:?}: {err}");
        }
    }

    #[test]
    fn single_router_path() {
        let p = path(&[7]);
        assert_eq!(p.attach(), RouterId(7));
        assert_eq!(p.landmark_router(), RouterId(7));
        assert_eq!(p.depth(), 0);
    }

    #[test]
    fn dtree_through_first_common_router() {
        // Figure-1 shape: p1 = [p1, r2, r1, rc, ra, lmk] as ids
        // and p2 = [p2, r4, r3, rc, ra, lmk]; common suffix rc, ra, lmk.
        let p1 = path(&[100, 2, 1, 50, 51, 0]);
        let p2 = path(&[101, 4, 3, 50, 51, 0]);
        let (meet, d) = p1.dtree(&p2).unwrap();
        assert_eq!(meet, RouterId(50)); // rc: deepest common router
        assert_eq!(d, 6); // 3 + 3 hops
    }

    #[test]
    fn dtree_same_access_router_is_zero() {
        let p1 = path(&[9, 4, 0]);
        let p2 = path(&[9, 4, 0]);
        assert_eq!(p1.dtree(&p2), Some((RouterId(9), 0)));
    }

    #[test]
    fn dtree_disjoint_paths_is_none() {
        let p1 = path(&[1, 2, 3]);
        let p2 = path(&[4, 5, 6]);
        assert_eq!(p1.dtree(&p2), None);
    }

    #[test]
    fn dtree_on_shared_branch() {
        // q sits on p's own path: p = [a, b, c, L]; q = [b, c, L].
        let p = path(&[10, 11, 12, 0]);
        let q = path(&[11, 12, 0]);
        let (meet, d) = p.dtree(&q).unwrap();
        assert_eq!(meet, RouterId(11));
        assert_eq!(d, 1);
    }
}
