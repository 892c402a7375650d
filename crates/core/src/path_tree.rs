//! The per-landmark path tree (trie of reversed routes).

use crate::ids::PeerId;
use crate::path::PathView;
use nearpeer_topology::RouterId;
use std::collections::HashMap;

const NO_NODE: u32 = u32::MAX;

#[derive(Debug, Clone)]
struct TreeNode {
    router: RouterId,
    parent: u32,
    depth: u32,
    children: Vec<u32>,
    peers_here: Vec<PeerId>,
    subtree_peers: usize,
}

/// The tree formed by all stored routes towards one landmark, rooted at the
/// landmark's router — the structure drawn in the paper's Figure 1.
///
/// [`crate::RouterIndex`] is the query-optimal flat view; this trie is the
/// analytical view: branch points, subtree populations (super-peer regions,
/// W2), and tree statistics. It is not maintained anywhere: the server
/// builds it on demand from the stored paths of a landmark's live leases
/// in ascending peer id ([`crate::ManagementServer::tree`]), so the view is
/// a pure function of the registered set.
///
/// Route inconsistencies (a router reported with two different parents,
/// possible with decreased traceroutes) are resolved first-writer-wins in
/// insertion order and counted in [`PathTree::inconsistencies`].
#[derive(Debug, Clone)]
pub struct PathTree {
    nodes: Vec<TreeNode>,
    by_router: HashMap<RouterId, u32>,
    peer_node: HashMap<PeerId, u32>,
    inconsistencies: usize,
}

impl PathTree {
    /// Creates the tree for a landmark whose router is `root`.
    pub fn new(root: RouterId) -> Self {
        let root_node = TreeNode {
            router: root,
            parent: NO_NODE,
            depth: 0,
            children: Vec::new(),
            peers_here: Vec::new(),
            subtree_peers: 0,
        };
        Self {
            nodes: vec![root_node],
            by_router: HashMap::from([(root, 0)]),
            peer_node: HashMap::new(),
            inconsistencies: 0,
        }
    }

    /// The landmark's router.
    pub fn root(&self) -> RouterId {
        self.nodes[0].router
    }

    /// Number of tree nodes (routers seen on any path).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of peers attached to the tree.
    pub fn n_peers(&self) -> usize {
        self.peer_node.len()
    }

    /// How many path insertions disagreed with an already-recorded parent
    /// (route instability or probe holes).
    pub fn inconsistencies(&self) -> usize {
        self.inconsistencies
    }

    /// Inserts a peer's path. The path must terminate at this tree's root;
    /// returns `false` (and stores nothing) otherwise or if the peer is
    /// already present.
    pub fn insert<'p>(&mut self, peer: PeerId, path: impl Into<PathView<'p>>) -> bool {
        let path = path.into();
        if path.landmark_router() != self.root() || self.peer_node.contains_key(&peer) {
            return false;
        }
        // Walk from the landmark outward (reverse of the stored order).
        let mut current = 0u32; // root index
        for &router in path.routers().iter().rev().skip(1) {
            let (idx, conflicted) = self.child(current, router);
            if conflicted {
                self.inconsistencies += 1;
            }
            current = idx;
        }
        self.nodes[current as usize].peers_here.push(peer);
        self.peer_node.insert(peer, current);
        // Bump subtree counts up to the root.
        let mut up = current;
        loop {
            self.nodes[up as usize].subtree_peers += 1;
            if up == 0 {
                break;
            }
            up = self.nodes[up as usize].parent;
        }
        true
    }

    /// Finds or creates the child of `parent_idx` for `router`; the flag
    /// reports a parent conflict (same router already attached elsewhere).
    fn child(&mut self, parent_idx: u32, router: RouterId) -> (u32, bool) {
        if let Some(&existing) = self.by_router.get(&router) {
            // Same router reported under a different parent: keep the
            // first-seen attachment, report the conflict.
            let conflicted = self.nodes[existing as usize].parent != parent_idx && existing != 0;
            return (existing, conflicted);
        }
        let idx = self.nodes.len() as u32;
        let depth = self.nodes[parent_idx as usize].depth + 1;
        self.nodes.push(TreeNode {
            router,
            parent: parent_idx,
            depth,
            children: Vec::new(),
            peers_here: Vec::new(),
            subtree_peers: 0,
        });
        self.nodes[parent_idx as usize].children.push(idx);
        self.by_router.insert(router, idx);
        (idx, false)
    }

    /// The branch point (deepest common ancestor) of two attached peers and
    /// the resulting `dtree`; `None` if either peer is unknown.
    pub fn branch_point(&self, a: PeerId, b: PeerId) -> Option<(RouterId, u32)> {
        let mut ia = *self.peer_node.get(&a)?;
        let mut ib = *self.peer_node.get(&b)?;
        let (mut da, mut db) = (self.nodes[ia as usize].depth, self.nodes[ib as usize].depth);
        let mut hops = 0u32;
        while da > db {
            ia = self.nodes[ia as usize].parent;
            da -= 1;
            hops += 1;
        }
        while db > da {
            ib = self.nodes[ib as usize].parent;
            db -= 1;
            hops += 1;
        }
        while ia != ib {
            ia = self.nodes[ia as usize].parent;
            ib = self.nodes[ib as usize].parent;
            hops += 2;
        }
        Some((self.nodes[ia as usize].router, hops))
    }

    /// Number of peers attached in the subtree of `router`; `None` if the
    /// router never appeared on a stored path.
    pub fn subtree_population(&self, router: RouterId) -> Option<usize> {
        self.by_router
            .get(&router)
            .map(|&i| self.nodes[i as usize].subtree_peers)
    }

    /// Depth (hops from the landmark) at which `router` sits in the tree.
    pub fn depth_of(&self, router: RouterId) -> Option<u32> {
        self.by_router
            .get(&router)
            .map(|&i| self.nodes[i as usize].depth)
    }

    /// The routers at exactly `depth` hops from the landmark, with their
    /// subtree populations — the candidate super-peer regions of W2.
    pub fn regions_at_depth(&self, depth: u32) -> Vec<(RouterId, usize)> {
        self.nodes
            .iter()
            .filter(|n| n.depth == depth)
            .map(|n| (n.router, n.subtree_peers))
            .collect()
    }

    /// Renders the landmark tree as Graphviz DOT: routers as nodes (core
    /// root boxed), peer counts annotated — handy for inspecting what the
    /// management server actually learned.
    pub fn to_dot(&self) -> String {
        let mut out = String::from("digraph pathtree {\n  rankdir=BT;\n");
        for (i, node) in self.nodes.iter().enumerate() {
            let label = if node.peers_here.is_empty() {
                format!("{}", node.router)
            } else {
                format!("{} ({} peers)", node.router, node.peers_here.len())
            };
            let shape = if i == 0 { "box" } else { "ellipse" };
            out.push_str(&format!("  n{i} [label=\"{label}\", shape={shape}];\n"));
        }
        for (i, node) in self.nodes.iter().enumerate().skip(1) {
            out.push_str(&format!("  n{i} -> n{};\n", node.parent));
        }
        out.push_str("}\n");
        out
    }

    /// All peers attached in the subtree rooted at `router` (DFS order).
    pub fn peers_under(&self, router: RouterId) -> Vec<PeerId> {
        let Some(&start) = self.by_router.get(&router) else {
            return Vec::new();
        };
        let mut out = Vec::new();
        let mut stack = vec![start];
        while let Some(i) = stack.pop() {
            let node = &self.nodes[i as usize];
            out.extend_from_slice(&node.peers_here);
            stack.extend_from_slice(&node.children);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::path::PeerPath;

    fn path(ids: &[u32]) -> PeerPath {
        PeerPath::new(ids.iter().map(|&i| RouterId(i)).collect()).unwrap()
    }

    fn sample_tree() -> PathTree {
        // Same topology as the RouterIndex tests: root 0, spine 1,
        // branches 2 (with leaves 4, 5) and 3 (leaf 6).
        let mut t = PathTree::new(RouterId(0));
        assert!(t.insert(PeerId(0xA), &path(&[4, 2, 1, 0])));
        assert!(t.insert(PeerId(0xB), &path(&[5, 2, 1, 0])));
        assert!(t.insert(PeerId(0xC), &path(&[6, 3, 1, 0])));
        assert!(t.insert(PeerId(0xD), &path(&[2, 1, 0])));
        t
    }

    #[test]
    fn construction_counts() {
        let t = sample_tree();
        assert_eq!(t.root(), RouterId(0));
        assert_eq!(t.n_nodes(), 7);
        assert_eq!(t.n_peers(), 4);
        assert_eq!(t.inconsistencies(), 0);
        assert_eq!(t.subtree_population(RouterId(0)), Some(4));
        assert_eq!(t.subtree_population(RouterId(2)), Some(3)); // A, B, D
        assert_eq!(t.subtree_population(RouterId(3)), Some(1));
        assert_eq!(t.subtree_population(RouterId(99)), None);
    }

    #[test]
    fn rejects_wrong_root_and_duplicates() {
        let mut t = sample_tree();
        assert!(!t.insert(PeerId(0xE), &path(&[7, 8, 42]))); // wrong landmark
        assert!(!t.insert(PeerId(0xA), &path(&[4, 2, 1, 0]))); // duplicate
        assert_eq!(t.n_peers(), 4);
    }

    #[test]
    fn branch_points() {
        let t = sample_tree();
        assert_eq!(
            t.branch_point(PeerId(0xA), PeerId(0xB)),
            Some((RouterId(2), 2))
        );
        assert_eq!(
            t.branch_point(PeerId(0xA), PeerId(0xC)),
            Some((RouterId(1), 4))
        );
        assert_eq!(
            t.branch_point(PeerId(0xA), PeerId(0xD)),
            Some((RouterId(2), 1))
        );
        assert_eq!(
            t.branch_point(PeerId(0xA), PeerId(0xA)),
            Some((RouterId(4), 0))
        );
        assert_eq!(t.branch_point(PeerId(0xA), PeerId(0xF)), None);
    }

    #[test]
    fn dtree_agrees_with_peerpath_dtree() {
        let t = sample_tree();
        let pa = path(&[4, 2, 1, 0]);
        let pc = path(&[6, 3, 1, 0]);
        let via_paths = pa.dtree(&pc).unwrap().1;
        let via_tree = t.branch_point(PeerId(0xA), PeerId(0xC)).unwrap().1;
        assert_eq!(via_paths, via_tree);
    }

    #[test]
    fn regions_and_peers_under() {
        let t = sample_tree();
        let mut regions = t.regions_at_depth(2);
        regions.sort();
        assert_eq!(regions, vec![(RouterId(2), 3), (RouterId(3), 1)]);
        let mut under2 = t.peers_under(RouterId(2));
        under2.sort();
        assert_eq!(under2, vec![PeerId(0xA), PeerId(0xB), PeerId(0xD)]);
        assert!(t.peers_under(RouterId(77)).is_empty());
    }

    #[test]
    fn inconsistent_parent_counted() {
        let mut t = PathTree::new(RouterId(0));
        t.insert(PeerId(1), &path(&[5, 2, 1, 0]));
        // Router 5 now claims parent 3 instead of 2 (hole in the trace).
        t.insert(PeerId(2), &path(&[6, 5, 3, 1, 0]));
        assert_eq!(t.inconsistencies(), 1);
        // First-writer-wins: 5 stays under 2.
        assert_eq!(t.depth_of(RouterId(5)), Some(3));
        assert_eq!(t.depth_of(RouterId(6)), Some(4));
        // The same conflicting walk again counts again; an agreeing walk
        // through 5 does not.
        t.insert(PeerId(3), &path(&[7, 5, 3, 1, 0]));
        assert_eq!(t.inconsistencies(), 2);
        t.insert(PeerId(4), &path(&[8, 5, 2, 1, 0]));
        assert_eq!(t.inconsistencies(), 2);
        // Insertion order decides the winner: 3 first puts 5 under 3.
        let mut rev = PathTree::new(RouterId(0));
        rev.insert(PeerId(2), &path(&[6, 5, 3, 1, 0]));
        rev.insert(PeerId(1), &path(&[5, 2, 1, 0]));
        assert_eq!(rev.inconsistencies(), 1);
        assert_eq!(rev.subtree_population(RouterId(3)), Some(2));
    }

    #[test]
    fn dot_rendering() {
        let t = sample_tree();
        let dot = t.to_dot();
        assert!(dot.starts_with("digraph pathtree {"));
        assert!(dot.contains("shape=box"), "root is boxed");
        assert!(dot.contains("(1 peers)"), "peer counts annotated:\n{dot}");
        // Every non-root node has exactly one parent edge.
        assert_eq!(dot.matches(" -> ").count(), t.n_nodes() - 1);
    }

    #[test]
    fn depth_lookup() {
        let t = sample_tree();
        assert_eq!(t.depth_of(RouterId(0)), Some(0));
        assert_eq!(t.depth_of(RouterId(1)), Some(1));
        assert_eq!(t.depth_of(RouterId(6)), Some(3));
        assert_eq!(t.depth_of(RouterId(42)), None);
    }
}
