//! Regular topologies for unit tests and analytical sanity checks.

use crate::{RouterId, Topology, TopologyBuilder};

/// A path of `n` routers: `0 - 1 - ... - n-1`.
pub fn line(n: usize) -> Topology {
    let mut b = TopologyBuilder::with_routers(n);
    for i in 0..n.saturating_sub(1) {
        b.link(RouterId(i as u32), RouterId(i as u32 + 1), 1_000)
            .expect("ids in range");
    }
    b.build()
}

/// A cycle of `n >= 3` routers (for n < 3, falls back to [`line()`]).
pub fn ring(n: usize) -> Topology {
    if n < 3 {
        return line(n);
    }
    let mut b = TopologyBuilder::with_routers(n);
    for i in 0..n {
        b.link(RouterId(i as u32), RouterId(((i + 1) % n) as u32), 1_000)
            .expect("ids in range");
    }
    b.build()
}

/// A star: router 0 in the center, `n_leaves` degree-1 routers around it.
pub fn star(n_leaves: usize) -> Topology {
    let mut b = TopologyBuilder::with_routers(n_leaves + 1);
    for i in 1..=n_leaves {
        b.link(RouterId(0), RouterId(i as u32), 1_000)
            .expect("ids in range");
    }
    b.build()
}

/// A `w × h` grid; router `(x, y)` has id `y*w + x`.
pub fn grid(w: usize, h: usize) -> Topology {
    let mut b = TopologyBuilder::with_routers(w * h);
    let id = |x: usize, y: usize| RouterId((y * w + x) as u32);
    for y in 0..h {
        for x in 0..w {
            if x + 1 < w {
                b.link(id(x, y), id(x + 1, y), 1_000).expect("ids in range");
            }
            if y + 1 < h {
                b.link(id(x, y), id(x, y + 1), 1_000).expect("ids in range");
            }
        }
    }
    b.build()
}

/// A complete balanced binary tree of the given `depth` (depth 0 = root
/// only); router 0 is the root, children of `i` are `2i+1`, `2i+2`.
pub fn binary_tree(depth: u32) -> Topology {
    let n = (1usize << (depth + 1)) - 1;
    let mut b = TopologyBuilder::with_routers(n);
    for i in 0..n {
        for child in [2 * i + 1, 2 * i + 2] {
            if child < n {
                b.link(RouterId(i as u32), RouterId(child as u32), 1_000)
                    .expect("ids in range");
            }
        }
    }
    b.build()
}

/// The complete graph on `n` routers.
pub fn complete(n: usize) -> Topology {
    let mut b = TopologyBuilder::with_routers(n);
    for i in 0..n {
        for j in (i + 1)..n {
            b.link(RouterId(i as u32), RouterId(j as u32), 1_000)
                .expect("ids in range");
        }
    }
    b.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analysis::{exact_diameter, is_connected};

    #[test]
    fn line_shape() {
        let t = line(5);
        assert_eq!(t.n_links(), 4);
        assert_eq!(exact_diameter(&t), 4);
        assert_eq!(t.access_routers().len(), 2);
    }

    #[test]
    fn ring_shape() {
        let t = ring(6);
        assert_eq!(t.n_links(), 6);
        assert_eq!(exact_diameter(&t), 3);
        assert!(t.access_routers().is_empty());
        // Degenerate sizes fall back to a line.
        assert_eq!(ring(2).n_links(), 1);
    }

    #[test]
    fn star_shape() {
        let t = star(7);
        assert_eq!(t.degree(RouterId(0)), 7);
        assert_eq!(t.access_routers().len(), 7);
        assert_eq!(exact_diameter(&t), 2);
    }

    #[test]
    fn grid_shape() {
        let t = grid(3, 4);
        assert_eq!(t.n_routers(), 12);
        assert_eq!(t.n_links(), 3 * 3 + 2 * 4); // vertical + horizontal
        assert_eq!(exact_diameter(&t), 2 + 3);
        assert!(is_connected(&t));
    }

    #[test]
    fn tree_shape() {
        let t = binary_tree(3);
        assert_eq!(t.n_routers(), 15);
        assert_eq!(t.n_links(), 14);
        assert_eq!(t.access_routers().len(), 8); // the leaves
        assert_eq!(exact_diameter(&t), 6);
    }

    #[test]
    fn complete_shape() {
        let t = complete(5);
        assert_eq!(t.n_links(), 10);
        assert_eq!(exact_diameter(&t), 1);
    }
}
