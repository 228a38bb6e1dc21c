//! Struct-of-arrays aggregation-tree arena for million-sensor
//! populations.
//!
//! [`FlatTopology`] re-encodes a [`Topology`] into dense parallel
//! vectors: node ids are indices, every node's children occupy one
//! contiguous `(start, len)` range of a single child array, and the
//! post-order the epoch engine walks is precomputed once. The legacy
//! node numbering is preserved exactly, so the arena is a drop-in view:
//! every query (`post_order`, `repair_plan`, `backup_parent`,
//! `sources_under`) returns byte-identical answers to the pointer-based
//! `Vec<Node>` representation — a property the `flat_equivalence`
//! property tests pin down on random trees and random crash sets.
//!
//! Two layout facts carry the streamed epoch pipeline
//! (`crate::pipeline`):
//!
//! * **Subtree contiguity.** In the post-order array the subtree of any
//!   node `v` is the contiguous segment ending at `v`'s own position
//!   ([`subtree_range`](FlatTopology::subtree_range)). The walk can
//!   therefore cut the array anywhere, not only between the sink's child
//!   subtrees: each shard is a plain slice range merged serially in
//!   exactly the order the serial walk would use, and the only nodes it
//!   cannot merge alone are the ones whose segment begins before it —
//!   proper ancestors of its first position, known from the ranges.
//! * **Dense `u32` indices.** All per-node state is `u32`, so the arena
//!   costs ~40 bytes/node ([`bytes`](FlatTopology::bytes)) and a
//!   10⁶-sensor tree fits comfortably in cache-friendly flat storage.

use crate::topology::{NodeId, RepairPlan, Role, Topology};
use sies_core::SourceId;
use std::collections::HashSet;
use std::ops::Range;

/// Sentinel for "no node" in the `u32` arrays (the sink's parent).
const NO_NODE: u32 = u32::MAX;
/// Sentinel marking an aggregator in the `source_of` array.
const NOT_SOURCE: u32 = u32::MAX;

/// A [`Topology`] re-encoded as flat struct-of-arrays storage with the
/// engine's post-order precomputed. Node ids equal the legacy ids.
#[derive(Debug, Clone)]
pub struct FlatTopology {
    /// Parent of each node (`NO_NODE` for the sink).
    parent: Vec<u32>,
    /// Start of each node's child range in `children`.
    child_start: Vec<u32>,
    /// Length of each node's child range.
    child_len: Vec<u32>,
    /// All child lists, concatenated in node-id order.
    children: Vec<u32>,
    /// Hop distance from the sink.
    depth: Vec<u32>,
    /// Source id of each node, or `NOT_SOURCE` for aggregators.
    source_of: Vec<u32>,
    /// Node hosting each source id (O(1) lookup, vs the legacy O(N) scan).
    source_node: Vec<u32>,
    /// Post-order traversal, identical to [`Topology::post_order`].
    post: Vec<u32>,
    /// Position of each node in `post`.
    post_index: Vec<u32>,
    /// Nodes in the subtree rooted at each node (itself included).
    subtree_size: Vec<u32>,
    root: u32,
    num_sources: u64,
}

impl From<&Topology> for FlatTopology {
    fn from(topo: &Topology) -> Self {
        FlatTopology::from_topology(topo)
    }
}

impl FlatTopology {
    /// Flattens `topo`, preserving node ids, child order, and the exact
    /// post-order sequence of [`Topology::post_order`].
    pub fn from_topology(topo: &Topology) -> Self {
        let nodes = topo.nodes();
        let n = nodes.len();
        assert!(n < NO_NODE as usize, "node count exceeds u32 index space");

        let mut parent = Vec::with_capacity(n);
        let mut child_start = Vec::with_capacity(n);
        let mut child_len = Vec::with_capacity(n);
        let mut children = Vec::with_capacity(n.saturating_sub(1));
        let mut depth = Vec::with_capacity(n);
        let mut source_of = vec![NOT_SOURCE; n];
        let mut source_node = vec![NO_NODE; topo.num_sources() as usize];
        for node in nodes {
            parent.push(node.parent.map_or(NO_NODE, |p| p as u32));
            child_start.push(children.len() as u32);
            child_len.push(node.children.len() as u32);
            children.extend(node.children.iter().map(|&c| c as u32));
            depth.push(node.depth as u32);
            if let Role::Source(sid) = node.role {
                source_of[node.id] = sid;
                source_node[sid as usize] = node.id as u32;
            }
        }

        // Same traversal as the legacy `post_order` (children pushed in
        // order, popped in reverse), so the sequences are identical.
        let root = topo.root() as u32;
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(u32, bool)> = vec![(root, false)];
        while let Some((id, expanded)) = stack.pop() {
            if expanded {
                post.push(id);
            } else {
                stack.push((id, true));
                let s = child_start[id as usize] as usize;
                let l = child_len[id as usize] as usize;
                for &c in &children[s..s + l] {
                    stack.push((c, false));
                }
            }
        }

        let mut post_index = vec![0u32; n];
        for (i, &id) in post.iter().enumerate() {
            post_index[id as usize] = i as u32;
        }
        // Children precede parents in post-order, so one forward pass
        // accumulates subtree sizes bottom-up.
        let mut subtree_size = vec![0u32; n];
        for &id in &post {
            let s = child_start[id as usize] as usize;
            let l = child_len[id as usize] as usize;
            let mut size = 1u32;
            for &c in &children[s..s + l] {
                size += subtree_size[c as usize];
            }
            subtree_size[id as usize] = size;
        }

        FlatTopology {
            parent,
            child_start,
            child_len,
            children,
            depth,
            source_of,
            source_node,
            post,
            post_index,
            subtree_size,
            root,
            num_sources: topo.num_sources(),
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.parent.len()
    }

    /// The sink (root aggregator).
    pub fn root(&self) -> NodeId {
        self.root as usize
    }

    /// Number of source leaves.
    pub fn num_sources(&self) -> u64 {
        self.num_sources
    }

    /// Number of aggregator nodes.
    pub fn num_aggregators(&self) -> usize {
        self.num_nodes() - self.num_sources as usize
    }

    /// Parent node (`None` for the sink).
    pub fn parent(&self, id: NodeId) -> Option<NodeId> {
        match self.parent[id] {
            NO_NODE => None,
            p => Some(p as usize),
        }
    }

    /// This node's children as a dense slice (empty for sources).
    pub fn children(&self, id: NodeId) -> &[u32] {
        let s = self.child_start[id] as usize;
        s.checked_add(self.child_len[id] as usize)
            .map(|e| &self.children[s..e])
            .unwrap_or(&[])
    }

    /// Hop distance from the sink (sink = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.depth[id] as usize
    }

    /// The node's role, reconstructed from the arena.
    pub fn role(&self, id: NodeId) -> Role {
        match self.source_of[id] {
            NOT_SOURCE => Role::Aggregator,
            sid => Role::Source(sid as SourceId),
        }
    }

    /// True when `id` is a source leaf.
    pub fn is_source(&self, id: NodeId) -> bool {
        self.source_of[id] != NOT_SOURCE
    }

    /// The source id hosted at `id`, if it is a source.
    pub fn source_id(&self, id: NodeId) -> Option<SourceId> {
        match self.source_of[id] {
            NOT_SOURCE => None,
            sid => Some(sid as SourceId),
        }
    }

    /// The node hosting `source` — O(1), unlike the legacy linear scan.
    pub fn source_node(&self, source: SourceId) -> Option<NodeId> {
        match self.source_node.get(source as usize) {
            Some(&n) if n != NO_NODE => Some(n as usize),
            _ => None,
        }
    }

    /// The precomputed post-order traversal (children before parents),
    /// identical to [`Topology::post_order`] but allocation-free: the
    /// engine walks this cached slice every epoch.
    pub fn post_order(&self) -> &[u32] {
        &self.post
    }

    /// Position of `id` within [`post_order`](Self::post_order).
    pub fn post_position(&self, id: NodeId) -> usize {
        self.post_index[id] as usize
    }

    /// Nodes in the subtree rooted at `id` (itself included).
    pub fn subtree_size(&self, id: NodeId) -> usize {
        self.subtree_size[id] as usize
    }

    /// The contiguous range of [`post_order`](Self::post_order) holding
    /// exactly the subtree rooted at `id` (the node itself is the last
    /// element). This contiguity is what lets the walk shard the
    /// post-order as slice ranges.
    pub fn subtree_range(&self, id: NodeId) -> Range<usize> {
        let end = self.post_index[id] as usize + 1;
        end - self.subtree_size[id] as usize..end
    }

    /// All source ids in the subtree rooted at `id`, sorted (matching
    /// [`Topology::sources_under`]).
    pub fn sources_under(&self, id: NodeId) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = self.post[self.subtree_range(id)]
            .iter()
            .filter_map(|&n| self.source_id(n as usize))
            .collect();
        out.sort_unstable();
        out
    }

    /// The designated backup parent for `orphan` under `crashed`: the
    /// nearest live ancestor of the original parent (see
    /// [`Topology::backup_parent`]).
    pub fn backup_parent(&self, orphan: NodeId, crashed: &HashSet<NodeId>) -> Option<NodeId> {
        let mut candidate = self.parent(orphan);
        while let Some(id) = candidate {
            if !crashed.contains(&id) {
                return Some(id);
            }
            candidate = self.parent(id);
        }
        None
    }

    /// Plans within-epoch repair for `crashed` nodes, producing exactly
    /// the plan [`Topology::repair_plan`] would (same adoption map, same
    /// stranded order).
    pub fn repair_plan(&self, crashed: &HashSet<NodeId>) -> RepairPlan {
        let mut plan = RepairPlan::default();
        for id in 0..self.num_nodes() {
            if crashed.contains(&id) {
                continue;
            }
            let Some(parent) = self.parent(id) else {
                continue;
            };
            if !crashed.contains(&parent) {
                continue;
            }
            match self.backup_parent(id, crashed) {
                Some(backup) => {
                    plan.adoptions.insert(id, backup);
                }
                None => plan.stranded.push(id),
            }
        }
        plan
    }

    /// Heap bytes held by the arena — the numerator of the
    /// bytes-per-node budget the throughput artifact reports.
    pub fn bytes(&self) -> usize {
        use std::mem::size_of;
        (self.parent.capacity()
            + self.child_start.capacity()
            + self.child_len.capacity()
            + self.children.capacity()
            + self.depth.capacity()
            + self.source_of.capacity()
            + self.source_node.capacity()
            + self.post.capacity()
            + self.post_index.capacity()
            + self.subtree_size.capacity())
            * size_of::<u32>()
    }

    /// Checks the arena's structural invariants (parent/child symmetry,
    /// subtree contiguity, post-order completeness).
    pub fn validate(&self) -> Result<(), String> {
        let n = self.num_nodes();
        if self.post.len() != n {
            return Err(format!(
                "post-order covers {} of {} nodes",
                self.post.len(),
                n
            ));
        }
        for id in 0..n {
            for &c in self.children(id) {
                if self.parent(c as usize) != Some(id) {
                    return Err(format!("child {c} does not point back to {id}"));
                }
                let cr = self.subtree_range(c as usize);
                let pr = self.subtree_range(id);
                if cr.start < pr.start || cr.end > pr.end {
                    return Err(format!("subtree of {c} escapes its parent {id}'s range"));
                }
            }
            if self.is_source(id) && !self.children(id).is_empty() {
                return Err(format!("source node {id} has children"));
            }
            if self.post[self.post_index[id] as usize] as usize != id {
                return Err(format!("post_index broken at node {id}"));
            }
        }
        if self.subtree_size[self.root as usize] as usize != n {
            return Err("root subtree does not cover the tree".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn flatten(n: u64, f: usize) -> (Topology, FlatTopology) {
        let topo = Topology::complete_tree(n, f);
        let flat = FlatTopology::from_topology(&topo);
        (topo, flat)
    }

    #[test]
    fn mirrors_legacy_layout() {
        let (topo, flat) = flatten(64, 4);
        flat.validate().unwrap();
        assert_eq!(flat.num_nodes(), topo.nodes().len());
        assert_eq!(flat.root(), topo.root());
        assert_eq!(flat.num_sources(), topo.num_sources());
        assert_eq!(flat.num_aggregators(), topo.num_aggregators());
        for node in topo.nodes() {
            assert_eq!(flat.parent(node.id), node.parent);
            assert_eq!(flat.depth(node.id), node.depth);
            assert_eq!(flat.role(node.id), node.role);
            let kids: Vec<NodeId> = flat.children(node.id).iter().map(|&c| c as usize).collect();
            assert_eq!(kids, node.children);
        }
    }

    #[test]
    fn post_order_matches_legacy_exactly() {
        for (n, f) in [(1u64, 2usize), (10, 4), (64, 2), (1000, 4)] {
            let (topo, flat) = flatten(n, f);
            let flat_order: Vec<NodeId> = flat.post_order().iter().map(|&i| i as usize).collect();
            assert_eq!(flat_order, topo.post_order(), "n={n} f={f}");
        }
    }

    #[test]
    fn subtree_ranges_are_contiguous_subtrees() {
        let mut rng = StdRng::seed_from_u64(5);
        let topo = Topology::random_tree(&mut rng, 47, 5);
        let flat = FlatTopology::from_topology(&topo);
        flat.validate().unwrap();
        for id in 0..flat.num_nodes() {
            let seg = &flat.post_order()[flat.subtree_range(id)];
            assert_eq!(*seg.last().unwrap() as usize, id);
            let mut sources: Vec<SourceId> = seg
                .iter()
                .filter_map(|&n| flat.source_id(n as usize))
                .collect();
            sources.sort_unstable();
            assert_eq!(sources, topo.sources_under(id), "node {id}");
        }
    }

    #[test]
    fn source_node_is_constant_time_equivalent() {
        let (topo, flat) = flatten(33, 3);
        for s in 0..33u32 {
            assert_eq!(flat.source_node(s), topo.source_node(s));
        }
        assert_eq!(flat.source_node(999), None);
    }

    #[test]
    fn repair_plans_match_legacy() {
        let (topo, flat) = flatten(64, 4);
        let agg = topo.node(topo.root()).children[1];
        for crashed in [
            HashSet::new(),
            HashSet::from([agg]),
            HashSet::from([agg, topo.node(agg).children[0]]),
            HashSet::from([topo.root()]),
        ] {
            assert_eq!(flat.repair_plan(&crashed), topo.repair_plan(&crashed));
        }
    }

    #[test]
    fn arena_stays_under_byte_budget() {
        let (_, flat) = flatten(10_000, 4);
        let per_node = flat.bytes() as f64 / flat.num_nodes() as f64;
        assert!(per_node < 64.0, "arena costs {per_node:.1} B/node");
    }
}
