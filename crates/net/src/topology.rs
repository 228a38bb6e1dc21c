//! Aggregation-tree topologies (paper §III-A, Figure 1), held in one
//! struct-of-arrays arena.
//!
//! Sources are the leaves; aggregators are internal nodes; the root
//! aggregator is the network sink, which alone talks to the querier. The
//! paper's experiments use a *complete tree* with aggregator fanout `F`
//! ([`Topology::complete_tree`]); [`Topology::random_tree`] additionally
//! builds irregular trees for robustness testing, since "the tree
//! topology can be arbitrary".
//!
//! Both builders number nodes the same way. Sources are nodes `0..N`.
//! Each level is cut into consecutive groups, and each group gets the
//! next aggregator id, until one aggregator (the sink) remains — also
//! for `N = 1`, so the querier always talks to an aggregator. A node's
//! children are therefore consecutive ids in child order, every parent
//! id exceeds its children's, and the sink is the last node.
//!
//! Node ids index dense `u32` vectors: every node's children occupy one
//! contiguous `(start, len)` range of a single child array, and the
//! post-order the epoch walk follows is computed once, at build time.
//! Two layout facts carry the walk (`crate::pipeline`):
//!
//! * **Subtree contiguity.** In the post-order array the subtree of any
//!   node `v` is the contiguous segment ending at `v`'s own position
//!   ([`subtree_range`](Topology::subtree_range)). The walk can
//!   therefore cut the array anywhere, not only between the sink's child
//!   subtrees: each shard is a plain slice range merged serially in
//!   exactly the order the serial walk would use, and the only nodes it
//!   cannot merge alone are the ones whose segment begins before it —
//!   proper ancestors of its first position, known from the ranges.
//! * **Dense `u32` indices.** All per-node state is `u32`, so the arena
//!   costs ~40 bytes/node ([`bytes`](Topology::bytes)) and a
//!   10⁶-sensor tree fits comfortably in cache-friendly flat storage.
//!
//! The `flat_equivalence` tests hold both builders, and every epoch
//! walked over them, to an independent pointer-tree reference that
//! lives in test code.

use rand::Rng;
use rand::RngCore;
use sies_core::SourceId;
use std::collections::{BTreeMap, HashSet};
use std::ops::Range;

/// Index of a node within a [`Topology`].
pub type NodeId = usize;

/// Sentinel for "no node" in the `u32` arrays (the sink's parent).
const NO_NODE: u32 = u32::MAX;
/// Sentinel marking an aggregator in the `source_of` array.
const NOT_SOURCE: u32 = u32::MAX;

/// The within-epoch re-homing plan for children orphaned by crashed
/// nodes (recovery protocol, see `sies_net::recovery`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RepairPlan {
    /// Orphan → adopting backup parent (ordered for deterministic
    /// replay under a fixed seed).
    pub adoptions: BTreeMap<NodeId, NodeId>,
    /// Live nodes with no live ancestor (possible only when the sink
    /// itself crashed); their subtrees are lost for the epoch.
    pub stranded: Vec<NodeId>,
}

impl RepairPlan {
    /// True when no node needed re-homing.
    pub fn is_empty(&self) -> bool {
        self.adoptions.is_empty() && self.stranded.is_empty()
    }
}

/// An aggregation tree as flat struct-of-arrays storage, with the epoch
/// walk's post-order precomputed.
#[derive(Debug, Clone)]
pub struct Topology {
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
    /// Node hosting each source id.
    source_node: Vec<u32>,
    /// Post-order traversal (children before parents, last child first).
    post: Vec<u32>,
    /// Position of each node in `post`.
    post_index: Vec<u32>,
    /// Nodes in the subtree rooted at each node (itself included).
    subtree_size: Vec<u32>,
    root: u32,
    num_sources: u64,
}

impl Topology {
    /// Builds the paper's experimental topology: `num_sources` leaves under
    /// a complete tree of aggregators with fanout `fanout`.
    ///
    /// Construction is bottom-up: every group of up to `fanout` nodes at
    /// one level is adopted by a fresh aggregator at the next level, until
    /// a single sink remains. With `num_sources = 1` a single aggregator
    /// (the sink) still exists so the querier always talks to an
    /// aggregator.
    pub fn complete_tree(num_sources: u64, fanout: usize) -> Self {
        assert!(num_sources >= 1, "need at least one source");
        assert!(fanout >= 2, "fanout must be at least 2");
        Self::build(num_sources, |left| fanout.min(left))
    }

    /// Builds a random irregular tree: aggregators get between 1 and
    /// `max_fanout` children, sampled with `rng`, one draw per
    /// aggregator, level by level from the sources up.
    pub fn random_tree(rng: &mut dyn RngCore, num_sources: u64, max_fanout: usize) -> Self {
        assert!(num_sources >= 1);
        assert!(max_fanout >= 2);
        Self::build(num_sources, |left| {
            rng.random_range(1..=max_fanout).min(left)
        })
    }

    /// A copy of `topo`. Kept only for `benchmark/src/sut.rs`, which
    /// still converts the tree it builds; the next benchmark change drops
    /// it together with [`FlatTopology`](crate::FlatTopology) and the
    /// benchmark's `System::topo`.
    pub fn from_topology(topo: &Topology) -> Topology {
        topo.clone()
    }

    /// Builds the tree bottom-up: `group(left)` sizes the next group of
    /// a level that still has `left` nodes without a parent.
    fn build(num_sources: u64, mut group: impl FnMut(usize) -> usize) -> Self {
        const TOO_MANY: &str = "node count exceeds u32 index space";
        assert!(num_sources < u64::from(NO_NODE), "{TOO_MANY}");
        let sources = num_sources as usize;
        // Each aggregator's child count, in id order. A level is a
        // consecutive id range; the sources' level is always cut, so even
        // one source gets a sink.
        let mut groups: Vec<u32> = Vec::new();
        let mut level = 0..sources;
        loop {
            let mut left = level.len();
            while left > 0 {
                let take = group(left);
                groups.push(take as u32);
                left -= take;
                assert!(sources + groups.len() < NO_NODE as usize, "{TOO_MANY}");
            }
            level = level.end..sources + groups.len();
            if level.len() == 1 {
                break;
            }
        }

        let n = sources + groups.len();
        let root = n - 1;
        let mut child_len = Vec::with_capacity(n);
        child_len.resize(sources, 0);
        child_len.extend_from_slice(&groups);
        drop(groups);
        // Groups take each level's nodes in id order, so the child lists,
        // concatenated in node-id order, are every node but the sink.
        let children: Vec<u32> = (0..root as u32).collect();
        let mut child_start = Vec::with_capacity(n);
        let mut parent = Vec::with_capacity(n);
        let mut next_child = 0u32;
        for (id, &len) in child_len.iter().enumerate() {
            child_start.push(next_child);
            next_child += len;
            parent.extend(std::iter::repeat_n(id as u32, len as usize));
        }
        parent.push(NO_NODE);
        // Every parent id exceeds its children's: one descending pass.
        let mut depth = vec![0u32; n];
        for id in (0..root).rev() {
            depth[id] = depth[parent[id] as usize] + 1;
        }
        let source_of: Vec<u32> = (0..n as u32)
            .map(|id| if id < sources as u32 { id } else { NOT_SOURCE })
            .collect();
        let source_node: Vec<u32> = (0..sources as u32).collect();

        // Children are pushed in order and popped in reverse, so the walk
        // visits each node's last child first.
        let mut post = Vec::with_capacity(n);
        let mut stack: Vec<(u32, bool)> = vec![(root as u32, false)];
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

        Topology {
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
            root: root as u32,
            num_sources,
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
        &self.children[s..s + self.child_len[id] as usize]
    }

    /// Hop distance from the sink (sink = 0).
    pub fn depth(&self, id: NodeId) -> usize {
        self.depth[id] as usize
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

    /// The node hosting `source`, in O(1).
    pub fn source_node(&self, source: SourceId) -> Option<NodeId> {
        match self.source_node.get(source as usize) {
            Some(&n) if n != NO_NODE => Some(n as usize),
            _ => None,
        }
    }

    /// The precomputed post-order traversal (children before parents,
    /// last child first), allocation-free: the walk reads this cached
    /// slice every epoch.
    pub fn post_order(&self) -> &[u32] {
        &self.post
    }

    /// Position of `id` within [`post_order`](Self::post_order).
    pub fn post_position(&self, id: NodeId) -> usize {
        self.post_index[id] as usize
    }

    /// The contiguous range of [`post_order`](Self::post_order) holding
    /// exactly the subtree rooted at `id` (the node itself is the last
    /// element). This contiguity is what lets the walk shard the
    /// post-order as slice ranges.
    pub fn subtree_range(&self, id: NodeId) -> Range<usize> {
        let end = self.post_index[id] as usize + 1;
        end - self.subtree_size[id] as usize..end
    }

    /// The designated backup parent for `orphan` when its parent is in
    /// `crashed`: the nearest live ancestor of the original parent.
    /// Returns `None` when every ancestor up to and including the sink
    /// crashed (the orphan is stranded for this epoch).
    ///
    /// Adopting an ancestor preserves correctness because merging is
    /// associative and commutative: the orphan's partial state reaches
    /// the sink through a shorter path, fused one level higher than
    /// planned.
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

    /// Plans the within-epoch topology repair for a set of crashed nodes:
    /// every live child of a crashed node re-attaches to its
    /// [`backup_parent`](Self::backup_parent). Stranded nodes are listed
    /// in id order.
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

    /// Sorted source ids in the subtree of `id`, from its post-order
    /// segment.
    fn sources_under(t: &Topology, id: NodeId) -> Vec<SourceId> {
        let mut out: Vec<SourceId> = t.post_order()[t.subtree_range(id)]
            .iter()
            .filter_map(|&n| t.source_id(n as usize))
            .collect();
        out.sort_unstable();
        out
    }

    /// Tree height (max depth over nodes).
    fn height(t: &Topology) -> usize {
        (0..t.num_nodes()).map(|id| t.depth(id)).max().unwrap_or(0)
    }

    /// The post-order of `id`'s subtree by recursion: last child first.
    fn post_order_of(t: &Topology, id: NodeId, out: &mut Vec<u32>) {
        for &c in t.children(id).iter().rev() {
            post_order_of(t, c as usize, out);
        }
        out.push(id as u32);
    }

    #[test]
    fn paper_default_topology() {
        // N = 1024, F = 4: a complete 4-ary tree of aggregators.
        let t = Topology::complete_tree(1024, 4);
        t.validate().unwrap();
        assert_eq!(t.num_sources(), 1024);
        // 256 + 64 + 16 + 4 + 1 aggregators.
        assert_eq!(t.num_nodes() - 1024, 256 + 64 + 16 + 4 + 1);
        assert_eq!(height(&t), 5);
        assert!(!t.is_source(t.root()));
    }

    #[test]
    fn single_source_still_has_sink() {
        let t = Topology::complete_tree(1, 4);
        t.validate().unwrap();
        assert_eq!(t.num_nodes(), 2);
        assert!(!t.is_source(t.root()));
        assert_eq!(height(&t), 1);
    }

    #[test]
    fn non_divisible_source_count() {
        let t = Topology::complete_tree(10, 4);
        t.validate().unwrap();
        // level1: ceil(10/4)=3 aggs, level2: 1 agg.
        assert_eq!(t.num_nodes() - 10, 4);
    }

    #[test]
    fn post_order_visits_children_first() {
        let t = Topology::complete_tree(16, 4);
        let order = t.post_order();
        assert_eq!(order.len(), t.num_nodes());
        let mut seen = vec![false; t.num_nodes()];
        for &id in order {
            for &c in t.children(id as usize) {
                assert!(seen[c as usize], "child {c} visited after parent {id}");
            }
            seen[id as usize] = true;
        }
    }

    #[test]
    fn sources_under_root_is_everything() {
        let t = Topology::complete_tree(64, 2);
        let s = sources_under(&t, t.root());
        assert_eq!(s, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn sources_under_subtree_is_partial() {
        let t = Topology::complete_tree(16, 4);
        let first_agg = t.children(t.root())[0] as usize;
        let s = sources_under(&t, first_agg);
        assert!(!s.is_empty() && s.len() < 16);
    }

    #[test]
    fn source_node_lookup() {
        let t = Topology::complete_tree(8, 2);
        let id = t.source_node(3).unwrap();
        assert_eq!(t.source_id(id), Some(3));
        assert!(t.source_node(99).is_none());
    }

    #[test]
    fn random_trees_are_valid() {
        let mut rng = StdRng::seed_from_u64(21);
        for n in [1u64, 2, 7, 33, 100] {
            for fan in [2usize, 3, 6] {
                let t = Topology::random_tree(&mut rng, n, fan);
                t.validate().unwrap();
                assert_eq!(t.num_sources(), n);
                assert_eq!(sources_under(&t, t.root()).len() as u64, n);
            }
        }
    }

    #[test]
    fn fanout_bounds_respected() {
        let t = Topology::complete_tree(100, 5);
        for id in 0..t.num_nodes() {
            assert!(t.children(id).len() <= 5);
        }
    }

    #[test]
    fn backup_parent_is_grandparent() {
        let t = Topology::complete_tree(16, 4);
        let agg = t.children(t.root())[0] as usize;
        let crashed: HashSet<NodeId> = [agg].into();
        for &child in t.children(agg) {
            assert_eq!(t.backup_parent(child as usize, &crashed), Some(t.root()));
        }
    }

    #[test]
    fn backup_parent_skips_crashed_ancestors() {
        // 64 sources, fanout 2: deep tree. Crash a node and its parent;
        // the orphan must re-home two levels up.
        let t = Topology::complete_tree(64, 2);
        let l1 = t.children(t.root())[0] as usize;
        let l2 = t.children(l1)[0] as usize;
        let crashed: HashSet<NodeId> = [l1, l2].into();
        for &child in t.children(l2) {
            assert_eq!(t.backup_parent(child as usize, &crashed), Some(t.root()));
        }
    }

    #[test]
    fn repair_plan_adopts_all_orphans() {
        let t = Topology::complete_tree(16, 4);
        let agg = t.children(t.root())[1] as usize;
        let crashed: HashSet<NodeId> = [agg].into();
        let plan = t.repair_plan(&crashed);
        assert_eq!(plan.adoptions.len(), t.children(agg).len());
        assert!(plan.stranded.is_empty());
        for (&orphan, &adopter) in &plan.adoptions {
            assert_eq!(t.parent(orphan), Some(agg));
            assert_eq!(adopter, t.root());
        }
    }

    #[test]
    fn crashed_sink_strands_children() {
        let t = Topology::complete_tree(16, 4);
        let crashed: HashSet<NodeId> = [t.root()].into();
        let plan = t.repair_plan(&crashed);
        assert!(plan.adoptions.is_empty());
        assert_eq!(plan.stranded.len(), t.children(t.root()).len());
    }

    #[test]
    fn no_crashes_empty_plan() {
        let t = Topology::complete_tree(8, 2);
        assert!(t.repair_plan(&HashSet::new()).is_empty());
    }

    #[test]
    fn builders_number_levels_consecutively() {
        // 10 sources, fanout 4: groups {0..4}, {4..8}, {8, 9} become
        // aggregators 10, 11, 12, and those the sink 13.
        let t = Topology::complete_tree(10, 4);
        t.validate().unwrap();
        let kids = |id| t.children(id).to_vec();
        assert_eq!(kids(10), [0, 1, 2, 3]);
        assert_eq!(kids(11), [4, 5, 6, 7]);
        assert_eq!(kids(12), [8, 9]);
        assert_eq!(kids(13), [10, 11, 12]);
        assert_eq!(t.root(), 13);
        assert_eq!((t.depth(13), t.depth(12), t.depth(9)), (0, 1, 2));
        let mut rng = StdRng::seed_from_u64(9);
        let t = Topology::random_tree(&mut rng, 47, 5);
        for id in 0..t.num_nodes() {
            assert_eq!(t.source_id(id), (id < 47).then_some(id as SourceId));
            let c = t.children(id);
            assert!(c.windows(2).all(|w| w[1] == w[0] + 1), "node {id}: {c:?}");
            if let Some(p) = t.parent(id) {
                assert!(p > id && t.depth(id) == t.depth(p) + 1);
            }
        }
        assert_eq!(t.root(), t.num_nodes() - 1);
    }

    #[test]
    fn post_order_is_last_child_first() {
        for (n, f) in [(1u64, 2usize), (10, 4), (64, 2), (1000, 4)] {
            let t = Topology::complete_tree(n, f);
            let mut want = Vec::new();
            post_order_of(&t, t.root(), &mut want);
            assert_eq!(t.post_order(), &want[..], "n={n} f={f}");
        }
    }

    #[test]
    fn subtree_ranges_are_contiguous_subtrees() {
        let mut rng = StdRng::seed_from_u64(5);
        let t = Topology::random_tree(&mut rng, 47, 5);
        t.validate().unwrap();
        for id in 0..t.num_nodes() {
            let seg = &t.post_order()[t.subtree_range(id)];
            assert_eq!(*seg.last().unwrap() as usize, id);
            let mut want = Vec::new();
            post_order_of(&t, id, &mut want);
            assert_eq!(seg, &want[..], "node {id}");
        }
    }

    #[test]
    fn source_node_inverts_source_id() {
        let t = Topology::complete_tree(33, 3);
        for s in 0..33u32 {
            let node = t.source_node(s).unwrap();
            assert_eq!(t.source_id(node), Some(s));
        }
        assert_eq!(t.source_node(999), None);
    }

    #[test]
    fn repair_plans_for_nested_crashes() {
        let t = Topology::complete_tree(64, 4);
        let root = t.root();
        let agg = t.children(root)[1] as usize;
        let lower = t.children(agg)[0] as usize;
        let kids = |id: NodeId| t.children(id).iter().map(|&c| c as NodeId);
        let adopted_by_root = |ids: Vec<NodeId>| ids.into_iter().map(|c| (c, root)).collect();
        assert!(t.repair_plan(&HashSet::new()).is_empty());
        let plan = t.repair_plan(&HashSet::from([agg]));
        assert_eq!(plan.adoptions, adopted_by_root(kids(agg).collect()));
        // With `lower` down too, its children skip both crashed levels.
        let plan = t.repair_plan(&HashSet::from([agg, lower]));
        let orphans = kids(agg).filter(|&c| c != lower).chain(kids(lower));
        assert_eq!(plan.adoptions, adopted_by_root(orphans.collect()));
        assert!(plan.stranded.is_empty());
        let plan = t.repair_plan(&HashSet::from([root]));
        assert!(plan.adoptions.is_empty());
        assert_eq!(plan.stranded, kids(root).collect::<Vec<_>>());
    }

    #[test]
    fn arena_stays_under_byte_budget() {
        let t = Topology::complete_tree(10_000, 4);
        let per_node = t.bytes() as f64 / t.num_nodes() as f64;
        assert!(per_node < 64.0, "arena costs {per_node:.1} B/node");
    }
}
