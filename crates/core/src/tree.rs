//! Expansion trees (§3, §4), pooled.
//!
//! > "The expansion tree of q is a tree rooted at q that contains the
//! > shortest path between q and every node in the network with distance
//! > less than or equal to q.kNN_dist."
//!
//! The tree is the incremental-maintenance workhorse of IMA: update
//! handling prunes the invalidated part and re-expands from what remains.
//! That surgery — subtree cuts, θ-prunes, re-roots, re-expansion inserts —
//! runs on the per-tick critical path, so its data layout matters as much
//! as the read paths PR 3 flattened.
//!
//! # Arena-of-trees layout
//!
//! All trees of one monitor share a single [`TreePool`]: a slab of
//! fixed-size **intrusive** nodes (`dist`, verified network node, parent
//! slot + connecting edge, `first_child`/`next_sibling`/`prev_sibling`
//! links) backed by an [`rnn_roadnet::SlotPool`] with a free list. An
//! [`ExpansionTree`] is a lightweight handle: the head of its root chain
//! plus a private **epoch-stamped open-addressing directory** mapping
//! `NodeId → slot` (the same trick as the `BestK` dedup scratch — flat
//! array, Fibonacci-hashed probes, O(1) whole-tree invalidation by bumping
//! the epoch). Consequences:
//!
//! * membership/distance lookups are one short array probe, no hashing
//!   through a general-purpose map;
//! * inserting a node pops the free list — no per-node heap allocation,
//!   no per-node `children` vector;
//! * removing a subtree is pointer unlinking plus free-list pushes, with a
//!   stackless post-order walk (freed slots stay readable until they are
//!   re-allocated, and nothing allocates mid-walk);
//! * clearing or re-rooting invalidates the directory in O(1) via the
//!   epoch stamp instead of deleting entries one by one;
//! * released directories are recycled through the pool, so steady-state
//!   searches build their outcome trees entirely in reused capacity; a
//!   tree gets the smallest spare that fits it, and the spares never
//!   outweigh the directories of the live trees, so directory memory
//!   follows the trees alive now, not the largest the pool ever held.
//!
//! The only true allocations are slab growth and directory growth, both
//! amortised and both counted — they surface through
//! [`crate::counters::OpCounters::alloc_events`], extending the zero-alloc
//! steady-state guarantee from read-only ticks to ticks that perform tree
//! surgery. Free-list reuses are counted separately
//! ([`crate::counters::OpCounters::tree_nodes_recycled`]).
//!
//! Distances are monotonically non-decreasing from parent to child (edge
//! weights are positive), which several pruning operations rely on. The
//! root itself (a query point or an active node) is implicit; nodes whose
//! parent slot is [`NIL`] hang directly off the root.

use rnn_roadnet::{EdgeId, NodeId, RoadNetwork, SlotPool};

/// Sentinel for "no slot" in the intrusive links.
pub const NIL: u32 = u32::MAX;

/// One pooled, intrusive expansion-tree node.
#[derive(Clone, Copy, Debug)]
struct PoolNode {
    /// Network distance from the (implicit) root.
    dist: f64,
    /// The verified network node this slot represents.
    node: NodeId,
    /// Parent slot, [`NIL`] when attached directly to the root.
    parent: u32,
    /// Edge connecting to the parent (disambiguates parallel edges);
    /// meaningless when `parent == NIL`.
    parent_edge: EdgeId,
    /// Head of the child chain.
    first_child: u32,
    /// Next sibling in the parent's child chain (or in the root chain).
    next_sibling: u32,
    /// Previous sibling (doubly linked for O(1) unlink).
    prev_sibling: u32,
}

/// One slot of a tree's `NodeId → slot` directory.
#[derive(Clone, Copy, Debug)]
struct DirEntry {
    /// Epoch the entry was written in (0 = never; epochs start at 1).
    stamp: u32,
    /// Key: the network node.
    node: u32,
    /// Value: the pool slot holding the node's record.
    slot: u32,
}

const EMPTY_DIR: DirEntry = DirEntry {
    stamp: 0,
    node: 0,
    slot: NIL,
};

/// Smallest directory capacity carved for a tree's first node.
const MIN_DIR: usize = 16;

/// The monitor-wide arena all expansion trees of one [`crate::anchor::AnchorSet`]
/// (or one OVH monitor) live in. See the module docs for the layout.
#[derive(Default)]
pub struct TreePool {
    slots: SlotPool<PoolNode>,
    dirs: SpareDirs,
}

/// The pool's directories: how many entries live trees hold, and the
/// spares.
///
/// A tree is handed the smallest spare of one to two times what it needs,
/// else a fresh directory, so a directory follows its own tree's size.
/// Spares never hold more entries than the live trees' directories (the
/// largest spare goes first), so what the pool keeps follows the trees it
/// serves now, not the largest it ever held.
#[derive(Default)]
struct SpareDirs {
    /// Each spare with the epoch its stamps are valid up to.
    spare: Vec<(Vec<DirEntry>, u32)>,
    /// Entries in the spares.
    held: usize,
    /// Entries in the directories live trees hold.
    lent: usize,
    /// Directory growth events (slab growth is counted inside the slot
    /// pool).
    allocs: u64,
}

impl SpareDirs {
    /// Lends the smallest spare of `need` to `2·need` entries.
    fn take(&mut self, need: usize) -> Option<(Vec<DirEntry>, u32)> {
        let best = self
            .spare
            .iter()
            .enumerate()
            .filter(|(_, (d, _))| (need..=2 * need).contains(&d.len()))
            .min_by_key(|(_, (d, _))| d.len())
            .map(|(i, _)| i)?;
        let (dir, epoch) = self.spare.swap_remove(best);
        self.held -= dir.len();
        self.lent += dir.len();
        Some((dir, epoch))
    }

    /// Lends a fresh directory of `need` entries (a counted alloc event).
    fn carve(&mut self, need: usize) -> Vec<DirEntry> {
        self.allocs += 1;
        self.lent += need;
        // lint: allow(hot-path-alloc): amortized capacity growth; counted by alloc_events and pinned by the zero-alloc CI gate
        vec![EMPTY_DIR; need]
    }

    /// Takes back a directory a tree gave up, then drops the largest
    /// spares while the spares outweigh the live directories. The one
    /// given back still counts as live in that test, so even the last
    /// tree's directory is there for the next tree made.
    fn give_back(&mut self, dir: Vec<DirEntry>, epoch: u32) {
        let len = dir.len();
        self.held += len;
        self.spare.push((dir, epoch));
        while self.held > self.lent {
            let largest = self
                .spare
                .iter()
                .enumerate()
                .max_by_key(|(_, (d, _))| d.len())
                .map(|(i, _)| i)
                .expect("spares hold entries");
            self.held -= self.spare.swap_remove(largest).0.len();
        }
        self.lent = self.lent.saturating_sub(len);
    }

    fn memory_bytes(&self) -> usize {
        self.held * std::mem::size_of::<DirEntry>()
    }
}

/// A pooled expansion tree: the set of verified nodes with their
/// shortest-path links, stored as a handle into a [`TreePool`].
///
/// All mutating operations live on [`TreePool`] (they need the shared
/// slab); reads that only touch the directory ([`Self::contains`],
/// [`Self::len`]) need no pool reference. A non-empty tree must be given
/// back via [`TreePool::release`] (or consumed by a search as the kept
/// tree) — dropping the handle leaks its slots until the pool itself goes
/// away, which [`TreePool::live_nodes`]-based validation catches in tests.
#[derive(Debug)]
pub struct ExpansionTree {
    /// Head of the chain of nodes attached directly to the implicit root.
    first_root: u32,
    /// Number of verified nodes.
    len: u32,
    /// Entries live in the directory's current epoch (equals `len` except
    /// transiently inside a re-root walk).
    dir_live: u32,
    /// Current directory epoch; entries with an older stamp read as empty.
    epoch: u32,
    /// Open-addressing `NodeId → slot` directory, power-of-two sized.
    dir: Vec<DirEntry>,
}

impl Default for ExpansionTree {
    fn default() -> Self {
        Self {
            first_root: NIL,
            len: 0,
            dir_live: 0,
            epoch: 1,
            // lint: allow(hot-path-alloc): Vec::new/Fx*::default allocate nothing; first growth is charged to alloc_events, which the CI gate pins at zero in steady state
            dir: Vec::new(),
        }
    }
}

impl ExpansionTree {
    /// An empty tree with no directory capacity. Prefer
    /// [`TreePool::new_tree`], which recycles a released directory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of verified nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// Whether the tree has no verified nodes.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Directory slot index to probe first for `node` (Fibonacci hashing,
    /// as in `BestK`).
    #[inline]
    fn home(&self, node: u32) -> usize {
        debug_assert!(self.dir.len().is_power_of_two());
        let h = u64::from(node).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        (h >> (64 - self.dir.len().trailing_zeros())) as usize
    }

    /// The pool slot of `n`, if verified. One short linear probe.
    #[inline]
    fn slot_of(&self, n: NodeId) -> Option<u32> {
        if self.dir.is_empty() {
            return None;
        }
        let mask = self.dir.len() - 1;
        let mut i = self.home(n.0);
        loop {
            let e = self.dir[i];
            if e.stamp != self.epoch {
                return None;
            }
            if e.node == n.0 {
                return Some(e.slot);
            }
            i = (i + 1) & mask;
        }
    }

    /// Whether `n` is verified. Directory-only — needs no pool reference.
    #[inline]
    pub fn contains(&self, n: NodeId) -> bool {
        self.slot_of(n).is_some()
    }

    /// The distance of `n` if verified.
    #[inline]
    pub fn dist(&self, pool: &TreePool, n: NodeId) -> Option<f64> {
        self.slot_of(n).map(|s| pool.slots[s].dist)
    }

    /// The tree link of `n`: `Some(None)` when `n` hangs directly off the
    /// root, `Some(Some((parent, edge)))` otherwise, `None` when `n` is not
    /// verified.
    #[inline]
    pub fn parent_of(&self, pool: &TreePool, n: NodeId) -> Option<Option<(NodeId, EdgeId)>> {
        let rec = pool.slots[self.slot_of(n)?];
        Some(if rec.parent == NIL {
            None
        } else {
            Some((pool.slots[rec.parent].node, rec.parent_edge))
        })
    }

    /// The children of `n` as `(child, connecting edge)` pairs (tests and
    /// debugging — allocates).
    pub fn children_of(&self, pool: &TreePool, n: NodeId) -> Vec<(NodeId, EdgeId)> {
        // lint: allow(hot-path-alloc): children_of is a test/debug traversal helper, not on the tick path
        let mut out = Vec::new();
        let Some(s) = self.slot_of(n) else {
            return out;
        };
        let mut c = pool.slots[s].first_child;
        while c != NIL {
            let rec = pool.slots[c];
            out.push((rec.node, rec.parent_edge));
            c = rec.next_sibling;
        }
        out
    }

    /// Iterates over `(node, dist)` pairs in preorder (stackless — walks
    /// the intrusive links).
    pub fn iter<'a>(&'a self, pool: &'a TreePool) -> TreeIter<'a> {
        TreeIter {
            pool,
            cur: self.first_root,
        }
    }

    /// If edge `e` is a tree link, returns the child-side node of that link.
    pub fn link_child_of_edge(
        &self,
        pool: &TreePool,
        net: &RoadNetwork,
        e: EdgeId,
    ) -> Option<NodeId> {
        let rec = net.edge(e);
        for n in [rec.start, rec.end] {
            if let Some(s) = self.slot_of(n) {
                let t = pool.slots[s];
                if t.parent != NIL && t.parent_edge == e {
                    return Some(n);
                }
            }
        }
        None
    }

    /// Invalidates the whole directory in O(1) by bumping the epoch (with
    /// a physical wipe once every 2^32 bumps so stale stamps never alias).
    fn bump_epoch(&mut self) {
        self.dir_live = 0;
        self.epoch = match self.epoch.checked_add(1) {
            Some(e) => e,
            None => {
                self.dir.fill(EMPTY_DIR);
                1
            }
        };
    }

    /// Registers `n → slot`, growing the directory (a counted alloc event,
    /// unless a big-enough spare buffer is available) when it would exceed
    /// half occupancy.
    fn dir_insert(&mut self, n: NodeId, slot: u32, dirs: &mut SpareDirs) {
        if (self.dir_live as usize + 1) * 2 > self.dir.len() {
            self.dir_grow(dirs);
        }
        let mask = self.dir.len() - 1;
        let mut i = self.home(n.0);
        while self.dir[i].stamp == self.epoch {
            debug_assert_ne!(self.dir[i].node, n.0, "directory double insert");
            i = (i + 1) & mask;
        }
        self.dir[i] = DirEntry {
            stamp: self.epoch,
            node: n.0,
            slot,
        };
        self.dir_live += 1;
    }

    /// Doubles the directory, re-inserting only current-epoch entries.
    /// The replacement buffer is the pool's smallest spare of one to two
    /// times the new size, when there is one (no allocation); either way
    /// the outgrown buffer goes back to the spares, so directory capacity
    /// circulates instead of being dropped and re-carved.
    #[cold]
    fn dir_grow(&mut self, dirs: &mut SpareDirs) {
        let need = (self.dir.len() * 2).max(MIN_DIR);
        let mut fresh = match dirs.take(need) {
            Some((d, _)) => d, // stale stamps are fine: wiped below
            None => dirs.carve(need),
        };
        fresh.fill(EMPTY_DIR);
        let old = std::mem::replace(&mut self.dir, fresh);
        let mask = self.dir.len() - 1;
        for &e in &old {
            if e.stamp != self.epoch {
                continue;
            }
            let mut i = self.home(e.node);
            while self.dir[i].stamp == self.epoch {
                i = (i + 1) & mask;
            }
            self.dir[i] = e;
        }
        if !old.is_empty() {
            dirs.give_back(old, self.epoch);
        }
    }

    /// Deletes `n` from the directory with backward-shift compaction (no
    /// tombstones, so probe chains stay tight under surgery churn).
    fn dir_remove(&mut self, n: NodeId) {
        debug_assert!(!self.dir.is_empty());
        let mask = self.dir.len() - 1;
        let mut i = self.home(n.0);
        loop {
            let e = self.dir[i];
            debug_assert_eq!(e.stamp, self.epoch, "directory remove of absent node");
            if e.node == n.0 {
                break;
            }
            i = (i + 1) & mask;
        }
        // Backward-shift: pull every displaced entry of the cluster into
        // the hole if its home position permits.
        let mut j = i;
        loop {
            j = (j + 1) & mask;
            let e = self.dir[j];
            if e.stamp != self.epoch {
                break;
            }
            let h = self.home(e.node);
            // Entry at `j` may move to the hole at `i` iff its home lies
            // cyclically at or before `i` (standard linear-probing rule).
            if (j.wrapping_sub(h) & mask) >= (j.wrapping_sub(i) & mask) {
                self.dir[i] = e;
                i = j;
            }
        }
        self.dir[i].stamp = 0;
        self.dir_live -= 1;
    }

    /// Approximate resident bytes of the handle (the shared slab is
    /// accounted once, in [`TreePool::memory_bytes`]).
    pub fn memory_bytes(&self) -> usize {
        self.dir.capacity() * std::mem::size_of::<DirEntry>()
    }
}

/// Preorder iterator over a pooled tree (see [`ExpansionTree::iter`]).
pub struct TreeIter<'a> {
    pool: &'a TreePool,
    cur: u32,
}

impl Iterator for TreeIter<'_> {
    type Item = (NodeId, f64);

    fn next(&mut self) -> Option<(NodeId, f64)> {
        if self.cur == NIL {
            return None;
        }
        let rec = self.pool.slots[self.cur];
        self.cur = if rec.first_child != NIL {
            rec.first_child
        } else if rec.next_sibling != NIL {
            rec.next_sibling
        } else {
            self.pool.climb(rec.parent)
        };
        Some((rec.node, rec.dist))
    }
}

impl TreePool {
    /// An empty pool (allocates nothing until the first insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh tree handle, reusing the smallest spare directory of at most
    /// twice the minimum size when one exists (the recycled stamps are
    /// invalidated by an epoch bump, not a wipe). The tree then grows
    /// through the spares that fit it, so its directory follows its own
    /// size.
    pub fn new_tree(&mut self) -> ExpansionTree {
        match self.dirs.take(MIN_DIR) {
            Some((dir, last_epoch)) => {
                let mut t = ExpansionTree {
                    first_root: NIL,
                    len: 0,
                    dir_live: 0,
                    epoch: last_epoch,
                    dir,
                };
                t.bump_epoch();
                t
            }
            None => ExpansionTree::default(),
        }
    }

    /// Frees every node of `tree` and recycles its directory.
    pub fn release(&mut self, mut tree: ExpansionTree) {
        self.clear(&mut tree);
        let dir = std::mem::take(&mut tree.dir);
        if !dir.is_empty() {
            self.dirs.give_back(dir, tree.epoch);
        }
    }

    /// Live tree nodes across all trees of this pool (tests/debugging:
    /// equals the sum of the handles' `len()` iff no handle leaked).
    pub fn live_nodes(&self) -> usize {
        self.slots.live()
    }

    /// Slab + directory growth events since the last take. Zero across a
    /// tick proves the tick's tree surgery ran in reused capacity.
    pub fn take_alloc_events(&mut self) -> u64 {
        std::mem::take(&mut self.dirs.allocs) + self.slots.take_alloc_events()
    }

    /// Tree nodes served from the free list since the last take (the
    /// surgery-reuse counter surfaced as `OpCounters::tree_nodes_recycled`).
    pub fn take_recycled(&mut self) -> u64 {
        self.slots.take_recycled()
    }

    /// Approximate resident bytes of the shared slab, free list and spare
    /// directories (live handles account their own directories).
    pub fn memory_bytes(&self) -> usize {
        self.slots.memory_bytes() + self.dirs.memory_bytes()
    }

    /// Inserts a verified node. The parent (if any) must already be in the
    /// tree; it gains `n` at the head of its child chain.
    ///
    /// # Panics
    /// Panics if the node already exists or the parent is missing.
    pub fn insert(
        &mut self,
        tree: &mut ExpansionTree,
        n: NodeId,
        dist: f64,
        parent: Option<(NodeId, EdgeId)>,
    ) {
        assert!(tree.slot_of(n).is_none(), "node {n:?} inserted twice");
        let pslot = parent.map(|(p, _)| {
            tree.slot_of(p)
                .expect("parent must be verified before its children")
        });
        let slot = self.slots.alloc(PoolNode {
            dist,
            node: n,
            parent: pslot.unwrap_or(NIL),
            parent_edge: parent.map_or(EdgeId(NIL), |(_, e)| e),
            first_child: NIL,
            next_sibling: NIL,
            prev_sibling: NIL,
        });
        let head = match pslot {
            Some(p) => std::mem::replace(&mut self.slots[p].first_child, slot),
            None => std::mem::replace(&mut tree.first_root, slot),
        };
        self.slots[slot].next_sibling = head;
        if head != NIL {
            self.slots[head].prev_sibling = slot;
        }
        tree.dir_insert(n, slot, &mut self.dirs);
        tree.len += 1;
    }

    /// Detaches `s` from its sibling chain (parent child list or root
    /// chain) without touching the subtree below it.
    fn unlink(&mut self, tree: &mut ExpansionTree, s: u32) {
        let rec = self.slots[s];
        if rec.prev_sibling != NIL {
            self.slots[rec.prev_sibling].next_sibling = rec.next_sibling;
        } else if rec.parent != NIL {
            self.slots[rec.parent].first_child = rec.next_sibling;
        } else {
            tree.first_root = rec.next_sibling;
        }
        if rec.next_sibling != NIL {
            self.slots[rec.next_sibling].prev_sibling = rec.prev_sibling;
        }
    }

    /// From `p` upward, the next preorder position after a fully visited
    /// subtree (first ancestor sibling), or [`NIL`].
    fn climb(&self, mut p: u32) -> u32 {
        while p != NIL {
            let rec = self.slots[p];
            if rec.next_sibling != NIL {
                return rec.next_sibling;
            }
            p = rec.parent;
        }
        NIL
    }

    /// The next preorder position after `cur`, skipping `cur`'s subtree.
    fn advance_skip_children(&self, cur: u32) -> u32 {
        let rec = self.slots[cur];
        if rec.next_sibling != NIL {
            rec.next_sibling
        } else {
            self.climb(rec.parent)
        }
    }

    /// Frees the subtree rooted at `start` (which the caller has already
    /// unlinked, or which sits at a chain position the caller is about to
    /// forget). Stackless post-order walk: each node's record is read
    /// before its slot is pushed to the free list, and freed slots stay
    /// readable until re-allocated — nothing allocates mid-walk.
    ///
    /// With `update_dir` the freed nodes are also deleted from the
    /// directory (callers that bump the epoch instead pass `false`).
    fn free_subtree(&mut self, tree: &mut ExpansionTree, start: u32, update_dir: bool) -> usize {
        let mut count = 0usize;
        let mut cur = start;
        'outer: loop {
            while self.slots[cur].first_child != NIL {
                cur = self.slots[cur].first_child;
            }
            loop {
                let rec = self.slots[cur];
                if update_dir {
                    tree.dir_remove(rec.node);
                }
                self.slots.free(cur);
                count += 1;
                if cur == start {
                    break 'outer;
                }
                if rec.next_sibling != NIL {
                    cur = rec.next_sibling;
                    continue 'outer;
                }
                // All children of the parent are freed: clear its child
                // link (so the descent above cannot re-enter freed slots)
                // and free it next.
                cur = rec.parent;
                self.slots[cur].first_child = NIL;
            }
        }
        tree.len -= count as u32;
        count
    }

    /// Removes the subtree rooted at `n` (inclusive). Returns the number of
    /// nodes removed (0 if `n` is not in the tree).
    pub fn remove_subtree(&mut self, tree: &mut ExpansionTree, n: NodeId) -> usize {
        let Some(s) = tree.slot_of(n) else {
            return 0;
        };
        self.unlink(tree, s);
        self.free_subtree(tree, s, true)
    }

    /// Keeps only nodes with `dist <= theta`. Because distances grow along
    /// tree paths, the kept set is automatically connected to the root.
    /// Returns the number pruned.
    pub fn retain_within(&mut self, tree: &mut ExpansionTree, theta: f64) -> usize {
        let mut pruned = 0;
        let mut cur = tree.first_root;
        while cur != NIL {
            let rec = self.slots[cur];
            if rec.dist > theta {
                let next = rec.next_sibling;
                let parent = rec.parent;
                self.unlink(tree, cur);
                pruned += self.free_subtree(tree, cur, true);
                cur = if next != NIL {
                    next
                } else {
                    self.climb(parent)
                };
            } else if rec.first_child != NIL {
                cur = rec.first_child;
            } else {
                cur = self.advance_skip_children(cur);
            }
        }
        pruned
    }

    /// Re-roots the tree at the subtree of `new_sub_root`: every node
    /// outside that subtree is dropped, and the distances of the kept nodes
    /// are reduced by `shift` (`= old distance of the new root position`).
    /// The kept subtree root becomes attached directly to the (implicit)
    /// new root. Returns the number of nodes pruned.
    pub fn reroot_at_subtree(
        &mut self,
        tree: &mut ExpansionTree,
        new_sub_root: NodeId,
        shift: f64,
    ) -> usize {
        let Some(s) = tree.slot_of(new_sub_root) else {
            return self.clear(tree);
        };
        self.unlink(tree, s);
        {
            let r = &mut self.slots[s];
            r.parent = NIL;
            r.parent_edge = EdgeId(NIL);
            r.prev_sibling = NIL;
            r.next_sibling = NIL;
        }
        // Drop everything that is *not* the kept subtree. One epoch bump
        // invalidates the whole directory; the kept nodes re-register
        // during the distance-shift walk below.
        tree.bump_epoch();
        let mut pruned = 0;
        let mut root = tree.first_root;
        while root != NIL {
            let next = self.slots[root].next_sibling;
            pruned += self.free_subtree(tree, root, false);
            root = next;
        }
        tree.first_root = s;
        let mut cur = s;
        while cur != NIL {
            self.slots[cur].dist -= shift;
            let rec = self.slots[cur];
            tree.dir_insert(rec.node, cur, &mut self.dirs);
            cur = if rec.first_child != NIL {
                rec.first_child
            } else {
                self.advance_skip_children(cur)
            };
        }
        debug_assert_eq!(tree.dir_live, tree.len);
        pruned
    }

    /// Drops all nodes (the directory is invalidated in O(1) via the epoch
    /// stamp). Returns how many were removed.
    pub fn clear(&mut self, tree: &mut ExpansionTree) -> usize {
        tree.bump_epoch();
        let mut n = 0;
        let mut root = tree.first_root;
        while root != NIL {
            let next = self.slots[root].next_sibling;
            n += self.free_subtree(tree, root, false);
            root = next;
        }
        tree.first_root = NIL;
        debug_assert_eq!(tree.len, 0);
        n
    }

    /// A structural copy of `src` as a fresh tree over the same pool
    /// (allocation-free in steady state: slots pop the free list, the
    /// directory is recycled).
    pub fn clone_tree(&mut self, src: &ExpansionTree) -> ExpansionTree {
        let mut dst = self.new_tree();
        self.clone_into(&mut dst, src);
        dst
    }

    /// Replaces `dst`'s contents with a structural copy of `src`, keeping
    /// `dst`'s directory capacity — the preferred form on the tick path:
    /// no spare-stack round-trip, so a steady-state copy touches only the
    /// free list.
    pub fn clone_into(&mut self, dst: &mut ExpansionTree, src: &ExpansionTree) {
        self.clear(dst);
        let mut cur = src.first_root;
        while cur != NIL {
            let rec = self.slots[cur];
            let parent = if rec.parent == NIL {
                None
            } else {
                Some((self.slots[rec.parent].node, rec.parent_edge))
            };
            self.insert(dst, rec.node, rec.dist, parent);
            cur = if rec.first_child != NIL {
                rec.first_child
            } else {
                self.advance_skip_children(cur)
            };
        }
    }

    /// Validates the structural invariants of one tree (tests/debugging):
    /// link symmetry, directory exactness, distance monotonicity, and
    /// parent + edge weight reproducing each child distance.
    pub fn check_invariants(
        &self,
        tree: &ExpansionTree,
        net: &RoadNetwork,
        weights: &rnn_roadnet::EdgeWeights,
    ) {
        let mut visited = 0usize;
        let mut cur = tree.first_root;
        while cur != NIL {
            let rec = self.slots[cur];
            visited += 1;
            assert_eq!(
                tree.slot_of(rec.node),
                Some(cur),
                "directory out of sync for {:?}",
                rec.node
            );
            if rec.parent != NIL {
                let prec = self.slots[rec.parent];
                let e = rec.parent_edge;
                assert!(
                    net.edge(e).touches(rec.node) && net.edge(e).touches(prec.node),
                    "link edge mismatch"
                );
                let expect = prec.dist + weights.get(e);
                assert_eq!(
                    rec.dist, expect,
                    "distance of {:?} is not parent+w",
                    rec.node
                );
            }
            // Sibling-chain symmetry around this node.
            if rec.next_sibling != NIL {
                assert_eq!(
                    self.slots[rec.next_sibling].prev_sibling, cur,
                    "sibling links out of sync"
                );
            }
            let mut c = rec.first_child;
            let mut prev = NIL;
            while c != NIL {
                let crec = self.slots[c];
                assert_eq!(crec.parent, cur, "child parent mismatch");
                assert_eq!(crec.prev_sibling, prev, "child chain out of sync");
                prev = c;
                c = crec.next_sibling;
            }
            cur = if rec.first_child != NIL {
                rec.first_child
            } else {
                self.advance_skip_children(cur)
            };
        }
        assert_eq!(visited, tree.len(), "tree length out of sync");
        assert_eq!(
            tree.dir_live as usize,
            tree.len(),
            "directory occupancy out of sync"
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rnn_roadnet::{EdgeWeights, RoadNetworkBuilder};

    /// Path 0-1-2-3 with a side branch 1-4; unit weights.
    ///
    /// Builds the tree of an (implicit) root sitting on node 0.
    fn net_and_tree() -> (RoadNetwork, EdgeWeights, TreePool, ExpansionTree) {
        let mut b = RoadNetworkBuilder::new();
        let n0 = b.add_node(0.0, 0.0);
        let n1 = b.add_node(1.0, 0.0);
        let n2 = b.add_node(2.0, 0.0);
        let n3 = b.add_node(3.0, 0.0);
        let n4 = b.add_node(1.0, 1.0);
        b.add_edge_euclidean(n0, n1); // e0
        b.add_edge_euclidean(n1, n2); // e1
        b.add_edge_euclidean(n2, n3); // e2
        b.add_edge_euclidean(n1, n4); // e3
        let net = b.build().unwrap();
        let w = EdgeWeights::from_base(&net);
        let mut pool = TreePool::new();
        let mut t = pool.new_tree();
        pool.insert(&mut t, NodeId(0), 0.0, None);
        pool.insert(&mut t, NodeId(1), 1.0, Some((NodeId(0), EdgeId(0))));
        pool.insert(&mut t, NodeId(2), 2.0, Some((NodeId(1), EdgeId(1))));
        pool.insert(&mut t, NodeId(3), 3.0, Some((NodeId(2), EdgeId(2))));
        pool.insert(&mut t, NodeId(4), 2.0, Some((NodeId(1), EdgeId(3))));
        pool.check_invariants(&t, &net, &w);
        (net, w, pool, t)
    }

    #[test]
    fn basic_structure() {
        let (_, _, pool, t) = net_and_tree();
        assert_eq!(t.len(), 5);
        assert_eq!(t.dist(&pool, NodeId(3)), Some(3.0));
        assert!(t.contains(NodeId(4)));
        assert_eq!(t.children_of(&pool, NodeId(1)).len(), 2);
        assert_eq!(t.parent_of(&pool, NodeId(0)), Some(None));
        assert_eq!(
            t.parent_of(&pool, NodeId(2)),
            Some(Some((NodeId(1), EdgeId(1))))
        );
        assert_eq!(t.parent_of(&pool, NodeId(9)), None);
        assert_eq!(t.iter(&pool).count(), 5);
    }

    #[test]
    fn remove_subtree_detaches_and_counts() {
        let (net, w, mut pool, mut t) = net_and_tree();
        let removed = pool.remove_subtree(&mut t, NodeId(2));
        assert_eq!(removed, 2); // nodes 2 and 3
        assert!(!t.contains(NodeId(2)));
        assert!(!t.contains(NodeId(3)));
        assert!(t.contains(NodeId(4)));
        assert_eq!(t.children_of(&pool, NodeId(1)).len(), 1);
        pool.check_invariants(&t, &net, &w);
        assert_eq!(pool.remove_subtree(&mut t, NodeId(9)), 0);
        assert_eq!(pool.live_nodes(), 3);
    }

    #[test]
    fn retain_within_prunes_far_nodes() {
        let (net, w, mut pool, mut t) = net_and_tree();
        let pruned = pool.retain_within(&mut t, 2.0);
        assert_eq!(pruned, 1); // node 3 at dist 3
        assert!(t.contains(NodeId(2)));
        assert!(t.children_of(&pool, NodeId(2)).is_empty());
        pool.check_invariants(&t, &net, &w);
    }

    #[test]
    fn link_child_detection() {
        let (net, _, mut pool, t) = net_and_tree();
        assert_eq!(
            t.link_child_of_edge(&pool, &net, EdgeId(1)),
            Some(NodeId(2))
        );
        assert_eq!(
            t.link_child_of_edge(&pool, &net, EdgeId(3)),
            Some(NodeId(4))
        );
        // Remove the subtree in a structural copy; the link disappears.
        let mut t2 = pool.clone_tree(&t);
        pool.remove_subtree(&mut t2, NodeId(2));
        assert_eq!(t2.link_child_of_edge(&pool, &net, EdgeId(1)), None);
        assert_eq!(
            t.link_child_of_edge(&pool, &net, EdgeId(1)),
            Some(NodeId(2))
        );
        pool.release(t2);
        assert_eq!(pool.live_nodes(), t.len());
    }

    #[test]
    fn reroot_keeps_subtree_with_shifted_distances() {
        let (net, w, mut pool, mut t) = net_and_tree();
        // New root position at distance 1.0 (i.e. exactly node 1): keep the
        // subtree of node 1.
        let pruned = pool.reroot_at_subtree(&mut t, NodeId(1), 1.0);
        assert_eq!(pruned, 1); // node 0
        assert_eq!(t.dist(&pool, NodeId(1)), Some(0.0));
        assert_eq!(t.dist(&pool, NodeId(2)), Some(1.0));
        assert_eq!(t.dist(&pool, NodeId(3)), Some(2.0));
        assert_eq!(t.dist(&pool, NodeId(4)), Some(1.0));
        assert_eq!(t.parent_of(&pool, NodeId(1)), Some(None));
        pool.check_invariants(&t, &net, &w);
        assert_eq!(pool.live_nodes(), 4);
    }

    #[test]
    fn reroot_at_missing_node_clears() {
        let (_, _, mut pool, mut t) = net_and_tree();
        let pruned = pool.reroot_at_subtree(&mut t, NodeId(9), 0.0);
        assert_eq!(pruned, 5);
        assert!(t.is_empty());
        assert_eq!(pool.live_nodes(), 0);
    }

    #[test]
    fn clear_empties_and_recycles() {
        let (net, w, mut pool, mut t) = net_and_tree();
        assert_eq!(pool.clear(&mut t), 5);
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(pool.live_nodes(), 0);
        pool.take_recycled();
        // Rebuilding pops the free list — no fresh slab growth.
        pool.take_alloc_events();
        pool.insert(&mut t, NodeId(0), 0.0, None);
        pool.insert(&mut t, NodeId(1), 1.0, Some((NodeId(0), EdgeId(0))));
        assert_eq!(pool.take_recycled(), 2);
        assert_eq!(pool.take_alloc_events(), 0);
        pool.check_invariants(&t, &net, &w);
    }

    #[test]
    #[should_panic(expected = "inserted twice")]
    fn double_insert_panics() {
        let (_, _, mut pool, mut t) = net_and_tree();
        pool.insert(&mut t, NodeId(0), 0.0, None);
    }

    #[test]
    fn released_directories_are_recycled() {
        let (_, _, mut pool, t) = net_and_tree();
        pool.release(t);
        pool.take_alloc_events();
        let mut t2 = pool.new_tree();
        pool.insert(&mut t2, NodeId(3), 0.0, None);
        assert_eq!(
            pool.take_alloc_events(),
            0,
            "a recycled directory must serve the new tree without allocating"
        );
        // Stale entries from the previous tree's epoch must not leak.
        assert!(!t2.contains(NodeId(0)));
        assert!(t2.contains(NodeId(3)));
        pool.release(t2);
        assert_eq!(pool.live_nodes(), 0);
    }

    #[test]
    fn trees_share_one_pool_without_aliasing() {
        let (net, w, mut pool, t) = net_and_tree();
        // A second tree containing the same network nodes at different
        // distances: lookups must stay per-tree.
        let mut u = pool.new_tree();
        pool.insert(&mut u, NodeId(2), 0.0, None);
        pool.insert(&mut u, NodeId(1), 1.0, Some((NodeId(2), EdgeId(1))));
        assert_eq!(t.dist(&pool, NodeId(1)), Some(1.0));
        assert_eq!(u.dist(&pool, NodeId(1)), Some(1.0));
        assert_eq!(t.dist(&pool, NodeId(2)), Some(2.0));
        assert_eq!(u.dist(&pool, NodeId(2)), Some(0.0));
        assert!(!u.contains(NodeId(4)));
        assert_eq!(pool.live_nodes(), 7);
        pool.check_invariants(&t, &net, &w);
        pool.check_invariants(&u, &net, &w);
        pool.release(u);
        assert_eq!(pool.live_nodes(), 5);
    }

    /// Release-and-regrow churn over trees whose sizes vary 10×: the spares
    /// never outweigh the live directories (plus the one just given back),
    /// and all directory capacity, live and spare, stays within a constant
    /// factor of what the live trees need.
    #[test]
    fn directories_follow_the_live_trees() {
        let mut rng = 0x9e37_79b9_7f4a_7c15u64;
        let mut draw = |n: u64| {
            rng ^= rng << 13;
            rng ^= rng >> 7;
            rng ^= rng << 17;
            (rng % n) as u32
        };
        let grow = |pool: &mut TreePool, size: u32| {
            let mut t = pool.new_tree();
            for n in 0..size {
                pool.insert(&mut t, NodeId(n), f64::from(n), None);
            }
            t
        };
        let mut pool = TreePool::new();
        let mut live: Vec<ExpansionTree> = (0..32).map(|i| grow(&mut pool, 10 + 6 * i)).collect();
        let mut worst = 0.0f64;
        for _ in 0..2_000 {
            let gone = live.swap_remove(draw(live.len() as u64) as usize);
            let given_back = gone.dir.len();
            pool.release(gone);
            assert!(pool.dirs.held <= pool.dirs.lent + given_back);
            // Mostly small trees, now and then one ten times larger.
            let size = if draw(8) == 0 {
                100 + draw(100)
            } else {
                10 + draw(10)
            };
            live.push(grow(&mut pool, size));
            let need: usize = live.iter().map(|t| (2 * t.len()).next_power_of_two()).sum();
            let held: usize = live.iter().map(|t| t.dir.len()).sum::<usize>()
                + pool.dirs.spare.iter().map(|(d, _)| d.len()).sum::<usize>();
            worst = worst.max(held as f64 / need as f64);
        }
        assert!(
            worst <= 4.0,
            "directories hold {worst:.2}× what the live trees need"
        );
        for t in live {
            pool.release(t);
        }
        assert!(
            pool.dirs.spare.len() <= 1,
            "no live tree, at most the last spare"
        );
        assert_eq!(pool.live_nodes(), 0);
    }

    #[test]
    fn memory_accounting_nonzero() {
        let (_, _, pool, t) = net_and_tree();
        assert!(t.memory_bytes() > 0);
        assert!(pool.memory_bytes() > 0);
    }
}
