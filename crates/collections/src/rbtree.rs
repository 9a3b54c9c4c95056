//! A from-scratch red-black interval tree — the Palacios guest memory map.
//!
//! Each node maps a contiguous run of guest frames `[key, key + len)` to a
//! contiguous run of host frames starting at `hpfn`. The implementation is
//! textbook CLRS (arena-allocated nodes, index links, NIL sentinel at
//! index 0) and instrumented: every operation reports nodes visited and
//! rotations performed, which the VMM converts into virtual time. That
//! instrumentation is what lets the Table 2 result (~3× VM attach penalty,
//! recovered by removing tree-update time) *emerge* from real structural
//! work instead of being hard-coded.
//!
//! The batched entry points report exactly the per-operation counts
//! without repeating the descents behind them. A key above every existing
//! key descends the right spine, so [`GuestMemoryMap::insert_ascending`]
//! links it under the tracked maximum and carries the spine length
//! forward. [`GuestMemoryMap::remove_range`] finds each next victim as the
//! in-order successor of the last and derives its depth instead of
//! searching for it.
//!
//! On top of both sits a closed form for hot-plug *cycles* on a one-entry
//! base: a batch of `e` entries above the single linked entry (a VM's
//! guest RAM), then the removal of exactly that batch. A one-entry tree
//! has one shape and colour, so the batch grows it into the tree `e + 1`
//! ascending inserts build, whatever the keys, and its exact removal
//! leaves the one entry again. Both reports then follow from `e` alone in
//! O(log e) arithmetic ([`hot_plug_insert`], [`hot_plug_remove`]; DESIGN.md
//! §7 derives them). The map holds such a batch unlinked as its segments
//! and returns the stored removal report when exactly the batch is
//! removed. Anything else that needs the real tree first links a held
//! batch for real, which leaves exactly the tree per-op inserts build. A
//! batch on any other base links for real.

use crate::{BatchReport, Batches, GuestMemoryMap, MapError, OpReport, Segment};

const NIL: usize = 0;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Color {
    Red,
    Black,
}

#[derive(Debug, Clone)]
struct Node {
    key: u64,
    len: u64,
    hpfn: u64,
    color: Color,
    parent: usize,
    left: usize,
    right: usize,
}

/// S ∩ [4, hi], where S = {4, 6, 8, 12, 16, 24, …} holds every 2^k and
/// 3·2^k that is at least 4.
fn s_up_to(hi: u64) -> impl Iterator<Item = u64> {
    (1..62)
        .flat_map(|k| [2u64 << k, 3u64 << k])
        .take_while(move |&s| s <= hi)
}

/// The report of `e` ascending inserts above a one-entry tree. The insert
/// that grows the tree to `j` nodes visits 1 + |S ∩ [4, j + 1]| nodes and
/// rotates once unless j + 2 ∈ S.
fn hot_plug_insert(e: u64) -> BatchReport {
    let n = e + 1;
    BatchReport {
        ops: e,
        visits: e + s_up_to(n + 1).map(|s| n + 2 - s).sum::<u64>(),
        rotations: e - s_up_to(n + 2).count() as u64,
    }
}

/// (visits, rotations) of removing the `n - 1` upper entries, in
/// ascending order, from the tree `n` ascending inserts build, for
/// `n < 22`.
const REMOVE_SMALL: [(u64, u64); 22] = [
    (0, 0),
    (0, 0),
    (2, 0),
    (2, 0),
    (3, 0),
    (4, 0),
    (5, 1),
    (6, 1),
    (9, 1),
    (10, 1),
    (14, 2),
    (15, 2),
    (18, 2),
    (19, 2),
    (23, 3),
    (24, 3),
    (27, 3),
    (28, 3),
    (33, 3),
    (34, 3),
    (37, 3),
    (38, 3),
];

/// The report of removing, in ascending order, the `e` entries that
/// [`hot_plug_insert`] added. With n the tree's size and m = n + 2 ≥ 24,
/// removing the first `d` of them costs a closed form and leaves the
/// shape and colours of the (n − d)-node tree, so the rest recurses.
fn hot_plug_remove(e: u64) -> BatchReport {
    let (mut n, mut visits, mut rotations) = (e + 1, 0, 0);
    while n >= 22 {
        let m = n + 2;
        // P = 2^k, the largest power of two with 3P ≤ m; P ≥ 8.
        let k = u64::from((m / 3).ilog2());
        let p = 1u64 << k;
        let v = k * p - p / 4 + 1;
        let (d, dv, dr) = if 2 * m < 7 * p {
            (p, v, p / 4 - 1)
        } else if m < 4 * p {
            (3 * p / 2, 3 * k * p / 2 - p / 8 + 1, 3 * p / 8 - 1)
        } else if m < 5 * p {
            (p, v + p / 2 - 1, p / 4)
        } else {
            (p, v + p / 2, p / 4 - 1)
        };
        (n, visits, rotations) = (n - d, visits + dv, rotations + dr);
    }
    let (v, r) = REMOVE_SMALL[n as usize];
    BatchReport {
        ops: e,
        visits: visits + v,
        rotations: rotations + r,
    }
}

/// A hot-plug batch held unlinked, while removing exactly it can still
/// return its stored report.
#[derive(Debug, Clone)]
struct Held {
    segments: Vec<Segment>,
    /// End of the one linked entry below the batch.
    older_end: u64,
    /// End of the batch's first entry.
    first_end: u64,
    /// Key of the batch's last entry.
    last_key: u64,
    /// The report of removing exactly the batch.
    remove: BatchReport,
}

impl Held {
    /// Whether the entries meeting `[gfn, gfn + len)` are exactly this
    /// batch: the range meets its first and last entry and no older one.
    fn removed_whole_by(&self, gfn: u64, len: u64) -> bool {
        len > 0 && gfn >= self.older_end && gfn < self.first_end && gfn + len > self.last_key
    }
}

/// The red-black guest memory map.
///
/// Equality is tree-level: two maps are equal when their linked trees
/// have the same shape and colours and they hold the same entries, linked
/// or held. Arena slots and free lists play no part: a held batch
/// allocates no slot, and no count depends on one.
#[derive(Debug, Clone)]
pub struct RbMemoryMap {
    nodes: Vec<Node>,
    root: usize,
    free: Vec<usize>,
    /// Linked entries.
    count: usize,
    held: Option<Held>,
    batches: Batches,
}

impl PartialEq for RbMemoryMap {
    fn eq(&self, other: &Self) -> bool {
        self.shape_key() == other.shape_key() && self.iter().eq(other.iter())
    }
}

impl Eq for RbMemoryMap {}

impl Default for RbMemoryMap {
    fn default() -> Self {
        Self::new()
    }
}

impl RbMemoryMap {
    /// An empty map.
    pub fn new() -> Self {
        // Index 0 is the NIL sentinel: black, self-linked.
        let nil = Node {
            key: 0,
            len: 0,
            hpfn: 0,
            color: Color::Black,
            parent: NIL,
            left: NIL,
            right: NIL,
        };
        RbMemoryMap {
            nodes: vec![nil],
            root: NIL,
            free: Vec::new(),
            count: 0,
            held: None,
            batches: Batches::default(),
        }
    }

    fn alloc_node(&mut self, key: u64, len: u64, hpfn: u64) -> usize {
        let node = Node {
            key,
            len,
            hpfn,
            color: Color::Red,
            parent: NIL,
            left: NIL,
            right: NIL,
        };
        if let Some(idx) = self.free.pop() {
            self.nodes[idx] = node;
            idx
        } else {
            self.nodes.push(node);
            self.nodes.len() - 1
        }
    }

    #[inline]
    fn n(&self, i: usize) -> &Node {
        &self.nodes[i]
    }

    fn left_rotate(&mut self, x: usize, rotations: &mut u32) {
        *rotations += 1;
        let y = self.nodes[x].right;
        let y_left = self.nodes[y].left;
        self.nodes[x].right = y_left;
        if y_left != NIL {
            self.nodes[y_left].parent = x;
        }
        let x_parent = self.nodes[x].parent;
        self.nodes[y].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent].left == x {
            self.nodes[x_parent].left = y;
        } else {
            self.nodes[x_parent].right = y;
        }
        self.nodes[y].left = x;
        self.nodes[x].parent = y;
    }

    fn right_rotate(&mut self, x: usize, rotations: &mut u32) {
        *rotations += 1;
        let y = self.nodes[x].left;
        let y_right = self.nodes[y].right;
        self.nodes[x].left = y_right;
        if y_right != NIL {
            self.nodes[y_right].parent = x;
        }
        let x_parent = self.nodes[x].parent;
        self.nodes[y].parent = x_parent;
        if x_parent == NIL {
            self.root = y;
        } else if self.nodes[x_parent].right == x {
            self.nodes[x_parent].right = y;
        } else {
            self.nodes[x_parent].left = y;
        }
        self.nodes[y].right = x;
        self.nodes[x].parent = y;
    }

    fn insert_fixup(&mut self, mut z: usize, rotations: &mut u32) {
        while self.n(self.n(z).parent).color == Color::Red {
            let parent = self.n(z).parent;
            let grand = self.n(parent).parent;
            if parent == self.n(grand).left {
                let uncle = self.n(grand).right;
                if self.n(uncle).color == Color::Red {
                    self.nodes[parent].color = Color::Black;
                    self.nodes[uncle].color = Color::Black;
                    self.nodes[grand].color = Color::Red;
                    z = grand;
                } else {
                    if z == self.n(parent).right {
                        z = parent;
                        self.left_rotate(z, rotations);
                    }
                    let parent = self.n(z).parent;
                    let grand = self.n(parent).parent;
                    self.nodes[parent].color = Color::Black;
                    self.nodes[grand].color = Color::Red;
                    self.right_rotate(grand, rotations);
                }
            } else {
                let uncle = self.n(grand).left;
                if self.n(uncle).color == Color::Red {
                    self.nodes[parent].color = Color::Black;
                    self.nodes[uncle].color = Color::Black;
                    self.nodes[grand].color = Color::Red;
                    z = grand;
                } else {
                    if z == self.n(parent).left {
                        z = parent;
                        self.right_rotate(z, rotations);
                    }
                    let parent = self.n(z).parent;
                    let grand = self.n(parent).parent;
                    self.nodes[parent].color = Color::Black;
                    self.nodes[grand].color = Color::Red;
                    self.left_rotate(grand, rotations);
                }
            }
        }
        let root = self.root;
        self.nodes[root].color = Color::Black;
    }

    /// Hang the fresh node `z` under `parent` (as its left child when
    /// `left`) and rebalance. Returns the rotations performed.
    fn link(&mut self, z: usize, parent: usize, left: bool) -> u32 {
        self.nodes[z].parent = parent;
        if parent == NIL {
            self.root = z;
        } else if left {
            self.nodes[parent].left = z;
        } else {
            self.nodes[parent].right = z;
        }
        let mut rotations = 0u32;
        self.insert_fixup(z, &mut rotations);
        self.count += 1;
        rotations
    }

    fn transplant(&mut self, u: usize, v: usize) {
        let u_parent = self.nodes[u].parent;
        if u_parent == NIL {
            self.root = v;
        } else if self.nodes[u_parent].left == u {
            self.nodes[u_parent].left = v;
        } else {
            self.nodes[u_parent].right = v;
        }
        // NIL's parent is written too — CLRS relies on this in delete.
        self.nodes[v].parent = u_parent;
    }

    fn minimum(&self, mut x: usize) -> usize {
        while self.nodes[x].left != NIL {
            x = self.nodes[x].left;
        }
        x
    }

    fn delete_fixup(&mut self, mut x: usize, rotations: &mut u32) {
        while x != self.root && self.n(x).color == Color::Black {
            let parent = self.n(x).parent;
            if x == self.n(parent).left {
                let mut w = self.n(parent).right;
                if self.n(w).color == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[parent].color = Color::Red;
                    self.left_rotate(parent, rotations);
                    w = self.n(self.n(x).parent).right;
                }
                if self.n(self.n(w).left).color == Color::Black
                    && self.n(self.n(w).right).color == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    x = self.n(x).parent;
                } else {
                    if self.n(self.n(w).right).color == Color::Black {
                        let w_left = self.n(w).left;
                        self.nodes[w_left].color = Color::Black;
                        self.nodes[w].color = Color::Red;
                        self.right_rotate(w, rotations);
                        w = self.n(self.n(x).parent).right;
                    }
                    let parent = self.n(x).parent;
                    self.nodes[w].color = self.n(parent).color;
                    self.nodes[parent].color = Color::Black;
                    let w_right = self.n(w).right;
                    self.nodes[w_right].color = Color::Black;
                    self.left_rotate(parent, rotations);
                    x = self.root;
                }
            } else {
                let mut w = self.n(parent).left;
                if self.n(w).color == Color::Red {
                    self.nodes[w].color = Color::Black;
                    self.nodes[parent].color = Color::Red;
                    self.right_rotate(parent, rotations);
                    w = self.n(self.n(x).parent).left;
                }
                if self.n(self.n(w).right).color == Color::Black
                    && self.n(self.n(w).left).color == Color::Black
                {
                    self.nodes[w].color = Color::Red;
                    x = self.n(x).parent;
                } else {
                    if self.n(self.n(w).left).color == Color::Black {
                        let w_right = self.n(w).right;
                        self.nodes[w_right].color = Color::Black;
                        self.nodes[w].color = Color::Red;
                        self.left_rotate(w, rotations);
                        w = self.n(self.n(x).parent).left;
                    }
                    let parent = self.n(x).parent;
                    self.nodes[w].color = self.n(parent).color;
                    self.nodes[parent].color = Color::Black;
                    let w_left = self.n(w).left;
                    self.nodes[w_left].color = Color::Black;
                    self.right_rotate(parent, rotations);
                    x = self.root;
                }
            }
        }
        self.nodes[x].color = Color::Black;
    }

    /// CLRS delete of node `z`, which returns to the free list. Returns the
    /// rotations performed.
    fn delete(&mut self, z: usize) -> u32 {
        let mut rotations = 0u32;
        let mut y = z;
        let mut y_color = self.n(y).color;
        let x;
        if self.n(z).left == NIL {
            x = self.n(z).right;
            self.transplant(z, x);
        } else if self.n(z).right == NIL {
            x = self.n(z).left;
            self.transplant(z, x);
        } else {
            y = self.minimum(self.n(z).right);
            y_color = self.n(y).color;
            x = self.n(y).right;
            if self.n(y).parent == z {
                self.nodes[x].parent = y;
            } else {
                self.transplant(y, x);
                let z_right = self.n(z).right;
                self.nodes[y].right = z_right;
                self.nodes[z_right].parent = y;
            }
            self.transplant(z, y);
            let z_left = self.n(z).left;
            self.nodes[y].left = z_left;
            self.nodes[z_left].parent = y;
            self.nodes[y].color = self.n(z).color;
        }
        if y_color == Color::Black {
            self.delete_fixup(x, &mut rotations);
        }
        // Reset NIL's parent scribble so validation stays clean.
        self.nodes[NIL].parent = NIL;
        self.free.push(z);
        self.count -= 1;
        rotations
    }

    /// The maximum node and the length of the right spine ending at it —
    /// the nodes an insert above every key visits. `(NIL, 0)` when empty.
    fn right_spine(&self) -> (usize, u32) {
        let (mut max, mut len) = (NIL, 0u32);
        let mut cur = self.root;
        while cur != NIL {
            (max, len) = (cur, len + 1);
            cur = self.n(cur).right;
        }
        (max, len)
    }

    /// Depth of node `x` (the root is at depth 0), by its parent links.
    fn depth(&self, mut x: usize) -> u32 {
        let mut depth = 0u32;
        while self.n(x).parent != NIL {
            x = self.n(x).parent;
            depth += 1;
        }
        depth
    }

    /// The lowest node whose interval ends above `gfn`, with its depth.
    fn first_ending_above(&self, gfn: u64) -> (usize, u32) {
        let (mut best, mut best_depth) = (NIL, 0u32);
        let (mut cur, mut depth) = (self.root, 0u32);
        while cur != NIL {
            let node = self.n(cur);
            if gfn < node.key + node.len {
                (best, best_depth) = (cur, depth);
                if gfn >= node.key {
                    break;
                }
                cur = node.left;
            } else {
                cur = node.right;
            }
            depth += 1;
        }
        (best, best_depth)
    }

    /// The in-order successor of node `z` at depth `depth`, with the depth
    /// it will have once [`Self::delete`] has unlinked `z` (before any
    /// fixup rotation). `(NIL, 0)` when `z` is the maximum.
    fn successor_after_delete(&self, z: usize, depth: u32) -> (usize, u32) {
        let node = self.n(z);
        if node.right != NIL {
            let (mut s, mut d) = (node.right, depth + 1);
            while self.n(s).left != NIL {
                (s, d) = (self.n(s).left, d + 1);
            }
            // With two children the successor moves into `z`'s slot;
            // with a lone right child that whole subtree rises one level.
            return if node.left != NIL {
                (s, depth)
            } else {
                (s, d - 1)
            };
        }
        // Otherwise it is the nearest ancestor holding `z` in its left
        // subtree; unlinking `z` does not move ancestors.
        let (mut c, mut d) = (z, depth);
        loop {
            let p = self.n(c).parent;
            if p == NIL {
                return (NIL, 0);
            }
            d -= 1;
            if self.n(p).left == c {
                return (p, d);
            }
            c = p;
        }
    }

    /// Find the node whose interval contains `gfn`, counting visits.
    fn find_containing(&self, gfn: u64) -> (usize, u32) {
        let mut visits = 0u32;
        let mut cur = self.root;
        while cur != NIL {
            visits += 1;
            let node = self.n(cur);
            if gfn < node.key {
                cur = node.left;
            } else if gfn >= node.key + node.len {
                cur = node.right;
            } else {
                return (cur, visits);
            }
        }
        (NIL, visits)
    }

    /// Linked node slots in key order.
    fn in_order(&self) -> impl Iterator<Item = usize> + '_ {
        let mut stack = Vec::new();
        let mut cur = self.root;
        std::iter::from_fn(move || {
            while cur != NIL {
                stack.push(cur);
                cur = self.nodes[cur].left;
            }
            let idx = stack.pop()?;
            cur = self.nodes[idx].right;
            Some(idx)
        })
    }

    /// The segments of a held batch (empty when none is held).
    fn held(&self) -> &[Segment] {
        self.held.as_ref().map_or(&[], |h| &h.segments)
    }

    /// In-order iteration over (gfn_start, len, hpfn_start), held entries
    /// included — test and debugging aid.
    pub fn iter(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        let linked = self.in_order().map(|i| {
            let node = self.n(i);
            (node.key, node.len, node.hpfn)
        });
        linked.chain(self.held().iter().flat_map(|s| s.entries()))
    }

    /// Whether a hot-plug batch is held unlinked.
    pub fn holds_batch(&self) -> bool {
        self.held.is_some()
    }

    /// Preorder encoding of the linked tree's shape and colours, one byte
    /// per node: whether it has a left child, a right child, and is red.
    /// Two trees with one encoding differ at most in their entries and
    /// arena slots; tree-level equality compares it.
    fn shape_key(&self) -> Vec<u8> {
        let mut key = Vec::with_capacity(self.count);
        let mut stack = vec![self.root];
        while let Some(x) = stack.pop() {
            if x == NIL {
                continue;
            }
            let node = self.n(x);
            key.push(
                u8::from(node.left != NIL)
                    | u8::from(node.right != NIL) << 1
                    | u8::from(node.color == Color::Red) << 2,
            );
            stack.push(node.right);
            stack.push(node.left);
        }
        key
    }

    /// Link a held batch for real, as per-op inserts would have: the next
    /// change is not its exact removal, or it needs the real tree.
    fn settle(&mut self) {
        if let Some(held) = self.held.take() {
            self.link_ascending(&mut held.segments.into_iter().flat_map(Segment::entries))
                .expect("a held batch lies above every linked entry");
        }
    }

    /// Insert entries in order through the right-spine path, falling back
    /// to a per-op insert for an entry not above the maximum.
    fn link_ascending(
        &mut self,
        entries: &mut dyn Iterator<Item = (u64, u64, u64)>,
    ) -> Result<BatchReport, MapError> {
        let mut total = BatchReport::default();
        // (maximum node, right-spine length), or `None` after a per-op
        // insert, which may have reshaped the spine.
        let mut spine = None;
        for (gfn, len, hpfn) in entries {
            let (max, spine_len) = spine.unwrap_or_else(|| self.right_spine());
            let above_max = max == NIL || gfn >= self.n(max).key + self.n(max).len;
            if len == 0 || !above_max {
                total.add(self.insert(gfn, len, hpfn)?);
                spine = None;
                continue;
            }
            // The CLRS descent for a key above the maximum visits exactly
            // the right spine and hangs the new node under the maximum.
            // Fixup then only left-rotates spine nodes off the spine, one
            // per rotation, and the new node is the new maximum.
            let z = self.alloc_node(gfn, len, hpfn);
            let rotations = self.link(z, max, false);
            total.add(OpReport {
                visits: spine_len,
                rotations,
            });
            spine = Some((z, spine_len + 1 - rotations));
        }
        Ok(total)
    }

    /// Remove every linked entry meeting `[gfn, gfn + len)` in successor
    /// order.
    fn remove_each(&mut self, gfn: u64, len: u64) -> BatchReport {
        let mut total = BatchReport::default();
        let end = gfn + len;
        // A per-frame remove finds an entry at the first frame of the range
        // it holds, and any frame of an entry descends to it: the visits are
        // its depth + 1 in the tree as it is then.
        let (mut z, mut depth) = self.first_ending_above(gfn);
        while z != NIL && self.n(z).key < end {
            let (next, next_depth) = self.successor_after_delete(z, depth);
            let rotations = self.delete(z);
            total.add(OpReport {
                visits: depth + 1,
                rotations,
            });
            // A rotation may have moved the successor; re-walk only then.
            depth = if rotations > 0 && next != NIL {
                self.depth(next)
            } else {
                next_depth
            };
            z = next;
        }
        total
    }

    /// Verify every red-black and interval invariant, after linking a held
    /// batch; returns the black height. Panics (with a description) on
    /// violation — used by unit and property tests.
    pub fn validate(&mut self) -> usize {
        self.settle();
        fn walk(map: &RbMemoryMap, idx: usize, lo: u64, hi: u64) -> usize {
            if idx == NIL {
                return 1; // NIL counts as black.
            }
            let node = &map.nodes[idx];
            assert!(node.len > 0, "zero-length node");
            assert!(
                node.key >= lo && node.key + node.len <= hi,
                "BST/interval order violated"
            );
            if node.color == Color::Red {
                assert_eq!(
                    map.nodes[node.left].color,
                    Color::Black,
                    "red-red violation (left)"
                );
                assert_eq!(
                    map.nodes[node.right].color,
                    Color::Black,
                    "red-red violation (right)"
                );
            }
            if node.left != NIL {
                assert_eq!(
                    map.nodes[node.left].parent, idx,
                    "broken parent link (left)"
                );
            }
            if node.right != NIL {
                assert_eq!(
                    map.nodes[node.right].parent, idx,
                    "broken parent link (right)"
                );
            }
            let lh = walk(map, node.left, lo, node.key);
            let rh = walk(map, node.right, node.key + node.len, hi);
            assert_eq!(lh, rh, "black-height mismatch");
            lh + usize::from(node.color == Color::Black)
        }
        if self.root != NIL {
            assert_eq!(self.nodes[self.root].color, Color::Black, "red root");
            assert_eq!(self.nodes[self.root].parent, NIL, "root has a parent");
        }
        walk(self, self.root, 0, u64::MAX)
    }
}

impl GuestMemoryMap for RbMemoryMap {
    fn insert(&mut self, gfn: u64, len: u64, hpfn: u64) -> Result<OpReport, MapError> {
        self.settle();
        if len == 0 {
            return Err(MapError::EmptyRange);
        }
        let mut visits = 0u32;
        let mut parent = NIL;
        let mut cur = self.root;
        let mut went_left = false;
        while cur != NIL {
            visits += 1;
            let node = self.n(cur);
            parent = cur;
            if gfn + len <= node.key {
                cur = node.left;
                went_left = true;
            } else if gfn >= node.key + node.len {
                cur = node.right;
                went_left = false;
            } else {
                return Err(MapError::Overlap { gfn });
            }
        }
        let z = self.alloc_node(gfn, len, hpfn);
        let rotations = self.link(z, parent, went_left);
        Ok(OpReport { visits, rotations })
    }

    fn lookup(&mut self, gfn: u64) -> Result<(u64, OpReport), MapError> {
        self.settle();
        let (idx, visits) = self.find_containing(gfn);
        if idx == NIL {
            return Err(MapError::NotFound { gfn });
        }
        let node = self.n(idx);
        let hpfn = node.hpfn + (gfn - node.key);
        Ok((
            hpfn,
            OpReport {
                visits,
                rotations: 0,
            },
        ))
    }

    fn lookup_run(&mut self, gfn: u64, max_len: u64) -> Result<((u64, u64), OpReport), MapError> {
        self.settle();
        let (idx, visits) = self.find_containing(gfn);
        if idx == NIL {
            return Err(MapError::NotFound { gfn });
        }
        // Any frame in `[key, key+len)` follows the exact same root-to-node
        // comparisons (ancestor intervals are disjoint from this node's),
        // so `visits` is per-frame identical across the covered run.
        let node = self.n(idx);
        let hpfn = node.hpfn + (gfn - node.key);
        let covered = (node.key + node.len - gfn).min(max_len.max(1));
        Ok((
            (hpfn, covered),
            OpReport {
                visits,
                rotations: 0,
            },
        ))
    }

    fn translate_run(&self, gfn: u64) -> Option<(u64, u64)> {
        let held = self.held();
        if held.first().is_some_and(|s| gfn >= s.gfn) {
            // A held batch lies above every linked entry.
            let s = held[held.partition_point(|s| s.end() <= gfn)..].first()?;
            if gfn < s.gfn {
                return None;
            }
            let off = gfn - s.gfn;
            return Some((s.hpfn + off, s.len - off % s.len));
        }
        let (idx, _) = self.find_containing(gfn);
        let node = (idx != NIL).then(|| self.n(idx))?;
        Some((node.hpfn + (gfn - node.key), node.key + node.len - gfn))
    }

    fn remove(&mut self, gfn: u64) -> Result<((u64, u64, u64), OpReport), MapError> {
        self.settle();
        let (z, visits) = self.find_containing(gfn);
        if z == NIL {
            return Err(MapError::NotFound { gfn });
        }
        let removed = {
            let node = self.n(z);
            (node.key, node.len, node.hpfn)
        };
        let rotations = self.delete(z);
        Ok((removed, OpReport { visits, rotations }))
    }

    fn insert_ascending(
        &mut self,
        segments: &mut dyn Iterator<Item = Segment>,
    ) -> Result<BatchReport, MapError> {
        self.settle();
        let (max, _) = self.right_spine();
        let older_end = if max == NIL {
            0
        } else {
            self.n(max).key + self.n(max).len
        };
        // Gather the leading segments whose entries each lie above the
        // last.
        let mut batch = Vec::new();
        let (mut added, mut end, mut rest) = (0u64, older_end, None);
        for seg in &mut *segments {
            if seg.count == 0 {
                continue;
            }
            if seg.len == 0 || seg.gfn < end {
                rest = Some(seg);
                break;
            }
            batch.push(seg);
            (added, end) = (added + seg.count, seg.end());
        }
        // Anything but an ascending batch on a one-entry base links for
        // real; an empty one counts as neither.
        if rest.is_some() || added == 0 || self.count != 1 {
            self.batches.linked += u64::from(added > 0 || rest.is_some());
            return self.link_ascending(
                &mut batch
                    .into_iter()
                    .chain(rest)
                    .chain(segments)
                    .flat_map(Segment::entries),
            );
        }
        let (first, last) = (batch[0], batch[batch.len() - 1]);
        self.held = Some(Held {
            segments: batch,
            older_end,
            first_end: first.gfn + first.len,
            last_key: last.end() - last.len,
            remove: hot_plug_remove(added),
        });
        self.batches.held += 1;
        Ok(hot_plug_insert(added))
    }

    fn remove_range(&mut self, gfn: u64, len: u64) -> BatchReport {
        if let Some(held) = self.held.take_if(|h| h.removed_whole_by(gfn, len)) {
            // The one linked entry is left, as it was.
            return held.remove;
        }
        self.settle();
        self.remove_each(gfn, len)
    }

    fn len(&self) -> usize {
        self.count + self.held().iter().map(|s| s.count as usize).sum::<usize>()
    }

    fn batches(&self) -> Batches {
        self.batches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_lookup_remove_basics() {
        let mut map = RbMemoryMap::new();
        map.insert(0x100, 4, 0x9000).unwrap();
        map.insert(0x200, 2, 0xA000).unwrap();
        assert_eq!(map.len(), 2);
        assert_eq!(map.lookup(0x101).unwrap().0, 0x9001);
        assert_eq!(map.lookup(0x201).unwrap().0, 0xA001);
        assert_eq!(
            map.lookup(0x300).unwrap_err(),
            MapError::NotFound { gfn: 0x300 }
        );
        let (removed, _) = map.remove(0x102).unwrap();
        assert_eq!(removed, (0x100, 4, 0x9000));
        assert_eq!(map.len(), 1);
        assert!(map.lookup(0x100).is_err());
        map.validate();
    }

    #[test]
    fn overlap_rejected_in_all_positions() {
        let mut map = RbMemoryMap::new();
        map.insert(100, 10, 0).unwrap();
        // Head, tail, containing, contained.
        assert!(matches!(
            map.insert(95, 10, 0),
            Err(MapError::Overlap { .. })
        ));
        assert!(matches!(
            map.insert(105, 10, 0),
            Err(MapError::Overlap { .. })
        ));
        assert!(matches!(
            map.insert(90, 40, 0),
            Err(MapError::Overlap { .. })
        ));
        assert!(matches!(
            map.insert(102, 3, 0),
            Err(MapError::Overlap { .. })
        ));
        // Exactly adjacent is fine.
        map.insert(110, 5, 0).unwrap();
        map.insert(90, 10, 0).unwrap();
        assert_eq!(map.len(), 3);
        map.validate();
    }

    #[test]
    fn zero_length_rejected() {
        let mut map = RbMemoryMap::new();
        assert_eq!(map.insert(5, 0, 0), Err(MapError::EmptyRange));
    }

    #[test]
    fn sequential_inserts_keep_invariants_and_log_depth() {
        let mut map = RbMemoryMap::new();
        let n = 4096u64;
        for i in 0..n {
            map.insert(i * 2, 1, i).unwrap();
        }
        map.validate();
        assert_eq!(map.len(), n as usize);
        // Depth must be O(log n): lookups visit ≤ 2·log2(n+1) nodes.
        let (_, report) = map.lookup(2 * (n - 1)).unwrap();
        assert!(
            report.visits <= 26,
            "lookup visited {} nodes",
            report.visits
        );
        // Insert visits grow with tree size — the mechanism behind the
        // paper's Table 2 overhead.
        let report = map.insert(u64::MAX / 2, 1, 0).unwrap();
        assert!(report.visits >= 10, "deep insert visited {}", report.visits);
    }

    #[test]
    fn interleaved_insert_remove_keeps_invariants() {
        let mut map = RbMemoryMap::new();
        for i in 0..512u64 {
            map.insert(i * 10, 5, i * 100).unwrap();
        }
        // Remove every third entry.
        for i in (0..512u64).step_by(3) {
            map.remove(i * 10 + 2).unwrap();
        }
        map.validate();
        // Reinsert into the holes.
        for i in (0..512u64).step_by(3) {
            map.insert(i * 10, 5, 7).unwrap();
        }
        map.validate();
        assert_eq!(map.len(), 512);
    }

    #[test]
    fn iter_is_sorted_and_complete() {
        let mut map = RbMemoryMap::new();
        let keys = [50u64, 10, 90, 30, 70, 20, 80];
        for &k in &keys {
            map.insert(k, 1, k + 1000).unwrap();
        }
        let entries: Vec<_> = map.iter().collect();
        assert_eq!(entries.len(), keys.len());
        for w in entries.windows(2) {
            assert!(w[0].0 < w[1].0);
        }
        assert_eq!(entries[0], (10, 1, 1010));
    }

    #[test]
    fn node_reuse_after_remove() {
        let mut map = RbMemoryMap::new();
        for i in 0..100u64 {
            map.insert(i, 1, i).unwrap();
        }
        let arena_size = map.nodes.len();
        for i in 0..100u64 {
            map.remove(i).unwrap();
        }
        assert!(map.is_empty());
        for i in 0..100u64 {
            map.insert(i + 1000, 1, i).unwrap();
        }
        assert_eq!(map.nodes.len(), arena_size, "freed nodes were not reused");
        map.validate();
    }

    #[test]
    fn rotations_are_counted() {
        let mut map = RbMemoryMap::new();
        // Ascending inserts force regular rebalancing.
        let mut total = BatchReport::default();
        for i in 0..1000u64 {
            total.add(map.insert(i, 1, i).unwrap());
        }
        assert!(total.rotations > 100, "rotations = {}", total.rotations);
        assert!(total.visits > 1000, "visits = {}", total.visits);
    }

    #[test]
    fn lookup_run_matches_per_frame_lookups() {
        let mut map = RbMemoryMap::new();
        for i in 0..256u64 {
            map.insert(i * 100, 40, i * 1000).unwrap();
        }
        // Every frame of an entry must report the same visits as its
        // per-frame lookup, and the run must cover exactly to the entry
        // end (or max_len, whichever is smaller).
        let ((hpfn, covered), run_report) = map.lookup_run(700 + 5, 1_000).unwrap();
        assert_eq!(covered, 35, "covers to the entry end");
        for off in 0..covered {
            let (h, r) = map.lookup(705 + off).unwrap();
            assert_eq!(h, hpfn + off);
            assert_eq!(r.visits, run_report.visits, "shared search path");
        }
        // max_len caps the run; zero max_len still covers one frame.
        let ((_, capped), _) = map.lookup_run(700, 8).unwrap();
        assert_eq!(capped, 8);
        let ((_, one), _) = map.lookup_run(700, 0).unwrap();
        assert_eq!(one, 1);
        assert!(map.lookup_run(41, 4).is_err(), "gap between entries");
    }

    #[test]
    fn remove_root_repeatedly() {
        let mut map = RbMemoryMap::new();
        for i in 0..64u64 {
            map.insert(i, 1, i).unwrap();
        }
        // Peel off entries via whatever is at the root each time.
        while map.len() > 0 {
            let root_key = map.nodes[map.root].key;
            map.remove(root_key).unwrap();
            map.validate();
        }
    }
}
