//! Coverage index over a growing collection of RR sets, plus the CELF-style
//! lazy-greedy heap used by the selection loops.
//!
//! The index supports exactly the operations TI-CARM / TI-CSRM (Alg. 2) need:
//!
//! * `coverage(v)` — number of *currently uncovered* sets containing `v`;
//!   `n · coverage(v) / θ` is the marginal-spread estimate of `v`;
//! * `cover_with(v)` — commit `v` as a seed: mark its sets covered and
//!   decrement other members' counts (Alg. 2 line 14);
//! * `add_batch(..)` — grow the sample after a latent-size update; new sets
//!   already hit by an existing seed are recorded as covered on arrival,
//!   which is Algorithm 3's `UpdateEstimates` in incremental form;
//! * `memory_bytes()` — byte accounting behind the paper's Table 3.
//!
//! Everything is flat: sets arrive in an [`RrArena`] and are stored as CSR
//! arrays, and the node → set-ids inverted index is a byte-compressed CSR
//! rebuilt by counting sort — no per-set or per-node heap allocations, no
//! `Vec` headers. Counting sort emits each node's set ids in ascending
//! order, so the inverted lists store LEB128 varint *deltas* (~2 bytes per
//! entry instead of 4 on Table-3-style samples). Small growth batches
//! append to a pending tail instead of triggering a rebuild; rebuilds fire
//! once the tail (or the covered fraction) is worth folding in, and also
//! *compact*: sets covered by committed seeds are dropped from both
//! directions (their contribution lives on in `covered_total`), so resident
//! memory tracks the live sample instead of everything ever ingested.

// INVARIANT(indexing): all computed indices in this file are bounded by
// construction — node ids come from the owning CsrGraph (< num_nodes) and
// slot/offset arithmetic is derived from lengths computed in the same
// function. Bounds are exercised by the crate test suite; new indexing
// must preserve this discipline.

use rm_graph::NodeId;
use rm_submod::bitset::{count_and_not, union_into};

use crate::arena::RrArena;

/// Bytes the LEB128 varint encoding of `x` occupies.
#[inline]
fn varint_len(x: u32) -> u32 {
    (31 - (x | 1).leading_zeros()) / 7 + 1
}

/// Appends the LEB128 varint encoding of `x` at `out[*k..]`, advancing `*k`.
#[inline]
fn varint_write(out: &mut [u8], k: &mut usize, mut x: u32) {
    while x >= 0x80 {
        out[*k] = (x as u8 & 0x7f) | 0x80;
        *k += 1;
        x >>= 7;
    }
    out[*k] = x as u8;
    *k += 1;
}

/// Decodes the LEB128 varint at `bytes[*k..]`, advancing `*k`.
#[inline]
fn varint_read(bytes: &[u8], k: &mut usize) -> u32 {
    let mut x = 0u32;
    let mut shift = 0;
    loop {
        let b = bytes[*k];
        *k += 1;
        x |= u32::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return x;
        }
        shift += 7;
    }
}

/// Coverage index over RR sets for a single advertiser.
///
/// Only *live* (uncovered) sets occupy storage; `covered` flags sets covered
/// since the last `add_batch` rebuild. The θ denominator is the separate
/// `total_sets` counter, which keeps counting dropped sets.
#[derive(Clone, Debug)]
pub struct RrCoverage {
    n: usize,
    /// Flat forward storage of live sets: set `sid` is
    /// `set_nodes[set_offsets[sid] .. set_offsets[sid + 1]]`.
    set_offsets: Vec<u32>,
    set_nodes: Vec<NodeId>,
    /// Inverted index, byte-compressed CSR: node `v`'s live set ids are the
    /// delta-decoded varints in `inv_bytes[inv_offsets[v] ..
    /// inv_offsets[v + 1]]` (first value absolute, the rest ascending
    /// deltas). Ids of sets covered since the last rebuild remain listed and
    /// are skipped on traversal.
    inv_offsets: Vec<u32>,
    inv_bytes: Vec<u8>,
    covered: Vec<bool>,
    /// Sets with id `>= indexed_sets` are *pending*: stored forward but not
    /// yet in the inverted CSR (`cover_with` scans them linearly). A rebuild
    /// folds them in once they outgrow an eighth of the indexed entries, so
    /// many tiny growth batches cost amortized `O(batch)` instead of a full
    /// rebuild each.
    indexed_sets: usize,
    /// `covered` flags that are true (all storage-resident covered sets).
    covered_live: usize,
    /// Current uncovered-set count per node.
    cov: Vec<u32>,
    /// Sets covered by committed seeds (numerator of the spread estimate).
    covered_total: usize,
    /// Sets ever added (the θ denominator), including compacted-away ones.
    total_sets: usize,
    /// `true` iff the index carries per-set importance weights (pooled
    /// cross-advertiser samples, `crate::pool`). Unweighted indexes keep the
    /// weighted side streams empty so their memory accounting and code paths
    /// are bit-identical to the pre-pool implementation.
    weighted: bool,
    /// Per-live-set importance weight, parallel to `covered` (empty when
    /// unweighted — every set counts 1).
    weights: Vec<f32>,
    /// Weighted current coverage per node, parallel to `cov` (empty when
    /// unweighted). Maintained incrementally and recomputed from scratch on
    /// every rebuild, so float drift from repeated subtraction is reset at
    /// each compaction.
    wcov: Vec<f64>,
    /// Weighted covered total (the numerator of the weighted spread
    /// estimate); 0 when unweighted — use [`Self::covered_weight`].
    covered_weight: f64,
}

impl Default for RrCoverage {
    /// An index over zero nodes — `new(0)`, preserving the `set_offsets`
    /// sentinel every method relies on (a derived default would panic in
    /// `add_batch`).
    fn default() -> Self {
        RrCoverage::new(0)
    }
}

impl RrCoverage {
    /// Empty index for a graph with `n` nodes.
    pub fn new(n: usize) -> Self {
        RrCoverage {
            n,
            set_offsets: vec![0],
            set_nodes: Vec::new(),
            inv_offsets: vec![0; n + 1],
            inv_bytes: Vec::new(),
            covered: Vec::new(),
            indexed_sets: 0,
            covered_live: 0,
            cov: vec![0; n],
            covered_total: 0,
            total_sets: 0,
            weighted: false,
            weights: Vec::new(),
            wcov: Vec::new(),
            covered_weight: 0.0,
        }
    }

    /// Empty *weighted* index for a graph with `n` nodes: every ingested set
    /// carries an importance weight (default 1), and the weighted accessors
    /// ([`Self::coverage_weight`], [`Self::covered_weight`],
    /// [`Self::top_k_weight`], [`Self::max_coverage_weight`]) report weight
    /// sums instead of counts. Used by the shared RR pool's reweighted
    /// tenants (`crate::pool`).
    pub fn new_weighted(n: usize) -> Self {
        RrCoverage {
            weighted: true,
            wcov: vec![0.0; n],
            ..RrCoverage::new(n)
        }
    }

    /// `true` iff this index carries per-set importance weights.
    #[inline]
    pub fn is_weighted(&self) -> bool {
        self.weighted
    }

    /// Total number of sets ever added (the θ denominator).
    #[inline]
    pub fn num_sets(&self) -> usize {
        self.total_sets
    }

    /// Number of sets covered by the committed seeds.
    #[inline]
    pub fn covered_total(&self) -> usize {
        self.covered_total
    }

    /// Weight of the sets covered by the committed seeds. For an unweighted
    /// index this is exactly `covered_total() as f64` (bit-identical — the
    /// conversion is exact for any feasible θ).
    #[inline]
    pub fn covered_weight(&self) -> f64 {
        if self.weighted {
            self.covered_weight
        } else {
            self.covered_total as f64
        }
    }

    /// Current (marginal) coverage of node `v`.
    #[inline]
    pub fn coverage(&self, v: NodeId) -> u32 {
        self.cov[v as usize]
    }

    /// Weighted current (marginal) coverage of node `v`. For an unweighted
    /// index this is exactly `f64::from(coverage(v))`. Gated on the integer
    /// count so that a node whose sets are all covered reports exactly 0
    /// even if float drift left a residue in the incremental weight sum.
    #[inline]
    pub fn coverage_weight(&self, v: NodeId) -> f64 {
        if self.weighted {
            if self.cov[v as usize] == 0 {
                0.0
            } else {
                self.wcov[v as usize].max(0.0)
            }
        } else {
            f64::from(self.cov[v as usize])
        }
    }

    /// Adds a batch of freshly sampled sets. `is_seed[u]` must be true for
    /// every already-committed seed of this advertiser: arriving sets hit by
    /// a seed are immediately counted as covered (Algorithm 3 semantics), so
    /// the seed set's spread estimate stays consistent with the enlarged
    /// sample. Returns how many of the new sets arrived covered.
    ///
    /// New uncovered sets append to the forward storage as a *pending* tail
    /// in amortized `O(batch entries)`; a compacting counting-sort rebuild
    /// (`O(n + live entries)`) folds the tail into the inverted CSR only
    /// once it outgrows an eighth of the indexed entries — or once covered
    /// sets are worth reclaiming — so a run of tiny growth batches stays
    /// linear overall.
    pub fn add_batch(&mut self, sets: &RrArena, is_seed: &[bool]) -> usize {
        self.add_range_impl(sets, 0, sets.len(), is_seed, None)
    }

    /// [`Self::add_batch`] restricted to the arena slice `[lo, hi)`: ingests
    /// sets `lo..hi` (ids assigned in arena order) without copying them out.
    /// This is how pool tenants consume a *prefix* of a shared arena — each
    /// tenant's θ addresses `[0, θ)` of the pooled sample, and growth ingests
    /// only the delta range.
    pub fn add_range(&mut self, sets: &RrArena, lo: usize, hi: usize, is_seed: &[bool]) -> usize {
        self.add_range_impl(sets, lo, hi, is_seed, None)
    }

    /// [`Self::add_range`] with per-set importance weights (`weights[i]` is
    /// the weight of arena set `lo + i`). Requires a
    /// [weighted](Self::new_weighted) index.
    pub fn add_range_weighted(
        &mut self,
        sets: &RrArena,
        lo: usize,
        hi: usize,
        is_seed: &[bool],
        weights: &[f32],
    ) -> usize {
        // INVARIANT: API contract — a weight per ingested set, on a
        // weighted index only.
        assert!(self.weighted, "add_range_weighted needs new_weighted()");
        // INVARIANT: API contract (see above).
        assert_eq!(weights.len(), hi - lo, "one weight per ingested set");
        self.add_range_impl(sets, lo, hi, is_seed, Some(weights))
    }

    fn add_range_impl(
        &mut self,
        sets: &RrArena,
        lo: usize,
        hi: usize,
        is_seed: &[bool],
        weights: Option<&[f32]>,
    ) -> usize {
        // INVARIANT: API contract — the mask length defines the node space;
        // a short mask would silently mis-classify high node ids.
        assert_eq!(is_seed.len(), self.n, "seed mask must cover every node");
        // INVARIANT: API contract — the range must address the arena.
        assert!(lo <= hi && hi <= sets.len(), "range out of arena bounds");
        let mut arrived_covered = 0;
        // INVARIANT: entry counts are capped far below u32::MAX by the
        // sample-size valve; overflow indicates a sizing bug, not data.
        let to_u32 = |len: usize| u32::try_from(len).expect("coverage index exceeds u32 entries");
        for i in lo..hi {
            let set = sets.get(i);
            let w = weights.map_or(1.0f32, |ws| ws[i - lo]);
            if set.iter().any(|&u| is_seed[u as usize]) {
                // Covered on arrival: contributes to `covered_total` and θ,
                // occupies no storage.
                self.covered_total += 1;
                if self.weighted {
                    self.covered_weight += f64::from(w);
                }
                arrived_covered += 1;
            } else {
                for &u in set {
                    self.cov[u as usize] += 1;
                }
                if self.weighted {
                    let wf = f64::from(w);
                    for &u in set {
                        self.wcov[u as usize] += wf;
                    }
                    self.weights.push(w);
                }
                self.set_nodes.extend_from_slice(set);
                self.set_offsets.push(to_u32(self.set_nodes.len()));
                self.covered.push(false);
            }
        }
        self.total_sets += hi - lo;

        let indexed_entries = self.set_offsets[self.indexed_sets] as usize;
        let pending_entries = self.set_nodes.len() - indexed_entries;
        let needs_fold = pending_entries * 8 >= indexed_entries + 1024;
        let needs_compaction = self.covered_live * 4 >= self.covered.len().max(1);
        if needs_fold || needs_compaction {
            self.rebuild();
        }
        arrived_covered
    }

    /// Compacting counting-sort rebuild: drops covered sets from the forward
    /// storage (renumbering survivors into exact-capacity arrays; the
    /// transient old+new overlap is the rebuild's high-water), then rebuilds
    /// the inverted CSR over every live set. Counting sort visits set ids in
    /// ascending order per node, so each list is stored as LEB128 deltas
    /// (first id absolute, then the gaps).
    fn rebuild(&mut self) {
        let live_entries: usize = self.cov.iter().map(|&c| c as usize).sum();
        let old_offsets = std::mem::take(&mut self.set_offsets);
        let old_nodes = std::mem::take(&mut self.set_nodes);
        let old_covered = std::mem::take(&mut self.covered);
        let old_weights = std::mem::take(&mut self.weights);
        let mut nodes: Vec<NodeId> = Vec::with_capacity(live_entries);
        let mut offsets: Vec<u32> = Vec::with_capacity(old_covered.len() - self.covered_live + 1);
        let mut weights: Vec<f32> = if self.weighted {
            Vec::with_capacity(old_covered.len() - self.covered_live)
        } else {
            Vec::new()
        };
        offsets.push(0);
        // INVARIANT: compaction only shrinks; see add_batch's cap argument.
        let to_u32 = |len: usize| u32::try_from(len).expect("coverage index exceeds u32 entries");
        for sid in 0..old_covered.len() {
            if old_covered[sid] {
                continue;
            }
            nodes.extend_from_slice(
                &old_nodes[old_offsets[sid] as usize..old_offsets[sid + 1] as usize],
            );
            offsets.push(to_u32(nodes.len()));
            if self.weighted {
                weights.push(old_weights[sid]);
            }
        }
        drop(old_nodes);
        let live_count = offsets.len() - 1;
        self.set_offsets = offsets;
        self.set_nodes = nodes;
        self.covered = vec![false; live_count];
        self.covered_live = 0;
        self.indexed_sets = live_count;
        self.weights = weights;

        // Sizing pass first: per-node encoded byte length, prefix-summed
        // into offsets. For weighted indexes the pass also recomputes the
        // per-node weight sums from scratch, resetting incremental float
        // drift at every rebuild.
        let mut byte_len = vec![0u32; self.n];
        let mut prev = vec![0u32; self.n];
        if self.weighted {
            self.wcov.fill(0.0);
        }
        for sid in 0..live_count {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            let w = if self.weighted {
                f64::from(self.weights[sid])
            } else {
                0.0
            };
            for &u in &self.set_nodes[a..b] {
                byte_len[u as usize] += varint_len(sid as u32 - prev[u as usize]);
                prev[u as usize] = sid as u32;
                if self.weighted {
                    self.wcov[u as usize] += w;
                }
            }
        }
        self.inv_offsets.clear();
        self.inv_offsets.reserve(self.n + 1);
        self.inv_offsets.push(0);
        let mut acc = 0u32;
        for &len in &byte_len {
            acc = acc
                // INVARIANT: same u32 sizing cap as add_batch.
                .checked_add(len)
                .expect("inverted index exceeds u32 bytes");
            self.inv_offsets.push(acc);
        }
        let mut cursor: Vec<usize> = self.inv_offsets[..self.n]
            .iter()
            .map(|&o| o as usize)
            .collect();
        prev.fill(0);
        self.inv_bytes = vec![0; acc as usize];
        for sid in 0..live_count {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            for &u in &self.set_nodes[a..b] {
                varint_write(
                    &mut self.inv_bytes,
                    &mut cursor[u as usize],
                    sid as u32 - prev[u as usize],
                );
                prev[u as usize] = sid as u32;
            }
        }
    }

    /// Commits `v` as a seed: covers all its uncovered sets, decrementing the
    /// coverage of every other member node. Returns the number of newly
    /// covered sets (the marginal coverage of `v` at commit time).
    pub fn cover_with(&mut self, v: NodeId) -> u32 {
        let mut k = self.inv_offsets[v as usize] as usize;
        let end = self.inv_offsets[v as usize + 1] as usize;
        let mut sid = 0u32;
        let mut newly = 0u32;
        while k < end {
            sid += varint_read(&self.inv_bytes, &mut k);
            if !self.covered[sid as usize] {
                self.cover_set(sid as usize);
                newly += 1;
            }
        }
        // Pending sets are not in the inverted CSR yet: scan the tail for
        // membership (bounded to an eighth of the index by the fold rule).
        for sid in self.indexed_sets..self.covered.len() {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            if !self.covered[sid] && self.set_nodes[a..b].contains(&v) {
                self.cover_set(sid);
                newly += 1;
            }
        }
        debug_assert_eq!(self.cov[v as usize], 0);
        self.covered_total += newly as usize;
        self.covered_live += newly as usize;
        newly
    }

    /// Tombstones every live set containing `v`: the sets leave the
    /// estimator entirely — members' coverage counts drop **and the θ
    /// denominator ([`Self::num_sets`]) shrinks** — unlike
    /// [`Self::cover_with`], which moves covered sets into the numerator.
    /// Storage is reclaimed lazily by the next rebuild ([`Self::compact`]
    /// forces one immediately). Returns the number of sets tombstoned.
    ///
    /// This is the invalidation half of a tombstone-and-reingest repair:
    /// tombstoning decrements `num_sets` and a later
    /// [`Self::add_batch`]/[`Self::add_range`] of the replacement sets
    /// re-increments it, so θ is preserved across the pair. Sets already
    /// covered by committed seeds are *not* touched — they hold no storage
    /// (or are flagged covered) and their contribution stays in
    /// [`Self::covered_total`].
    pub fn tombstone_containing(&mut self, v: NodeId) -> usize {
        self.tombstone_holding(&[v], |u| u == v)
    }

    /// Tombstones every live set holding one of `nodes` (`holds(u)` must be
    /// true exactly for the members of `nodes`): one inverted-list walk per
    /// node, and a single pass over the pending tail for all of them.
    fn tombstone_holding(&mut self, nodes: &[NodeId], holds: impl Fn(NodeId) -> bool) -> usize {
        let mut dropped = 0usize;
        for &v in nodes {
            let mut k = self.inv_offsets[v as usize] as usize;
            let end = self.inv_offsets[v as usize + 1] as usize;
            let mut sid = 0u32;
            while k < end {
                sid += varint_read(&self.inv_bytes, &mut k);
                if !self.covered[sid as usize] {
                    self.drop_set(sid as usize);
                    dropped += 1;
                }
            }
        }
        // Pending sets are not in the inverted CSR yet: scan the tail, as
        // `cover_with` does.
        for sid in self.indexed_sets..self.covered.len() {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            if !self.covered[sid] && self.set_nodes[a..b].iter().any(|&u| holds(u)) {
                self.drop_set(sid);
                dropped += 1;
            }
        }
        debug_assert!(nodes.iter().all(|&v| self.cov[v as usize] == 0));
        self.covered_live += dropped;
        self.total_sets -= dropped;
        dropped
    }

    /// Targeted repair after a graph delta replaced the sets of this index's
    /// arena that held a changed-edge target (`changed[v]`) with `repl`:
    ///
    /// 1. tombstones the live replaced sets — a set is replaced iff it
    ///    holds a changed node — as [`Self::tombstone_containing`] does for
    ///    one node, with one pass over the pending tail for all of them;
    /// 2. retracts `covered_before` from the covered total and θ — the
    ///    replaced sets that were covered before the delta, i.e. whose
    ///    pre-delta content held a seed. Covered sets keep no storage, so
    ///    the caller counts them on the pre-delta arena;
    /// 3. ingests the replacements under `is_seed`, reserving exactly the
    ///    storage they need (a doubling `Vec` would add up to a whole live
    ///    sample of slack to an index a rebuild had just trimmed).
    ///
    /// Every count ([`Self::coverage`], [`Self::covered_total`],
    /// [`Self::num_sets`]) then equals a cold ingest of the repaired arena,
    /// for the cost of the replaced sets instead of a rebuild over all θ.
    /// Returns how many replacements arrived covered.
    ///
    /// Unweighted indexes only: a weighted index would need the replaced
    /// covered sets' weights, and its float sums depend on ingest order.
    pub fn repair_sets(
        &mut self,
        changed: &[bool],
        covered_before: usize,
        repl: &RrArena,
        is_seed: &[bool],
    ) -> usize {
        // INVARIANT: API contract — see the doc comment.
        assert!(!self.weighted, "repair_sets needs an unweighted index");
        // INVARIANT: API contract — the mask defines the node space.
        assert_eq!(changed.len(), self.n, "changed mask must cover every node");
        let targets: Vec<NodeId> = (0..self.n as NodeId)
            .filter(|&v| changed[v as usize])
            .collect();
        self.tombstone_holding(&targets, |u| changed[u as usize]);
        // INVARIANT: API contract — the retracted sets were counted covered.
        assert!(
            covered_before <= self.covered_total,
            "retracting uncounted sets"
        );
        self.covered_total -= covered_before;
        self.total_sets -= covered_before;
        let (sets, entries) = repl
            .iter()
            .filter(|set| !set.iter().any(|&u| is_seed[u as usize]))
            .fold((0, 0), |(sets, entries), set| {
                (sets + 1, entries + set.len())
            });
        self.set_nodes.reserve_exact(entries);
        self.set_offsets.reserve_exact(sets);
        self.covered.reserve_exact(sets);
        self.add_batch(repl, is_seed)
    }

    /// Marks one live set dropped (tombstoned), decrementing its members'
    /// counts without crediting `covered_total`/`covered_weight` — the
    /// set leaves both the numerator and (via the caller's `total_sets`
    /// decrement) the denominator. Reuses the `covered` flag as the
    /// tombstone: every downstream path (traversal skips, rebuild drops)
    /// already treats flagged sets as gone.
    fn drop_set(&mut self, sid: usize) {
        self.covered[sid] = true;
        let a = self.set_offsets[sid] as usize;
        let b = self.set_offsets[sid + 1] as usize;
        if self.weighted {
            let w = f64::from(self.weights[sid]);
            for &u in &self.set_nodes[a..b] {
                self.cov[u as usize] -= 1;
                self.wcov[u as usize] -= w;
            }
        } else {
            for &u in &self.set_nodes[a..b] {
                self.cov[u as usize] -= 1;
            }
        }
    }

    /// Marks one live set covered, decrementing its members' counts.
    fn cover_set(&mut self, sid: usize) {
        self.covered[sid] = true;
        let a = self.set_offsets[sid] as usize;
        let b = self.set_offsets[sid + 1] as usize;
        if self.weighted {
            let w = f64::from(self.weights[sid]);
            self.covered_weight += w;
            for &u in &self.set_nodes[a..b] {
                self.cov[u as usize] -= 1;
                self.wcov[u as usize] -= w;
            }
        } else {
            for &w in &self.set_nodes[a..b] {
                self.cov[w as usize] -= 1;
            }
        }
    }

    /// Maximum current coverage over nodes not excluded by `skip`
    /// (linear scan; used for `F^max` in the latent-size rule, Eq. 10).
    pub fn max_coverage(&self, skip: impl Fn(NodeId) -> bool) -> u32 {
        let mut best = 0;
        for v in 0..self.n as NodeId {
            if !skip(v) {
                best = best.max(self.cov[v as usize]);
            }
        }
        best
    }

    /// Maximum current *weighted* coverage over nodes not excluded by
    /// `skip`. For an unweighted index this is exactly
    /// `f64::from(max_coverage(skip))`.
    pub fn max_coverage_weight(&self, skip: impl Fn(NodeId) -> bool) -> f64 {
        if !self.weighted {
            return f64::from(self.max_coverage(skip));
        }
        let mut best = 0.0f64;
        for v in 0..self.n as NodeId {
            if !skip(v) {
                best = best.max(self.coverage_weight(v));
            }
        }
        best
    }

    /// Forces a compacting rebuild and trims every backing allocation to
    /// its live size, so [`Self::memory_bytes`] afterwards reports exactly
    /// the live sample's footprint.
    ///
    /// `add_batch` is the only path that rebuilds, so without this the
    /// capacity-based accounting goes stale at run end: sets covered by
    /// seeds committed *after* the last growth batch keep their forward and
    /// inverted storage, and the pending tail's `Vec`-doubling slack is
    /// never returned. The engine compacts each ad's index at termination
    /// so Table 3 reports the post-compaction footprint, not that stale
    /// pre-compaction capacity.
    pub fn compact(&mut self) {
        self.rebuild();
        // The rebuild writes exact-capacity arrays; trimming is belt and
        // braces for the offset vectors it reuses.
        self.set_offsets.shrink_to_fit();
        self.set_nodes.shrink_to_fit();
        self.inv_offsets.shrink_to_fit();
        self.inv_bytes.shrink_to_fit();
        self.covered.shrink_to_fit();
        self.weights.shrink_to_fit();
    }

    /// Resident bytes of the index: flattened sets, the inverted CSR, and
    /// per-node/per-set bookkeeping. Capacity-based — this is what the
    /// allocator actually holds, and what Table 3 reports (the engine
    /// [compacts](Self::compact) at termination so the report reflects the
    /// live sample).
    pub fn memory_bytes(&self) -> usize {
        4 * self.set_nodes.capacity()
            + 4 * self.set_offsets.capacity()
            + 4 * self.inv_offsets.capacity()
            + self.inv_bytes.capacity()
            + 4 * self.cov.capacity()
            + self.covered.capacity()
            // Weighted side streams; both capacities are 0 when unweighted,
            // so the pre-pool accounting is unchanged byte for byte.
            + 4 * self.weights.capacity()
            + 8 * self.wcov.capacity()
    }

    /// Sum of the `k` largest current coverage counts over nodes not
    /// excluded by `skip`. By submodularity this bounds the coverage any
    /// size-`k` set can add on top of the committed seeds:
    /// `Λ(T ∪ S) ≤ Λ(S) + Σ_{v∈T} Λ(v | S) ≤ Λ(S) + top_k_sum` — the
    /// `OPT` side of the online stopping rule (`opim`).
    pub fn top_k_sum(&self, k: usize, skip: impl Fn(NodeId) -> bool) -> u64 {
        if k == 0 {
            return 0;
        }
        let mut tops: Vec<u32> = (0..self.n as NodeId)
            .filter(|&v| !skip(v))
            .map(|v| self.cov[v as usize])
            .filter(|&c| c > 0)
            .collect();
        if tops.len() > k {
            tops.select_nth_unstable_by(k - 1, |a, b| b.cmp(a));
            tops.truncate(k);
        }
        tops.into_iter().map(u64::from).sum()
    }

    /// Weighted [`Self::top_k_sum`]: the `k` largest *weighted* marginal
    /// coverages, the submodularity bound on the weighted coverage any
    /// size-`k` extension can add. For an unweighted index this is exactly
    /// `top_k_sum(k, skip) as f64` (the conversion is exact — counts stay
    /// far below 2⁵³).
    pub fn top_k_weight(&self, k: usize, skip: impl Fn(NodeId) -> bool) -> f64 {
        if !self.weighted {
            return self.top_k_sum(k, skip) as f64;
        }
        if k == 0 {
            return 0.0;
        }
        let mut tops: Vec<f64> = (0..self.n as NodeId)
            .filter(|&v| !skip(v))
            .map(|v| self.coverage_weight(v))
            .filter(|&c| c > 0.0)
            .collect();
        if tops.len() > k {
            tops.select_nth_unstable_by(k - 1, |a, b| {
                b.partial_cmp(a).unwrap_or(std::cmp::Ordering::Equal)
            });
            tops.truncate(k);
        }
        tops.into_iter().sum()
    }

    /// Greedy `k`-extension oracle for the online stopping rule: greedily
    /// covers `k` further nodes on a scratch clone (`self` is untouched) and
    /// reports the extension picks, the total covered count afterwards, and
    /// the post-extension [`Self::top_k_sum`] over `residual_k` nodes (the
    /// tight submodularity bound on what any further `residual_k` picks
    /// could still add).
    pub fn greedy_extension(
        &self,
        k: usize,
        residual_k: usize,
        skip: impl Fn(NodeId) -> bool,
    ) -> GreedyExtension {
        let mut scratch = self.clone();
        let mut picks = Vec::with_capacity(k);
        for _ in 0..k {
            // One loop serves both flavors: for an unweighted index
            // `coverage_weight` is the exact f64 image of the u32 count, so
            // the comparison (and hence every pick and tie-break) is
            // bit-identical to the historical integer loop.
            let mut best: Option<(NodeId, f64)> = None;
            for v in 0..scratch.n as NodeId {
                if skip(v) {
                    continue;
                }
                let c = scratch.coverage_weight(v);
                if c > 0.0 && best.is_none_or(|(_, bc)| c > bc) {
                    best = Some((v, c));
                }
            }
            let Some((v, _)) = best else { break };
            scratch.cover_with(v);
            picks.push(v);
        }
        let covered = scratch.covered_total();
        let covered_weight = scratch.covered_weight();
        let residual_top = scratch.top_k_sum(residual_k, &skip);
        let residual_top_weight = if scratch.weighted {
            scratch.top_k_weight(residual_k, &skip)
        } else {
            residual_top as f64
        };
        GreedyExtension {
            picks,
            covered,
            covered_weight,
            residual_top,
            residual_top_weight,
        }
    }

    /// Sets bit `sid` in `bits` for every live set containing `v`: indexed
    /// sets via the inverted varint list, the pending tail by forward scan —
    /// the same two membership sources [`Self::cover_with`] consults.
    fn mark_member_sets(&self, v: NodeId, bits: &mut [u64]) {
        let mut k = self.inv_offsets[v as usize] as usize;
        let end = self.inv_offsets[v as usize + 1] as usize;
        let mut sid = 0u32;
        while k < end {
            sid += varint_read(&self.inv_bytes, &mut k);
            bits[sid as usize / 64] |= 1u64 << (sid % 64);
        }
        for sid in self.indexed_sets..self.covered.len() {
            let a = self.set_offsets[sid] as usize;
            let b = self.set_offsets[sid + 1] as usize;
            if self.set_nodes[a..b].contains(&v) {
                bits[sid / 64] |= 1u64 << (sid % 64);
            }
        }
    }

    /// Covered counts after committing `base` and then `ext` (`self` is
    /// untouched): returns
    /// `(covered(base ∪ ext), covered(base ∪ ext) − covered(base))` — the
    /// achieved total and the extension's share, the two validation-stream
    /// counts of the online stopping rule.
    ///
    /// Computed without cloning the index: committing a seed set covers
    /// exactly its member sets minus those already covered, and membership
    /// never changes during a commit sequence, so the sequential-cover
    /// counts equal `|⋃ members \ covered|` — three word bitmaps over set
    /// ids and two word-parallel difference counts
    /// ([`rm_submod::bitset::count_and_not`]), versus the full index clone
    /// (forward CSR + inverted CSR + per-node counts) this used to build per
    /// call on the stopping rule's validation path.
    pub fn coverage_split(&self, base: &[NodeId], ext: &[NodeId]) -> (usize, usize) {
        let nwords = self.covered.len().div_ceil(64);
        let mut covered_words = vec![0u64; nwords];
        for (sid, &c) in self.covered.iter().enumerate() {
            if c {
                covered_words[sid / 64] |= 1u64 << (sid % 64);
            }
        }
        let mut base_bits = vec![0u64; nwords];
        for &v in base {
            self.mark_member_sets(v, &mut base_bits);
        }
        let newly_base = count_and_not(&base_bits, &covered_words);
        let mut all_bits = vec![0u64; nwords];
        for &v in ext {
            self.mark_member_sets(v, &mut all_bits);
        }
        union_into(&mut all_bits, &base_bits);
        let newly_all = count_and_not(&all_bits, &covered_words);
        (self.covered_total() + newly_all, newly_all - newly_base)
    }

    /// Plain greedy max-coverage of size `k` (test oracle / IM baseline).
    /// Does not mutate the index. One greedy loop serves both this oracle
    /// and the stopping rule's extension ([`Self::greedy_extension`]), so
    /// their tie-breaking cannot diverge.
    pub fn greedy_max_coverage(&self, k: usize) -> Vec<NodeId> {
        self.greedy_extension(k, 0, |_| false).picks
    }
}

/// Result of [`RrCoverage::greedy_extension`].
#[derive(Clone, Debug)]
pub struct GreedyExtension {
    /// Nodes picked greedily, in pick order (may be shorter than `k` when
    /// coverage runs out).
    pub picks: Vec<NodeId>,
    /// Total covered sets after the extension (committed + extension).
    pub covered: usize,
    /// Total covered *weight* after the extension; equals `covered as f64`
    /// exactly for unweighted indexes.
    pub covered_weight: f64,
    /// Post-extension top-`residual_k` marginal coverage sum.
    pub residual_top: u64,
    /// Weighted [`Self::residual_top`]; equals `residual_top as f64` exactly
    /// for unweighted indexes.
    pub residual_top_weight: f64,
}

/// CELF-style lazy-greedy max-heap over `(key, node)` pairs.
///
/// Valid whenever keys only *decrease* over time (true for RR coverage and
/// for coverage/cost with fixed costs): a popped entry is re-validated
/// against the caller's current key and re-inserted if stale.
#[derive(Clone, Debug, Default)]
pub struct LazyGreedyHeap {
    heap: std::collections::BinaryHeap<HeapEntry>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct HeapEntry {
    key: f64,
    node: NodeId,
}

impl Eq for HeapEntry {}

impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .partial_cmp(&other.key)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then_with(|| other.node.cmp(&self.node))
    }
}

impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl LazyGreedyHeap {
    /// Builds a heap from `(node, key)` pairs.
    pub fn build(entries: impl IntoIterator<Item = (NodeId, f64)>) -> Self {
        let heap = entries
            .into_iter()
            .map(|(node, key)| HeapEntry { key, node })
            .collect();
        LazyGreedyHeap { heap }
    }

    /// Number of (possibly stale) entries.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no entries remain.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Pushes an entry (used to return candidates after window inspection).
    pub fn push(&mut self, node: NodeId, key: f64) {
        self.heap.push(HeapEntry { key, node });
    }

    /// Pops the best *valid* entry: entries for which `skip` holds are
    /// dropped permanently; stale entries (current key < stored key) are
    /// re-inserted with their current key. Returns `(node, current_key)`.
    pub fn pop_valid(
        &mut self,
        mut current_key: impl FnMut(NodeId) -> f64,
        mut skip: impl FnMut(NodeId) -> bool,
    ) -> Option<(NodeId, f64)> {
        const EPS: f64 = 1e-12;
        while let Some(top) = self.heap.pop() {
            if skip(top.node) {
                continue;
            }
            let now = current_key(top.node);
            if now + EPS >= top.key {
                return Some((top.node, now));
            }
            // Stale: reinsert with the fresh key unless it is dead.
            if now > 0.0 {
                self.heap.push(HeapEntry {
                    key: now,
                    node: top.node,
                });
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Index over hand-rolled sets: ids are assigned in insertion order.
    fn build(n: usize, sets: &[&[NodeId]]) -> RrCoverage {
        let mut idx = RrCoverage::new(n);
        idx.add_batch(&sets.iter().copied().collect(), &vec![false; n]);
        idx
    }

    #[test]
    fn coverage_counts() {
        let idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        assert_eq!(idx.coverage(0), 1);
        assert_eq!(idx.coverage(1), 3);
        assert_eq!(idx.coverage(2), 1);
        assert_eq!(idx.coverage(3), 1);
    }

    #[test]
    fn cover_with_updates_everyone() {
        let mut idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        let newly = idx.cover_with(1);
        assert_eq!(newly, 3);
        assert_eq!(idx.covered_total(), 3);
        assert_eq!(idx.coverage(0), 0);
        assert_eq!(idx.coverage(2), 0);
        assert_eq!(idx.coverage(3), 1);
        // Covering again yields nothing new.
        assert_eq!(idx.cover_with(1), 0);
    }

    #[test]
    fn arrival_covered_sets_counted_but_not_indexed() {
        let mut idx = build(3, &[&[0]]);
        idx.cover_with(0);
        let mut seeds = vec![false; 3];
        seeds[0] = true;
        // New batch: one set hits seed 0, one does not.
        let batch: RrArena = [&[0u32, 1][..], &[2][..]].into_iter().collect();
        let covered = idx.add_batch(&batch, &seeds);
        assert_eq!(covered, 1);
        assert_eq!(idx.num_sets(), 3);
        assert_eq!(idx.covered_total(), 2);
        // Node 1 gets no coverage from the seed-covered set.
        assert_eq!(idx.coverage(1), 0);
        assert_eq!(idx.coverage(2), 1);
    }

    #[test]
    fn greedy_max_coverage_picks_hub_first() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let picked = idx.greedy_max_coverage(2);
        assert_eq!(picked, vec![0, 4]);
    }

    #[test]
    fn max_coverage_respects_skip() {
        let idx = build(3, &[&[0], &[0], &[1]]);
        assert_eq!(idx.max_coverage(|_| false), 2);
        assert_eq!(idx.max_coverage(|v| v == 0), 1);
    }

    #[test]
    fn memory_accounting_grows_monotonically() {
        let mut idx = RrCoverage::new(100);
        let initial = idx.memory_bytes();
        let mut last = initial;
        for round in 0..4u32 {
            let sets: RrArena = (0..50u32).map(|i| vec![i, (i + round) % 100]).collect();
            idx.add_batch(&sets, &[false; 100]);
            let now = idx.memory_bytes();
            // Capacity-based accounting is monotone: capacities never shrink
            // (a batch that fits in reserved slack reports the same bytes).
            assert!(
                now >= last,
                "round {round}: memory {now} shrank below {last}"
            );
            last = now;
        }
        assert!(last > initial, "adding sets must grow resident bytes");
        // Capacity-based accounting never under-reports the live entries.
        assert!(last >= 4 * idx.set_nodes.len() + idx.inv_bytes.len());
    }

    #[test]
    fn default_index_is_usable() {
        // Regression: a derived Default left `set_offsets` empty, panicking
        // in add_batch instead of no-op'ing like the seed implementation.
        let mut idx = RrCoverage::default();
        assert_eq!(idx.add_batch(&RrArena::new(), &[]), 0);
        assert_eq!(idx.num_sets(), 0);
    }

    #[test]
    fn compaction_reclaims_covered_sets() {
        // A hub covering most sets: the next add_batch rebuild must drop the
        // covered sets' storage, shrinking resident bytes below the
        // pre-cover level despite θ growing.
        let mut idx = RrCoverage::new(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        idx.add_batch(&big, &[false; 50]);
        let before = idx.memory_bytes();
        assert_eq!(idx.cover_with(0), 400);
        let mut seeds = [false; 50];
        seeds[0] = true;
        let small: RrArena = (0..10u32).map(|i| vec![1 + i % 49]).collect();
        idx.add_batch(&small, &seeds);
        assert_eq!(idx.num_sets(), 410, "θ keeps counting dropped sets");
        assert!(
            idx.memory_bytes() < before / 2,
            "compaction should reclaim covered sets: {} vs {before}",
            idx.memory_bytes()
        );
        assert_eq!(idx.covered_total(), 400);
        assert_eq!(idx.coverage(1), 1);
        // The rebuild writes exact-capacity arrays, so the capacity-based
        // accounting must equal the live footprint — no stale slack.
        assert_exact_accounting(&idx);
    }

    /// Asserts the capacity-based [`RrCoverage::memory_bytes`] equals the
    /// live footprint: every backing array trimmed to its length, the
    /// reported bytes the sum of those lengths.
    fn assert_exact_accounting(idx: &RrCoverage) {
        assert_eq!(idx.set_nodes.capacity(), idx.set_nodes.len());
        assert_eq!(idx.set_offsets.capacity(), idx.set_offsets.len());
        assert_eq!(idx.inv_offsets.capacity(), idx.inv_offsets.len());
        assert_eq!(idx.inv_bytes.capacity(), idx.inv_bytes.len());
        assert_eq!(idx.covered.capacity(), idx.covered.len());
        assert_eq!(idx.weights.capacity(), idx.weights.len());
        let live = 4 * idx.set_nodes.len()
            + 4 * idx.set_offsets.len()
            + 4 * idx.inv_offsets.len()
            + idx.inv_bytes.len()
            + 4 * idx.cov.capacity()
            + idx.covered.len()
            + 4 * idx.weights.len()
            + 8 * idx.wcov.capacity();
        assert_eq!(idx.memory_bytes(), live);
    }

    #[test]
    fn compact_reclaims_terminal_covers_without_an_add_batch() {
        // Covers committed after the last growth batch leave the
        // accounting stale (add_batch is the only rebuild path): the bytes
        // reported before compact() still include every covered set plus
        // the append tail's doubling slack. compact() must drop both and
        // leave the accounting exact — the Table 3 termination fix.
        let mut idx = RrCoverage::new(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        idx.add_batch(&big, &[false; 50]);
        let before = idx.memory_bytes();
        assert_eq!(idx.cover_with(0), 400);
        // No add_batch after the cover: the stale capacity still holds
        // every covered set.
        assert_eq!(idx.memory_bytes(), before);
        idx.compact();
        assert!(
            idx.memory_bytes() < before / 2,
            "terminal compaction should reclaim covered sets: {} vs {before}",
            idx.memory_bytes()
        );
        assert_exact_accounting(&idx);
        // Queries survive compaction untouched.
        assert_eq!(idx.num_sets(), 400, "θ keeps counting dropped sets");
        assert_eq!(idx.covered_total(), 400);
        assert_eq!(idx.coverage(0), 0);
        assert_eq!(idx.coverage(1), 0);
        // And the index stays fully usable after compaction.
        let more: RrArena = (0..4u32).map(|i| vec![1 + i]).collect();
        idx.add_batch(&more, &{
            let mut s = [false; 50];
            s[0] = true;
            s
        });
        assert_eq!(idx.num_sets(), 404);
        assert_eq!(idx.coverage(1), 1);
        assert_eq!(idx.cover_with(1), 1);
    }

    #[test]
    fn tombstone_removes_sets_from_both_sides_of_the_estimate() {
        let mut idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        // Tombstoning node 1's sets shrinks θ and the members' counts, and
        // credits nothing to the covered numerator.
        assert_eq!(idx.tombstone_containing(1), 3);
        assert_eq!(idx.num_sets(), 1, "θ shrinks with the tombstoned sets");
        assert_eq!(idx.covered_total(), 0);
        assert_eq!(idx.coverage(0), 0);
        assert_eq!(idx.coverage(2), 0);
        assert_eq!(idx.coverage(3), 1);
        // Tombstone-and-reingest preserves θ: adding 3 replacement sets
        // restores the denominator.
        let repl: RrArena = [&[0u32][..], &[2], &[0, 2]].into_iter().collect();
        idx.add_batch(&repl, &[false; 4]);
        assert_eq!(idx.num_sets(), 4);
        assert_eq!(idx.coverage(0), 2);
        // Tombstoning again is a no-op for already-dropped sets.
        assert_eq!(idx.tombstone_containing(1), 0);
    }

    #[test]
    fn tombstone_skips_covered_sets_and_compacts() {
        let mut idx = build(4, &[&[0, 1], &[1, 2], &[3]]);
        idx.cover_with(0);
        // Set {0,1} is covered: tombstoning node 1 drops only {1,2}.
        assert_eq!(idx.tombstone_containing(1), 1);
        assert_eq!(idx.num_sets(), 2);
        assert_eq!(idx.covered_total(), 1, "covered credit survives");
        assert_eq!(idx.coverage(2), 0);
        let before = idx.memory_bytes();
        idx.compact();
        assert!(
            idx.memory_bytes() <= before,
            "compact reclaims tombstoned storage"
        );
        // Still fully usable: the surviving set {3} covers as usual.
        assert_eq!(idx.cover_with(3), 1);
        assert_eq!(idx.covered_total(), 2);
    }

    #[test]
    fn tombstone_reaches_the_pending_tail() {
        let mut idx = build(6, &[&[0, 1], &[2]]);
        // Small batch stays pending (below the fold threshold).
        let tail: RrArena = [&[1u32, 3][..], &[4]].into_iter().collect();
        idx.add_batch(&tail, &[false; 6]);
        assert_eq!(idx.tombstone_containing(1), 2);
        assert_eq!(idx.num_sets(), 2);
        assert_eq!(idx.coverage(0), 0);
        assert_eq!(idx.coverage(3), 0);
        assert_eq!(idx.coverage(4), 1);
    }

    #[test]
    fn weighted_tombstone_drops_weight_without_crediting_it() {
        let mut idx = build_weighted(4, &[&[0, 1], &[1, 2], &[3]], &[0.5, 2.0, 4.0]);
        assert_eq!(idx.tombstone_containing(1), 2);
        assert_eq!(idx.num_sets(), 1);
        assert_eq!(idx.covered_weight(), 0.0);
        assert_eq!(idx.coverage_weight(0), 0.0);
        assert_eq!(idx.coverage_weight(3), 4.0);
    }

    #[test]
    fn top_k_sum_takes_the_largest_counts() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        // cov = [3, 1, 1, 1, 1].
        assert_eq!(idx.top_k_sum(1, |_| false), 3);
        assert_eq!(idx.top_k_sum(2, |_| false), 4);
        assert_eq!(idx.top_k_sum(10, |_| false), 7);
        assert_eq!(idx.top_k_sum(0, |_| false), 0);
        // Skipping the hub removes its count from the top.
        assert_eq!(idx.top_k_sum(1, |v| v == 0), 1);
    }

    #[test]
    fn greedy_extension_reports_gain_and_residual() {
        let idx = build(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]]);
        let ext = idx.greedy_extension(1, 2, |_| false);
        assert_eq!(ext.picks, vec![0]);
        assert_eq!(ext.covered, 3);
        // After covering the hub only set {4} remains: residual top-2 = 1.
        assert_eq!(ext.residual_top, 1);
        // The original index is untouched.
        assert_eq!(idx.covered_total(), 0);
        assert_eq!(idx.coverage(0), 3);
        // Extending by everything covers everything, residual 0.
        let all = idx.greedy_extension(5, 5, |_| false);
        assert_eq!(all.covered, 4);
        assert_eq!(all.residual_top, 0);
    }

    #[test]
    fn coverage_split_matches_sequential_covers() {
        let mut idx = build(5, &[&[0, 1], &[0, 2], &[1, 3], &[4]]);
        idx.cover_with(4);
        let (total, gain) = idx.coverage_split(&[0], &[3]);
        // Untouched by the scratch computation.
        assert_eq!(idx.covered_total(), 1);
        idx.cover_with(0);
        let after_base = idx.covered_total();
        idx.cover_with(3);
        assert_eq!(total, idx.covered_total());
        assert_eq!(total, 4);
        assert_eq!(gain, idx.covered_total() - after_base);
    }

    #[test]
    fn coverage_split_matches_clone_reference_with_pending_tail() {
        // The bitmap rewrite must agree with the historical clone-and-cover
        // implementation on every (base, ext) pair — including sets that sit
        // in the un-indexed pending tail and seeds covered beforehand.
        let mut idx = build(
            6,
            &[&[0, 1], &[0, 2], &[1, 3], &[4], &[2, 5], &[3, 5], &[1]],
        );
        idx.cover_with(5);
        // Small batch: stays pending (no rebuild at this size).
        let tail: RrArena = [&[0u32, 4][..], &[3]].into_iter().collect();
        idx.add_batch(&tail, &[false; 6]);
        let nodes: Vec<NodeId> = (0..6).collect();
        for base_len in 0..3 {
            for ext_len in 0..3 {
                let base = &nodes[..base_len];
                let ext = &nodes[base_len..base_len + ext_len];
                let got = idx.coverage_split(base, ext);
                let mut scratch = idx.clone();
                for &v in base {
                    scratch.cover_with(v);
                }
                let after_base = scratch.covered_total();
                for &v in ext {
                    scratch.cover_with(v);
                }
                let want = (
                    scratch.covered_total(),
                    scratch.covered_total() - after_base,
                );
                assert_eq!(got, want, "split differs for base={base:?} ext={ext:?}");
            }
        }
        // Overlapping base/ext and duplicate members are union-semantics.
        assert_eq!(
            idx.coverage_split(&[0, 0, 1], &[1, 0]),
            idx.coverage_split(&[0, 1], &[])
        );
    }

    /// Weighted index over hand-rolled sets with one weight per set.
    fn build_weighted(n: usize, sets: &[&[NodeId]], weights: &[f32]) -> RrCoverage {
        let arena: RrArena = sets.iter().copied().collect();
        let mut idx = RrCoverage::new_weighted(n);
        idx.add_range_weighted(&arena, 0, arena.len(), &vec![false; n], weights);
        idx
    }

    #[test]
    fn unweighted_accessors_mirror_counts_exactly() {
        let mut idx = build(4, &[&[0, 1], &[1, 2], &[1], &[3]]);
        assert!(!idx.is_weighted());
        for v in 0..4u32 {
            assert_eq!(idx.coverage_weight(v), f64::from(idx.coverage(v)));
        }
        assert_eq!(idx.max_coverage_weight(|_| false), 3.0);
        assert_eq!(
            idx.top_k_weight(2, |_| false),
            idx.top_k_sum(2, |_| false) as f64
        );
        idx.cover_with(1);
        assert_eq!(idx.covered_weight(), idx.covered_total() as f64);
        let ext = idx.greedy_extension(1, 1, |_| false);
        assert_eq!(ext.covered_weight, ext.covered as f64);
        assert_eq!(ext.residual_top_weight, ext.residual_top as f64);
    }

    #[test]
    fn weighted_coverage_counts_weights() {
        let idx = build_weighted(4, &[&[0, 1], &[1, 2], &[1], &[3]], &[0.5, 2.0, 1.0, 4.0]);
        assert!(idx.is_weighted());
        // Counts are still plain cardinalities …
        assert_eq!(idx.coverage(1), 3);
        // … while the weighted view sums importance weights.
        assert_eq!(idx.coverage_weight(0), 0.5);
        assert_eq!(idx.coverage_weight(1), 3.5);
        assert_eq!(idx.coverage_weight(3), 4.0);
        assert_eq!(idx.max_coverage_weight(|_| false), 4.0);
        // Top-2 by weight: {4.0 (node 3), 3.5 (node 1)}.
        assert_eq!(idx.top_k_weight(2, |_| false), 7.5);
    }

    #[test]
    fn weighted_cover_with_tracks_covered_weight() {
        let mut idx = build_weighted(4, &[&[0, 1], &[1, 2], &[1], &[3]], &[0.5, 2.0, 1.0, 4.0]);
        assert_eq!(idx.cover_with(1), 3);
        assert_eq!(idx.covered_total(), 3);
        assert_eq!(idx.covered_weight(), 3.5);
        assert_eq!(idx.coverage_weight(0), 0.0);
        assert_eq!(idx.coverage_weight(2), 0.0);
        assert_eq!(idx.coverage_weight(3), 4.0);
    }

    #[test]
    fn weighted_greedy_follows_weights_not_counts() {
        // Node 0 sits in 3 sets of weight 0.1; node 4 in one set of weight
        // 5. An unweighted greedy would take node 0 first; the weighted
        // greedy must take node 4.
        let idx = build_weighted(5, &[&[0, 1], &[0, 2], &[0, 3], &[4]], &[0.1, 0.1, 0.1, 5.0]);
        let ext = idx.greedy_extension(1, 1, |_| false);
        assert_eq!(ext.picks, vec![4]);
        assert_eq!(ext.covered_weight, 5.0);
        // Residual after taking node 4: node 0's three 0.1-sets.
        assert!((ext.residual_top_weight - 0.3).abs() < 1e-6);
        assert_eq!(ext.covered, 1);
    }

    #[test]
    fn weighted_arrival_covered_sets_add_weight() {
        let mut idx = build_weighted(3, &[&[0]], &[2.0]);
        idx.cover_with(0);
        let mut seeds = vec![false; 3];
        seeds[0] = true;
        let batch: RrArena = [&[0u32, 1][..], &[2][..]].into_iter().collect();
        let covered = idx.add_range_weighted(&batch, 0, 2, &seeds, &[3.0, 0.5]);
        assert_eq!(covered, 1);
        assert_eq!(idx.covered_weight(), 5.0);
        assert_eq!(idx.coverage_weight(1), 0.0);
        assert_eq!(idx.coverage_weight(2), 0.5);
    }

    #[test]
    fn add_range_matches_add_batch_on_the_slice() {
        let arena: RrArena = [&[0u32, 1][..], &[1, 2], &[2], &[0, 3]]
            .into_iter()
            .collect();
        let mut by_range = RrCoverage::new(4);
        by_range.add_range(&arena, 1, 3, &[false; 4]);
        let sub: RrArena = [&[1u32, 2][..], &[2][..]].into_iter().collect();
        let mut by_batch = RrCoverage::new(4);
        by_batch.add_batch(&sub, &[false; 4]);
        assert_eq!(by_range.num_sets(), by_batch.num_sets());
        for v in 0..4u32 {
            assert_eq!(by_range.coverage(v), by_batch.coverage(v), "node {v}");
        }
        // Prefix growth: ingesting [0,1) then [1,3) equals [0,3) at once.
        let mut grown = RrCoverage::new(4);
        grown.add_range(&arena, 0, 1, &[false; 4]);
        grown.add_range(&arena, 1, 3, &[false; 4]);
        let mut whole = RrCoverage::new(4);
        whole.add_range(&arena, 0, 3, &[false; 4]);
        for v in 0..4u32 {
            assert_eq!(grown.coverage(v), whole.coverage(v), "node {v}");
        }
    }

    #[test]
    fn weighted_survives_rebuild_and_compact() {
        // Force compaction with a covered hub, then check the weighted view
        // is recomputed consistently and the accounting stays exact.
        let mut idx = RrCoverage::new_weighted(50);
        let big: RrArena = (0..400u32).map(|i| vec![0, 1 + i % 49]).collect();
        let w: Vec<f32> = (0..400).map(|i| 1.0 + (i % 3) as f32).collect();
        idx.add_range_weighted(&big, 0, 400, &[false; 50], &w);
        let hub_weight: f64 = w.iter().map(|&x| f64::from(x)).sum();
        assert!((idx.coverage_weight(0) - hub_weight).abs() < 1e-9);
        assert_eq!(idx.cover_with(0), 400);
        assert!((idx.covered_weight() - hub_weight).abs() < 1e-9);
        idx.compact();
        assert_exact_accounting(&idx);
        assert_eq!(idx.coverage_weight(0), 0.0);
        assert!((idx.covered_weight() - hub_weight).abs() < 1e-9);
        // Post-compaction growth keeps working on the weighted side.
        let more: RrArena = (0..4u32).map(|i| vec![1 + i]).collect();
        idx.add_range_weighted(&more, 0, 4, &[false; 50], &[0.25; 4]);
        assert_eq!(idx.coverage_weight(1), 0.25);
    }

    #[test]
    fn lazy_heap_matches_eager_greedy() {
        // Lazily select 3 seeds by coverage and compare with the eager oracle.
        let sets: RrArena = [&[0u32, 1][..], &[0, 2], &[1, 2, 3], &[3], &[3, 4], &[4, 0]]
            .into_iter()
            .collect();
        let mut idx = RrCoverage::new(5);
        idx.add_batch(&sets, &[false; 5]);
        let eager = idx.greedy_max_coverage(3);

        let mut heap = LazyGreedyHeap::build((0..5u32).map(|v| (v, idx.coverage(v) as f64)));
        let mut lazy = Vec::new();
        let mut assigned = [false; 5];
        for _ in 0..3 {
            let idx_ref = &idx;
            let pick = heap
                .pop_valid(|v| idx_ref.coverage(v) as f64, |v| assigned[v as usize])
                .map(|(v, _)| v);
            if let Some(v) = pick {
                assigned[v as usize] = true;
                idx.cover_with(v);
                lazy.push(v);
            }
        }
        // Coverage gains must match the eager oracle gain-for-gain (ties may
        // reorder node ids, so compare covered totals).
        let mut idx2 = RrCoverage::new(5);
        idx2.add_batch(&sets, &[false; 5]);
        let mut eager_total = 0;
        for &v in &eager {
            eager_total += idx2.cover_with(v);
        }
        assert_eq!(idx.covered_total() as u32, eager_total);
        assert_eq!(lazy.len(), eager.len());
    }

    #[test]
    fn lazy_heap_skips_and_drains() {
        let mut heap = LazyGreedyHeap::build([(0u32, 5.0), (1, 4.0), (2, 3.0)]);
        // Skip node 0; key of 1 went stale (now 1.0), so 2 should win.
        let got = heap.pop_valid(
            |v| match v {
                1 => 1.0,
                2 => 3.0,
                _ => 0.0,
            },
            |v| v == 0,
        );
        assert_eq!(got, Some((2, 3.0)));
        let got2 = heap.pop_valid(|_| 1.0, |_| false);
        assert_eq!(got2, Some((1, 1.0)));
        assert!(heap.pop_valid(|_| 0.0, |_| false).is_none());
    }
}
