//! Property test: [`RrCoverage::repair_sets`] — the targeted index repair
//! of a graph delta — leaves exactly the counts a cold ingest of the
//! repaired arena produces.
//!
//! Each case builds an index the way the engine does: an indexed batch,
//! committed seeds covering some of its sets, and a pending tail ingested
//! under the seed mask (so some tail sets arrive covered). A random
//! changed-target mask then invalidates sets — covered and live, indexed
//! and pending — and random replacements (some holding a seed, so they
//! arrive covered) are spliced into the arena and repaired into the index.

use proptest::prelude::*;
use rand::{rngs::SmallRng, Rng, SeedableRng};
use rm_graph::NodeId;
use rm_rrsets::{RrArena, RrCoverage};

/// `count` random sets of 1–5 distinct nodes below `n`.
fn random_sets(rng: &mut SmallRng, n: usize, count: usize) -> RrArena {
    let mut arena = RrArena::new();
    let mut set: Vec<NodeId> = Vec::new();
    for _ in 0..count {
        set.clear();
        for _ in 0..rng.random_range(1..=5usize) {
            let u = rng.random_range(0..n) as NodeId;
            if !set.contains(&u) {
                set.push(u);
            }
        }
        arena.push_set(&set);
    }
    arena
}

/// Asserts every count of `got` equals a cold ingest of `arena`.
fn assert_matches_cold(
    got: &RrCoverage,
    arena: &RrArena,
    is_seed: &[bool],
    when: &str,
) -> Result<(), TestCaseError> {
    let mut cold = RrCoverage::new(is_seed.len());
    cold.add_batch(arena, is_seed);
    prop_assert_eq!(got.num_sets(), cold.num_sets(), "{} θ", when);
    prop_assert_eq!(
        got.covered_total(),
        cold.covered_total(),
        "{} covered",
        when
    );
    for v in 0..is_seed.len() as NodeId {
        prop_assert_eq!(
            got.coverage(v),
            cold.coverage(v),
            "{} coverage({})",
            when,
            v
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(150))]
    #[test]
    fn targeted_repair_matches_cold_ingest(
        n in 8usize..40,
        indexed in 60usize..400,
        tail in 1usize..40,
        seeds in 1usize..4,
        compact_first in any::<bool>(),
        seed in any::<u64>(),
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut arena = random_sets(&mut rng, n, indexed);
        let mut is_seed = vec![false; n];
        let mut idx = RrCoverage::new(n);
        idx.add_batch(&arena, &is_seed);
        if compact_first {
            idx.compact();
        }
        // Commit seeds on the indexed batch, then grow a pending tail
        // under the seed mask, then commit one more seed (covering sets in
        // both the indexed part and the tail).
        for _ in 0..seeds {
            let v = rng.random_range(0..n) as NodeId;
            idx.cover_with(v);
            is_seed[v as usize] = true;
        }
        let tail_sets = random_sets(&mut rng, n, tail);
        idx.add_batch(&tail_sets, &is_seed);
        arena.append(&tail_sets);
        let v = rng.random_range(0..n) as NodeId;
        idx.cover_with(v);
        is_seed[v as usize] = true;
        assert_matches_cold(&idx, &arena, &is_seed, "pre-delta")?;

        // The delta: a random changed-target mask, always naming at least
        // one node that some set holds.
        let mut changed: Vec<bool> = (0..n).map(|_| rng.random_range(0..5u32) == 0).collect();
        changed[arena.get(rng.random_range(0..arena.len()))[0] as usize] = true;
        let mut covered_before = 0;
        let repl = arena.repair_changed(&changed, |old, ids| {
            covered_before = ids
                .iter()
                .filter(|&&i| old.get(i).iter().any(|&u| is_seed[u as usize]))
                .count();
            random_sets(&mut rng, n, ids.len())
        });
        prop_assert!(!repl.is_empty());
        idx.repair_sets(&changed, covered_before, &repl, &is_seed);
        assert_matches_cold(&idx, &arena, &is_seed, "repaired")?;

        // The repaired index keeps working: one more commit and a compaction
        // still agree with the cold reference.
        let v = rng.random_range(0..n) as NodeId;
        idx.cover_with(v);
        is_seed[v as usize] = true;
        assert_matches_cold(&idx, &arena, &is_seed, "post-commit")?;
        idx.compact();
        assert_matches_cold(&idx, &arena, &is_seed, "post-compact")?;
    }
}
