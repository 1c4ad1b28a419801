//! `PreparedSampler::sample_indices` — the batched graph-delta resample
//! primitive — must be bit-identical to replaying each set with its own
//! one-set `sample_batch` call, for every model family and at any forced
//! worker count: per-set seeds are pure in the global set index, so which
//! worker draws a set (or how the ids are batched) cannot change it.

use std::sync::Arc;

use rand::{rngs::SmallRng, SeedableRng};
use rm_diffusion::{AdProbs, DiffusionModel, TicModel, TopicDistribution};
use rm_graph::{generators, CsrGraph};
use rm_rrsets::{PreparedSampler, RrArena};

/// Weighted-Cascade edge weights (`1 / indeg(v)`): uniform per node, so the
/// BA hubs exercise the geometric-skip paths too.
fn wc_probs(g: &CsrGraph) -> AdProbs {
    let mut p = vec![0.0f32; g.num_edges()];
    for (eid, _, v) in g.edges() {
        p[eid as usize] = 1.0 / g.in_degree(v) as f32;
    }
    AdProbs::from_vec(p)
}

/// IC, LT and two-topic TIC models over one graph.
fn models(g: &CsrGraph) -> Vec<(&'static str, DiffusionModel)> {
    let mut rng = SmallRng::seed_from_u64(3);
    let tic = Arc::new(TicModel::topical(g, 2, Default::default(), &mut rng));
    vec![
        ("ic", DiffusionModel::ic(wc_probs(g))),
        ("lt", DiffusionModel::lt(g, wc_probs(g))),
        (
            "tic",
            DiffusionModel::tic(tic, TopicDistribution::new(&[0.7, 0.3])),
        ),
    ]
}

/// Scattered ascending ids over `0..9000`: about 2700 of them, so the list
/// spans three steal blocks and its values spread over nine.
fn scattered_ids() -> Vec<usize> {
    (0..9000usize)
        .filter(|&i| (i.wrapping_mul(0x9E37_79B9) >> 7) % 10 < 3)
        .collect()
}

#[test]
fn sample_indices_matches_one_set_replay_at_any_thread_count() {
    let mut rng = SmallRng::seed_from_u64(11);
    let g = generators::barabasi_albert(600, 3, &mut rng);
    let ids = scattered_ids();
    assert!(ids.len() > 2 * 1024 && *ids.last().unwrap() > 8 * 1024);
    let seed = 0xDE17A;
    for (name, model) in models(&g) {
        let mut sampler = PreparedSampler::for_model(&g, &model);
        let mut want = RrArena::new();
        for &id in &ids {
            want.append(&sampler.sample_batch(&g, 1, seed, id as u64).0);
        }
        for threads in [1, 2, 4] {
            sampler.set_thread_count(threads);
            let got = sampler.sample_indices(&g, &ids, seed);
            assert_eq!(got, want, "{name}: differs at {threads} forced workers");
            let none = sampler.sample_indices(&g, &[], seed);
            assert!(none.is_empty(), "{name}: empty id list sampled sets");
        }
    }
}

#[test]
fn sample_indices_of_a_contiguous_run_is_the_batch() {
    // The list form over `first..first + count` is exactly the range form.
    let mut rng = SmallRng::seed_from_u64(12);
    let g = generators::barabasi_albert(400, 3, &mut rng);
    for (name, model) in models(&g) {
        let sampler = PreparedSampler::for_model(&g, &model);
        let ids: Vec<usize> = (700..3100).collect();
        let (want, _) = sampler.sample_batch(&g, ids.len(), 5, 700);
        assert_eq!(sampler.sample_indices(&g, &ids, 5), want, "{name}");
    }
}
