//! Layer probes of the traced run. Each drives one layer through its
//! public API on the workload's own graph and model, inside spans, and
//! reports work counts beside the span times.

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rm_core::{GraphDelta, RmInstance, ScalableConfig};
use rm_diffusion::{DiffusionModel, TicModel, TopicDistribution};
use rm_graph::{builder, CsrGraph, NodeId};
use rm_rrsets::TimConfig;
use rm_rrsets::{KptEstimator, PreparedSampler, RrArena, RrCoverage, SharedRrPool, TenantMode};

use crate::report::{median, Checks};
use crate::trace::Tracer;

const PROBE_SALT: u64 = 0x9_20BE;
const REPAIR_SALT: u64 = 0x2E_9A12;
/// Repetitions of the cheap probes; each reports the median.
const REPS: usize = 3;

pub struct SamplerProbe {
    pub prepare_s: f64,
    pub sets_per_s: f64,
    pub entries_per_set: f64,
    pub single_call_us: f64,
    /// The batch the rate was measured on (input of the coverage probe).
    pub arena: RrArena,
}

/// `PreparedSampler::for_model` and `sample_batch` on ad 0's model: one
/// contiguous batch, then the same stream drawn one set per call (the
/// pattern delta repair uses).
pub fn sampler(
    g: &CsrGraph,
    model: &DiffusionModel,
    sets: usize,
    single_sets: usize,
    threads: usize,
    seed: u64,
    tr: &mut Tracer,
) -> SamplerProbe {
    for _ in 0..REPS {
        let s = tr.span("sampler.prepare", || PreparedSampler::for_model(g, model));
        std::hint::black_box(s);
    }
    let mut sampler = PreparedSampler::for_model(g, model);
    sampler.set_thread_cap(threads);
    let seed = seed ^ PROBE_SALT;
    let mut arena = RrArena::new();
    for _ in 0..REPS {
        arena = tr.span("sampler.sample_batch", || {
            sampler.sample_batch(g, sets, seed, 0).0
        });
    }
    let batch_s = median(&tr.durations("sampler.sample_batch"));
    tr.span("sampler.single_calls", || {
        for id in 0..single_sets {
            std::hint::black_box(sampler.sample_batch(g, 1, seed, id as u64));
        }
    });
    let single_s = median(&tr.durations("sampler.single_calls"));
    SamplerProbe {
        prepare_s: median(&tr.durations("sampler.prepare")),
        sets_per_s: sets as f64 / batch_s,
        entries_per_set: arena.total_nodes() as f64 / arena.len().max(1) as f64,
        single_call_us: 1e6 * single_s / single_sets.max(1) as f64,
        arena,
    }
}

pub struct CoverageProbe {
    pub ingest_entries_per_s: f64,
    pub compact_s: f64,
    pub bytes_per_set: f64,
    pub weighted: bool,
}

/// `RrCoverage` ingest and `compact` over `arena`. With `weights`, the
/// weighted index and `add_range_weighted` (the reweighted pool tenant's
/// path); otherwise `add_batch` (private streams and identical tenants).
pub fn coverage(
    arena: &RrArena,
    n: usize,
    weights: Option<&[f32]>,
    tr: &mut Tracer,
) -> CoverageProbe {
    let no_seeds = vec![false; n];
    let mut bytes = 0usize;
    for _ in 0..REPS {
        let mut cov = tr.span("coverage.ingest", || match weights {
            Some(w) => {
                let mut cov = RrCoverage::new_weighted(n);
                cov.add_range_weighted(arena, 0, arena.len(), &no_seeds, w);
                cov
            }
            None => {
                let mut cov = RrCoverage::new(n);
                cov.add_batch(arena, &no_seeds);
                cov
            }
        });
        tr.span("coverage.compact", || cov.compact());
        bytes = cov.memory_bytes();
    }
    CoverageProbe {
        ingest_entries_per_s: arena.total_nodes() as f64 / median(&tr.durations("coverage.ingest")),
        compact_s: median(&tr.durations("coverage.compact")),
        bytes_per_set: bytes as f64 / arena.len().max(1) as f64,
        weighted: weights.is_some(),
    }
}

/// `KptEstimator::estimate_model` at the engine's starting latent size.
pub fn kpt(
    g: &CsrGraph,
    model: &DiffusionModel,
    cfg: &ScalableConfig,
    seed: u64,
    tr: &mut Tracer,
) -> f64 {
    let tim = TimConfig {
        epsilon: cfg.epsilon,
        ell: cfg.ell,
        max_sets_per_ad: cfg.max_sets_per_ad,
    };
    let seed = seed ^ PROBE_SALT;
    for _ in 0..REPS {
        let est = tr.span("kpt.estimate", || {
            KptEstimator::estimate_model(g, model, 1, &tim, seed)
        });
        std::hint::black_box(est);
    }
    median(&tr.durations("kpt.estimate"))
}

pub struct PoolProbe {
    pub sets_per_s: f64,
    pub bytes: f64,
    pub reweighted_ads: f64,
    /// A reweighted tenant's view of the grown arena and its weights, when
    /// the pool has one.
    pub weighted_view: Option<(RrArena, Vec<f32>)>,
}

/// `SharedRrPool::build` over every ad's model, then growth of the first
/// group to `sets` sets through `with_range`.
pub fn pool(
    inst: &RmInstance,
    sets: usize,
    threads: usize,
    seed: u64,
    tr: &mut Tracer,
) -> PoolProbe {
    let g = &inst.graph;
    let models: Vec<DiffusionModel> = (0..inst.num_ads()).map(|j| inst.model(j)).collect();
    let pool = tr.span("pool.build", || {
        SharedRrPool::build(g, &models, seed ^ PROBE_SALT, threads)
    });
    let grown = tr.span("pool.grow", || {
        pool.with_range(g, 0, 0, sets, |a, _, _, _| a.len())
    });
    let grow_s = median(&tr.durations("pool.grow"));
    let reweighted = (0..inst.num_ads()).find(|&j| pool.mode(j) == TenantMode::Reweighted);
    let weighted_view = reweighted.and_then(|j| {
        pool.with_range(g, j, 0, sets, |a, lo, hi, w| {
            let w = w.map(<[f32]>::to_vec).unwrap_or_else(|| vec![1.0; hi - lo]);
            (a.clone(), w)
        })
    });
    PoolProbe {
        sets_per_s: grown.unwrap_or(0) as f64 / grow_s,
        bytes: pool.memory_bytes() as f64,
        reweighted_ads: pool.reweighted_ads() as f64,
        weighted_view,
    }
}

pub struct RepairProbe {
    pub theta: usize,
    pub resampled: usize,
    pub locate_s: f64,
    pub resample_s: f64,
    pub resample_batched_s: f64,
    pub reindex_s: f64,
}

fn wc_model(g: &CsrGraph) -> DiffusionModel {
    DiffusionModel::ic(TicModel::weighted_cascade(g).ad_probs(&TopicDistribution::uniform(1)))
}

/// Replays one scripted delta (one arc in, one arc out) on a θ-set WC
/// arena with public rrsets calls, split the way the resident engine
/// repairs: locate the sets holding a changed target, resample them one
/// set per call, and rebuild the coverage index. A contiguous batch of the
/// same count is timed beside the one-set calls. The repaired arena must
/// equal a cold sample of the new graph.
pub fn repair(
    g: &CsrGraph,
    theta: usize,
    threads: usize,
    seed: u64,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> RepairProbe {
    let n = g.num_nodes();
    let arcs: Vec<(NodeId, NodeId)> = g.edges().map(|(_, u, v)| (u, v)).collect();
    let mut rng = SmallRng::seed_from_u64(seed ^ REPAIR_SALT);
    let e_in = rng.random_range(0..arcs.len());
    let e_out = (e_in + 1 + rng.random_range(0..arcs.len() - 1)) % arcs.len();
    let without = |skip: usize| -> Vec<(NodeId, NodeId)> {
        arcs.iter()
            .enumerate()
            .filter(|&(i, _)| i != skip)
            .map(|(_, &e)| e)
            .collect()
    };
    let g_old = builder::graph_from_edges(n, &without(e_in));
    let g_new = builder::graph_from_edges(n, &without(e_out));
    let mut s_old = PreparedSampler::for_model(&g_old, &wc_model(&g_old));
    let mut s_new = PreparedSampler::for_model(&g_new, &wc_model(&g_new));
    s_old.set_thread_cap(threads);
    s_new.set_thread_cap(threads);
    let seed = seed ^ REPAIR_SALT;
    let (mut arena, _) = s_old.sample_batch(&g_old, theta, seed, 0);
    let delta = GraphDelta {
        inserts: vec![arcs[e_in]],
        removes: vec![arcs[e_out]],
    };
    let changed = delta.changed_targets(n);

    let ids: Vec<usize> = tr.span("repair.locate", || {
        (0..arena.len())
            .filter(|&i| arena.get(i).iter().any(|&u| changed[u as usize]))
            .collect()
    });
    let repl = tr.span("repair.resample", || {
        let mut repl = RrArena::new();
        for &id in &ids {
            repl.append(&s_new.sample_batch(&g_new, 1, seed, id as u64).0);
        }
        repl
    });
    arena.replace_sets(&ids, &repl);
    tr.span("repair.resample_batched", || {
        std::hint::black_box(s_new.sample_batch(&g_new, ids.len(), seed, 0));
    });
    tr.span("repair.reindex", || {
        let mut cov = RrCoverage::new(n);
        cov.add_batch(&arena, &vec![false; n]);
        std::hint::black_box(cov);
    });
    let (cold, _) = s_new.sample_batch(&g_new, theta, seed, 0);
    let same = cold.len() == arena.len() && (0..cold.len()).all(|i| cold.get(i) == arena.get(i));
    checks.op(same, || {
        "repair probe: repaired arena differs from a cold sample of the new graph".to_string()
    });
    let last = |name| tr.durations(name).last().copied().unwrap_or(f64::NAN);
    RepairProbe {
        theta,
        resampled: ids.len(),
        locate_s: last("repair.locate"),
        resample_s: last("repair.resample"),
        resample_batched_s: last("repair.resample_batched"),
        reindex_s: last("repair.reindex"),
    }
}
