//! The three workloads: inputs generated from the seed, the timed engine
//! calls, and the output checks.
//!
//! All use the dblp-like generator, linear α = 0.2 incentives on
//! out-degree proxies, TI-CSRM and the paper's scalability configuration
//! (ε = 0.3, w = 5000, at most 2M RR sets per ad).

use std::sync::Arc;

use rand::{rngs::SmallRng, Rng, SeedableRng};
use rm_core::{
    AlgorithmKind, GraphDelta, IncentiveModel, ResidentEngine, RmInstance, RunStats,
    SamplingStrategy, ScalableConfig, SeedAllocation, ServeEvent, SingletonMethod, TiEngine,
    Window,
};
use rm_diffusion::{TicModel, TopicDistribution};
use rm_graph::{builder, seed::stream_seed, NodeId, SyntheticDataset};

use crate::report::Checks;
use crate::trace::{Stopwatch, Tracer};

const DATASET: SyntheticDataset = SyntheticDataset::DblpLike;
const INSTANCE_SALT: u64 = 0x5CA1E;
const TOPIC_SALT: u64 = 0x70_71C5;
const SCRIPT_SALT: u64 = 0x5C_217;
const CONFIG_SALT: u64 = 0xC0_F16;
/// Topic mixtures of the pooled TIC workload: one group founded by the
/// first, an identical twin (the last) and two reweighted tenants.
const MIXTURES: [[f32; 2]; 4] = [[0.7, 0.3], [0.3, 0.7], [0.5, 0.5], [0.7, 0.3]];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    BatchPrivate,
    BatchTicPooled,
    ServeChurn,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::BatchPrivate,
        Workload::BatchTicPooled,
        Workload::ServeChurn,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::BatchPrivate => "batch-private",
            Workload::BatchTicPooled => "batch-tic-pooled",
            Workload::ServeChurn => "serve-churn",
        }
    }

    pub fn parse(s: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == s)
    }
}

/// Sizes of one run. The amount of timed work is fixed from `--seconds`
/// through a nominal per-unit time measured on the reference machine, so
/// every run of one seed does the same work (and produces the same
/// counters) on any machine.
#[derive(Clone, Debug)]
pub struct Sizes {
    /// Dataset scale (dblp-like: 317k nodes at scale 1).
    pub scale: f64,
    /// Advertisers in the instance (the catalogue, for serve-churn).
    pub ads: usize,
    /// Advertisers admitted at once (serve-churn; all ads otherwise).
    pub active: usize,
    /// Timed units: `TiEngine::run` calls, or serve-churn cycles.
    pub units: usize,
    /// RR-set cap per ad.
    pub max_sets_per_ad: usize,
    /// Sets drawn by the sampler, coverage and pool probes.
    pub probe_sets: usize,
    /// Sets drawn through one-set sampler calls.
    pub single_sets: usize,
    /// RR sets per ad of the revenue evaluation.
    pub eval_theta: usize,
}

impl Sizes {
    pub fn new(w: Workload, toy: bool, seconds: f64) -> Sizes {
        // Nominal seconds per timed unit on the reference machine.
        let (scale, ads, active, nominal) = match w {
            Workload::BatchPrivate => (0.1, 5, 5, 10.0),
            Workload::BatchTicPooled => (0.05, 4, 4, 10.0),
            Workload::ServeChurn => (0.01, 8, 6, 1.5),
        };
        let min_units = if w == Workload::ServeChurn { 11 } else { 1 };
        let units = ((seconds / nominal).round() as usize).max(min_units);
        if toy {
            return Sizes {
                scale: 0.003,
                ads,
                active,
                units: min_units,
                max_sets_per_ad: 20_000,
                probe_sets: 2_000,
                single_sets: 200,
                eval_theta: 5_000,
            };
        }
        Sizes {
            scale,
            ads,
            active,
            units,
            max_sets_per_ad: 2_000_000,
            probe_sets: 200_000,
            single_sets: 20_000,
            eval_theta: 200_000,
        }
    }
}

/// Engine configuration of a workload, with both thread caps pinned.
pub fn config(w: Workload, sizes: &Sizes, seed: u64, threads: usize) -> ScalableConfig {
    let pooled = w == Workload::BatchTicPooled;
    ScalableConfig {
        epsilon: 0.3,
        window: Window::Size(5_000),
        max_sets_per_ad: sizes.max_sets_per_ad,
        sampling: if pooled {
            SamplingStrategy::OnlineBounds
        } else {
            SamplingStrategy::FixedTheta
        },
        rr_sharing: pooled,
        sampler_threads: threads,
        selection_threads: threads,
        seed: seed ^ CONFIG_SALT,
        ..Default::default()
    }
}

/// One serve-churn cycle: a departure, a graph delta (with its pre-built
/// post-delta instance), an arrival.
pub struct Cycle {
    pub depart: usize,
    pub delta: GraphDelta,
    pub inst: Arc<RmInstance>,
    pub arrive: usize,
}

/// Everything a workload's timed calls read, built before the first one.
pub enum Inputs {
    Batch {
        inst: RmInstance,
    },
    Serve {
        inst: Arc<RmInstance>,
        cycles: Vec<Cycle>,
    },
}

impl Inputs {
    /// The instance the timed calls start from.
    pub fn instance(&self) -> &RmInstance {
        match self {
            Inputs::Batch { inst } => inst,
            Inputs::Serve { inst, .. } => inst,
        }
    }

    /// The instance the final allocation lives on.
    pub fn final_instance(&self) -> &RmInstance {
        match self {
            Inputs::Batch { inst } => inst,
            Inputs::Serve { inst, cycles } => cycles.last().map_or(inst, |c| &c.inst),
        }
    }
}

/// WC instance over `graph`: `h` identical advertisers, CPE 1.
fn wc_instance(graph: Arc<rm_graph::CsrGraph>, h: usize, budget: f64, seed: u64) -> RmInstance {
    let tic = TicModel::weighted_cascade(&graph);
    let ads = (0..h)
        .map(|_| rm_core::Advertiser::new(1.0, budget, TopicDistribution::uniform(1)))
        .collect();
    RmInstance::build(
        graph,
        &tic,
        ads,
        IncentiveModel::Linear { alpha: 0.2 },
        SingletonMethod::OutDegree,
        seed ^ INSTANCE_SALT,
    )
}

fn budget(sizes: &Sizes) -> f64 {
    10_000.0 * sizes.scale
}

/// `k` distinct indices below `n`, in draw order (partial Fisher–Yates).
fn distinct(rng: &mut SmallRng, n: usize, k: usize) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..n).collect();
    let k = k.min(n);
    for i in 0..k {
        let j = rng.random_range(i..n);
        idx.swap(i, j);
    }
    idx.truncate(k);
    idx
}

/// Builds a workload's inputs from the seed. Graph and instance builds are
/// recorded as `graph.build` / `instance.build` spans.
pub fn setup(w: Workload, sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Inputs {
    match w {
        Workload::BatchPrivate => {
            let graph = tr.span("graph.build", || {
                Arc::new(DATASET.generate(sizes.scale, seed))
            });
            let inst = tr.span("instance.build", || {
                wc_instance(graph, sizes.ads, budget(sizes), seed)
            });
            Inputs::Batch { inst }
        }
        Workload::BatchTicPooled => {
            let graph = tr.span("graph.build", || {
                Arc::new(DATASET.generate(sizes.scale, seed))
            });
            let inst = tr.span("instance.build", || {
                let mut rng = SmallRng::seed_from_u64(seed ^ TOPIC_SALT);
                let tic = Arc::new(TicModel::topical(&graph, 2, Default::default(), &mut rng));
                let ads = MIXTURES
                    .iter()
                    .take(sizes.ads)
                    .map(|m| {
                        rm_core::Advertiser::new(1.0, budget(sizes), TopicDistribution::new(m))
                    })
                    .collect();
                RmInstance::build_tic(
                    graph,
                    tic,
                    ads,
                    IncentiveModel::Linear { alpha: 0.2 },
                    SingletonMethod::OutDegree,
                    seed ^ INSTANCE_SALT,
                )
            });
            Inputs::Batch { inst }
        }
        Workload::ServeChurn => serve_setup(sizes, seed, tr),
    }
}

/// Serve-churn inputs: the generated arcs minus a held-out set form the
/// starting graph; cycle `i` inserts held-out arc `i` and removes live arc
/// `i`. A delta's cost grows with the number of RR sets holding the changed
/// targets, so the arcs are ranked by their target's in-degree and each
/// cycle draws its pair from a different one of `k` equal strata: every
/// run's deltas cover the in-degree range evenly. Every graph (pre- and
/// post-delta) is built through the same edge list path, so unchanged nodes
/// keep their in-slot order.
fn serve_setup(sizes: &Sizes, seed: u64, tr: &mut Tracer) -> Inputs {
    let base = tr.span("graph.build", || DATASET.generate(sizes.scale, seed));
    let n = base.num_nodes();
    let arcs: Vec<(NodeId, NodeId)> = base.edges().map(|(_, u, v)| (u, v)).collect();
    let mut ranked: Vec<usize> = (0..arcs.len()).collect();
    ranked.sort_by_key(|&i| (base.in_degree(arcs[i].1), i));
    drop(base);
    let k = sizes.units;
    let m = arcs.len();
    let mut rng = SmallRng::seed_from_u64(seed ^ SCRIPT_SALT);
    let mut held = Vec::with_capacity(k);
    let mut removed = Vec::with_capacity(k);
    for stratum in distinct(&mut rng, k, k) {
        let (lo, hi) = (stratum * m / k, (stratum + 1) * m / k);
        let a = rng.random_range(lo..hi);
        let b = lo + (a - lo + 1 + rng.random_range(0..hi - lo - 1)) % (hi - lo);
        held.push(ranked[a]);
        removed.push(ranked[b]);
    }
    let mut live = vec![true; arcs.len()];
    for &i in &held {
        live[i] = false;
    }
    let build = |live: &[bool], tr: &mut Tracer| {
        let edges: Vec<(NodeId, NodeId)> = arcs
            .iter()
            .zip(live)
            .filter(|(_, &l)| l)
            .map(|(&e, _)| e)
            .collect();
        let graph = tr.span("graph.build", || {
            Arc::new(builder::graph_from_edges(n, &edges))
        });
        tr.span("instance.build", || {
            Arc::new(wc_instance(graph, sizes.ads, budget(sizes), seed))
        })
    };
    let inst = build(&live, tr);
    // The closed-loop script: depart a random active ad, apply the delta,
    // admit a random inactive ad.
    let mut active: Vec<bool> = (0..sizes.ads).map(|j| j < sizes.active).collect();
    let mut cycles = Vec::with_capacity(k);
    for (&h, &r) in held.iter().zip(&removed) {
        live[h] = true;
        live[r] = false;
        let on: Vec<usize> = (0..sizes.ads).filter(|&j| active[j]).collect();
        let depart = on[rng.random_range(0..on.len())];
        active[depart] = false;
        let off: Vec<usize> = (0..sizes.ads).filter(|&j| !active[j]).collect();
        let arrive = off[rng.random_range(0..off.len())];
        active[arrive] = true;
        cycles.push(Cycle {
            depart,
            delta: GraphDelta {
                inserts: vec![arcs[h]],
                removes: vec![arcs[r]],
            },
            inst: build(&live, tr),
            arrive,
        });
    }
    Inputs::Serve { inst, cycles }
}

/// What one pass over the timed calls produced.
pub struct Pass {
    /// Seconds inside timed engine calls, summed.
    pub timed_s: f64,
    /// Seconds per timed unit (per `TiEngine::run`, or per churn cycle).
    pub unit_s: Vec<f64>,
    /// Serve-churn: bulk admission and per-event latencies, in seconds.
    pub admit_s: f64,
    pub arrival_s: Vec<f64>,
    pub departure_s: Vec<f64>,
    pub delta_s: Vec<f64>,
    /// Deterministic counters of every unit: `RunStats` without its clock
    /// field and, for serve-churn, the event log.
    pub counters: String,
    /// The first batch run's statistics, or the serve script's.
    pub stats: RunStats,
    pub events: Vec<ServeEvent>,
    /// The final allocation of every batch run, or of the serve script.
    pub allocs: Vec<SeedAllocation>,
}

impl Pass {
    fn empty() -> Self {
        Pass {
            timed_s: 0.0,
            unit_s: Vec::new(),
            admit_s: 0.0,
            arrival_s: Vec::new(),
            departure_s: Vec::new(),
            delta_s: Vec::new(),
            counters: String::new(),
            stats: RunStats::default(),
            events: Vec::new(),
            allocs: Vec::new(),
        }
    }
}

fn counters(stats: &RunStats, events: &[ServeEvent]) -> String {
    let mut s = stats.clone();
    s.elapsed = Default::default();
    format!("{s:?} {events:?}")
}

/// Ads whose payment under the engine's own π̂ — revenue estimate plus
/// seeding cost — exceeds their budget, each with its overrun as a share of
/// the budget.
fn over_budget(inst: &RmInstance, stats: &RunStats) -> Vec<(usize, f64)> {
    let mut over = Vec::new();
    for (i, ad) in inst.ads.iter().enumerate() {
        let rho = stats.revenue_per_ad.get(i).copied().unwrap_or(0.0)
            + stats.seeding_cost_per_ad.get(i).copied().unwrap_or(0.0);
        if rho > ad.budget * (1.0 + 1e-6) + 1e-9 {
            over.push((i, rho / ad.budget - 1.0));
        }
    }
    over
}

/// The number of ads over budget under π̂ and the largest overrun.
pub fn budget_overrun(inst: &RmInstance, stats: &RunStats) -> (usize, f64) {
    let over = over_budget(inst, stats);
    (over.len(), over.iter().map(|&(_, f)| f).fold(0.0, f64::max))
}

fn check_budgets(inst: &RmInstance, stats: &RunStats, checks: &mut Checks, when: &str) {
    let (over, worst) = budget_overrun(inst, stats);
    checks.op(over == 0, || {
        format!(
            "{when}: {over} ad(s) pay more than their budget under π̂ (worst by {worst:.6} of it)"
        )
    });
}

/// The resident engine's budget contract at the end of the serve script.
/// Every commit passes the budget gate under the π̂ of its moment, and
/// `apply_graph_delta` keeps committed seeds while it re-estimates π̂ on the
/// repaired sample. So an ad may end the script over budget only through
/// seeds it held before the last graph delta, and then it holds exactly
/// those: once over, no commit passes its gate. `kept` is the allocation
/// just before the last delta.
fn check_serve_budgets(
    inst: &RmInstance,
    stats: &RunStats,
    alloc: &SeedAllocation,
    kept: &SeedAllocation,
    checks: &mut Checks,
) {
    let bad: Vec<(usize, f64)> = over_budget(inst, stats)
        .into_iter()
        .filter(|&(i, _)| alloc.seeds[i].is_empty() || alloc.seeds[i] != kept.seeds[i])
        .collect();
    checks.op(bad.is_empty(), || {
        format!(
            "end of script: ad(s) over budget under π̂ (ad, overrun share) {bad:?} \
             hold seeds committed after the last graph delta"
        )
    });
}

/// The strict budget check of the serve script's bulk admission, where most
/// commits happen and no graph delta has moved π̂ yet; batch inputs have no
/// admission. The engine's π̂ per ad is read only by `finish`, so an untimed
/// twin engine is admitted alike. It is deterministic, so its admission
/// event must equal the timed engine's (`timed`). Run it after the peak RSS
/// is read: the twin's memory is the benchmark's, not the workload's.
pub fn check_admission(
    inputs: &Inputs,
    sizes: &Sizes,
    cfg: ScalableConfig,
    timed: Option<&ServeEvent>,
    checks: &mut Checks,
) {
    let Inputs::Serve { inst, .. } = inputs else {
        return;
    };
    let bulk: Vec<usize> = (0..sizes.active).collect();
    let twin = ResidentEngine::new(Arc::clone(inst), AlgorithmKind::TiCsrm, cfg)
        .and_then(|mut eng| eng.add_advertisers(&bulk).map(|ev| (eng, ev)));
    let Ok((eng, ev)) = twin else {
        checks.op(false, || format!("twin admission: {:?}", twin.err()));
        return;
    };
    checks.op(timed == Some(&ev), || {
        format!("twin admission event {ev:?} differs from the timed one {timed:?}")
    });
    let (_, stats) = eng.finish();
    check_budgets(inst, &stats, checks, "after bulk admission");
}

/// Runs the workload's timed engine calls once.
pub fn run_pass(
    inputs: &Inputs,
    sizes: &Sizes,
    cfg: ScalableConfig,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    match inputs {
        Inputs::Batch { inst } => batch_pass(inst, sizes, cfg, tr, checks),
        Inputs::Serve { inst, cycles } => serve_pass(inst, cycles, sizes, cfg, tr, checks),
    }
}

fn batch_pass(
    inst: &RmInstance,
    sizes: &Sizes,
    cfg: ScalableConfig,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::empty();
    for rep in 0..sizes.units {
        // Each run draws its own engine seed stream: OnlineBounds stops at a
        // seed-dependent doubling, so a run's median spans several.
        let cfg = ScalableConfig {
            seed: stream_seed(cfg.seed, rep as u64),
            ..cfg
        };
        let clock = Stopwatch::start();
        let open = tr.enter("engine.run");
        let out = TiEngine::try_new(inst, AlgorithmKind::TiCsrm, cfg).map(|e| e.run());
        tr.exit(open);
        let secs = clock.secs();
        checks.op(out.is_ok(), || {
            format!("TiEngine::try_new: {:?}", out.as_ref().err())
        });
        let Ok((alloc, stats)) = out else { continue };
        pass.timed_s += secs;
        pass.unit_s.push(secs);
        checks.op(alloc.is_disjoint(), || {
            format!("run {rep}: allocation not disjoint")
        });
        check_budgets(inst, &stats, checks, &format!("run {rep}"));
        pass.counters += &counters(&stats, &[]);
        if rep == 0 {
            pass.stats = stats;
        }
        pass.allocs.push(alloc);
    }
    pass
}

fn serve_pass(
    inst: &Arc<RmInstance>,
    cycles: &[Cycle],
    sizes: &Sizes,
    cfg: ScalableConfig,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Pass {
    let mut pass = Pass::empty();
    let eng = ResidentEngine::new(Arc::clone(inst), AlgorithmKind::TiCsrm, cfg);
    checks.op(eng.is_ok(), || {
        format!("ResidentEngine::new: {:?}", eng.as_ref().err())
    });
    let Ok(mut eng) = eng else { return pass };

    let bulk: Vec<usize> = (0..sizes.active).collect();
    let mut kept = eng.allocation();
    let clock = Stopwatch::start();
    let r = tr.span("resident.admit", || eng.add_advertisers(&bulk));
    pass.admit_s = clock.secs();
    pass.timed_s += pass.admit_s;
    checks.op(r.is_ok(), || format!("bulk admission: {:?}", r.err()));

    for (i, cyc) in cycles.iter().enumerate() {
        let cycle = tr.enter("resident.cycle");
        let clock = Stopwatch::start();
        let dep = tr.span("resident.departure", || eng.remove_advertiser(cyc.depart));
        let t_dep = clock.secs();
        kept = eng.allocation();
        let clock = Stopwatch::start();
        let del = tr.span("resident.delta", || {
            eng.apply_graph_delta(Arc::clone(&cyc.inst), &cyc.delta)
        });
        let t_del = clock.secs();
        let clock = Stopwatch::start();
        let arr = tr.span("resident.arrival", || eng.add_advertiser(cyc.arrive));
        let t_arr = clock.secs();
        tr.exit(cycle);
        checks.op(dep.is_ok(), || {
            format!("cycle {i}: departure: {:?}", dep.err())
        });
        checks.op(del.is_ok(), || format!("cycle {i}: delta: {:?}", del.err()));
        checks.op(arr.is_ok(), || {
            format!("cycle {i}: arrival: {:?}", arr.err())
        });
        checks.op(eng.allocation().is_disjoint(), || {
            format!("cycle {i}: allocation not disjoint")
        });
        pass.departure_s.push(t_dep);
        pass.delta_s.push(t_del);
        pass.arrival_s.push(t_arr);
        pass.unit_s.push(t_dep + t_del + t_arr);
        pass.timed_s += t_dep + t_del + t_arr;
    }
    pass.events = eng.events().to_vec();
    let (alloc, stats) = eng.finish();
    let last = cycles.last().map_or(&**inst, |c| &*c.inst);
    check_serve_budgets(last, &stats, &alloc, &kept, checks);
    pass.counters = counters(&stats, &pass.events);
    pass.stats = stats;
    pass.allocs.push(alloc);
    pass
}
