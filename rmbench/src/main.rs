//! `rmbench` — the repository's benchmark.
//!
//! ```text
//! rmbench --workload <batch-private|batch-tic-pooled|serve-churn>
//!         --seed <n> --seconds <s> --trace <0|1> [--size full|toy]
//! ```
//!
//! One workload per process, so the reported peak RSS is that workload's.
//! Inputs come from `--seed`; the timed work is sized from `--seconds`.
//! `--trace 0` prints the end-to-end metrics, `--trace 1` runs the same
//! calls untraced and then traced, adds the layer probes, writes the spans
//! to `rmbench/out/` and prints the per-layer metrics. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`,
//! `metrics`. The line before it is a report with the environment block,
//! the counter fingerprint and every informational metric. See
//! `rmbench/README.md` for what each metric means.

#![forbid(unsafe_code)]

mod probes;
mod report;
mod trace;
mod workloads;

use std::path::PathBuf;

use report::{metric, metrics_json, Checks, Metric};
use trace::{Stopwatch, Tracer};
use workloads::{Inputs, Pass, Sizes, Workload};

const USAGE: &str = "usage: rmbench --workload <batch-private|batch-tic-pooled|serve-churn> \
                     --seed <n> --seconds <s> --trace <0|1> [--size full|toy]";
/// Fixed seed of the revenue evaluation (outside the timed region).
const EVAL_SEED: u64 = 0xE7A1;
/// Thread cap of both the sampler and the selection fan-out (never above
/// the machine's parallelism).
const THREADS: usize = 2;
/// Set-ups timed before the pass, and as many again after it once the
/// engine and the inputs are gone. `setup_s` is the median of both
/// windows, which lie a run's length apart: a shared machine has slow
/// phases longer than one window.
const SETUPS: usize = 8;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    toy: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut toy = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                });
            }
            "--size" => {
                toy = match value.as_str() {
                    "full" => false,
                    "toy" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        toy,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("rmbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(THREADS);
    let sizes = Sizes::new(args.workload, args.toy, args.seconds);
    let cfg = workloads::config(args.workload, &sizes, args.seed, threads);
    let mut checks = Checks::default();

    let mut tr = Tracer::new(args.trace);
    let mut setup_secs = Vec::new();
    let inputs = timed_setups(&args, &sizes, &mut tr, &mut setup_secs);

    let (summary, final_metrics) = if args.trace {
        traced_run(&args, &sizes, cfg, threads, &inputs, tr, &mut checks)
    } else {
        untraced_run(&args, &sizes, cfg, inputs, setup_secs, &mut checks)
    };

    let failed_frac = checks.failed as f64 / checks.attempted.max(1) as f64;
    let mut info = summary.info;
    info.push(metric("failed_frac", failed_frac, "share"));
    println!(
        "{{\"rmbench\": {{\"workload\": {}, \"size\": {}, \"seconds\": {}, \"trace\": {}, \
         \"units\": {}, \"counters\": {}, \"env\": {}, \"info\": {}}}}}",
        report::quote(args.workload.name()),
        report::quote(if args.toy { "toy" } else { "full" }),
        report::num(args.seconds),
        u8::from(args.trace),
        sizes.units,
        report::quote(&report::fingerprint(&summary.counters)),
        report::env_json(args.seed, threads),
        metrics_json(&info),
    );
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        checks.failed == 0,
        checks.attempted.max(1),
        checks.failed,
        metrics_json(&final_metrics),
    );
}

/// Builds the run's inputs `SETUPS` times in a row, appending each
/// build's seconds to `secs`, and returns the last build.
fn timed_setups(args: &Args, sizes: &Sizes, tr: &mut Tracer, secs: &mut Vec<f64>) -> Inputs {
    let mut built = None;
    for _ in 0..SETUPS {
        drop(built.take());
        let clock = Stopwatch::start();
        let open = tr.enter("setup");
        built = Some(workloads::setup(args.workload, sizes, args.seed, tr));
        tr.exit(open);
        secs.push(clock.secs());
    }
    built.expect("at least one set-up")
}

/// What a run reports besides the contract's metrics.
struct Summary {
    counters: String,
    info: Vec<Metric>,
}

/// Serve-event latencies in milliseconds; a tail comes with its
/// percentile.
fn serve_info(pass: &Pass) -> Vec<Metric> {
    if pass.arrival_s.is_empty() {
        return Vec::new();
    }
    let ms = |secs: &[f64]| secs.iter().map(|s| 1e3 * s).collect::<Vec<f64>>();
    let (arr, dep, del) = (
        ms(&pass.arrival_s),
        ms(&pass.departure_s),
        ms(&pass.delta_s),
    );
    let mut info = vec![
        metric("admit_s", pass.admit_s, "s"),
        metric("events_per_kind", arr.len() as f64, "count"),
        metric("arrival_p50_ms", report::median(&arr), "ms"),
        metric("departure_p50_ms", report::median(&dep), "ms"),
        metric("delta_p50_ms", report::median(&del), "ms"),
    ];
    for (name, pct_name, xs) in [
        ("arrival_tail_ms", "arrival_tail_pct", &arr),
        ("delta_tail_ms", "delta_tail_pct", &del),
    ] {
        if let Some((v, pct)) = report::tail(xs) {
            info.push(metric(name, v, "ms"));
            info.push(metric(pct_name, pct, "percentile"));
        }
    }
    info
}

/// The engine's deterministic work counters beside the wall clocks.
fn counter_info(stats: &rm_core::RunStats) -> Vec<Metric> {
    vec![
        metric("rr_sets_sampled", stats.rr_sets_sampled as f64, "count"),
        metric("rounds", stats.rounds as f64, "count"),
        metric("bound_checks", stats.bound_checks as f64, "count"),
        metric(
            "rr_memory_mb",
            stats.rr_memory_bytes as f64 / (1024.0 * 1024.0),
            "MiB",
        ),
    ]
}

fn untraced_run(
    args: &Args,
    sizes: &Sizes,
    cfg: rm_core::ScalableConfig,
    inputs: Inputs,
    mut setup_secs: Vec<f64>,
    checks: &mut Checks,
) -> (Summary, Vec<Metric>) {
    let mut off = Tracer::new(false);
    let pass = workloads::run_pass(&inputs, sizes, cfg, &mut off, checks);
    let inst = inputs.final_instance();
    let method = rm_core::EvalMethod::RrSets {
        theta: sizes.eval_theta,
    };
    let revenues: Vec<f64> = pass
        .allocs
        .iter()
        .map(|a| rm_core::evaluate_allocation(inst, a, method, EVAL_SEED).total_revenue())
        .collect();
    let revenue = report::median(&revenues);
    checks.op(revenue.is_finite() && revenue > 0.0, || {
        format!("revenue {revenue} is not positive")
    });
    let (over, worst) = workloads::budget_overrun(inst, &pass.stats);
    drop(inputs);
    let late = timed_setups(args, sizes, &mut off, &mut setup_secs);
    let rss = report::peak_rss_mib();
    checks.op(rss.is_some(), || "VmHWM unreadable".to_string());
    workloads::check_admission(&late, sizes, cfg, pass.events.first(), checks);
    drop(late);
    let e2e = vec![
        metric("setup_s", report::median(&setup_secs), "s"),
        metric("alloc_s", report::median(&pass.unit_s), "s"),
        metric("revenue", revenue, "revenue"),
        metric("peak_rss_mb", rss.unwrap_or(0.0), "MiB"),
    ];
    let mut info = serve_info(&pass);
    info.extend(counter_info(&pass.stats));
    info.push(metric("budget_overrun_ads", over as f64, "count"));
    info.push(metric("budget_overrun_max_frac", worst, "share"));
    (
        Summary {
            counters: pass.counters,
            info,
        },
        e2e,
    )
}

fn traced_run(
    args: &Args,
    sizes: &Sizes,
    cfg: rm_core::ScalableConfig,
    threads: usize,
    inputs: &Inputs,
    mut tr: Tracer,
    checks: &mut Checks,
) -> (Summary, Vec<Metric>) {
    let mut off = Tracer::new(false);
    let base = workloads::run_pass(inputs, sizes, cfg, &mut off, checks);
    let pass = workloads::run_pass(inputs, sizes, cfg, &mut tr, checks);
    checks.op(base.counters == pass.counters, || {
        "traced and untraced runs disagree on the deterministic counters".to_string()
    });
    workloads::check_admission(inputs, sizes, cfg, pass.events.first(), checks);

    let inst = inputs.instance();
    let g = &inst.graph;
    let n = inst.num_nodes();
    let model = inst.model(0);
    let seed = args.seed;
    let smp = probes::sampler(
        g,
        &model,
        sizes.probe_sets,
        sizes.single_sets,
        threads,
        seed,
        &mut tr,
    );
    let kpt_s = probes::kpt(g, &model, &cfg, seed, &mut tr);
    let pool = probes::pool(inst, sizes.probe_sets, threads, seed, &mut tr);
    let cov = match &pool.weighted_view {
        Some((arena, w)) => probes::coverage(arena, n, Some(w), &mut tr),
        None => probes::coverage(&smp.arena, n, None, &mut tr),
    };
    let stats = &pass.stats;
    let ad_theta = stats
        .theta_per_ad
        .iter()
        .copied()
        .find(|&t| t > 0)
        .unwrap_or(sizes.probe_sets);
    let repair = probes::repair(g, ad_theta, threads, seed, &mut tr, checks);

    // Resident-event metrics (serve-churn); the batch workloads have none.
    let arrivals: Vec<&rm_core::ServeEvent> = pass
        .events
        .iter()
        .skip(1)
        .filter(|e| matches!(e.op, rm_core::ServeOp::Arrival { .. }))
        .collect();
    let deltas: Vec<&rm_core::ServeEvent> = pass
        .events
        .iter()
        .filter(|e| matches!(e.op, rm_core::ServeOp::GraphDelta { .. }))
        .collect();
    let mean = |xs: &[f64]| xs.iter().fold(0.0, |a, x| a + x) / xs.len().max(1) as f64;
    let rounds_per_arrival = mean(&arrivals.iter().map(|e| e.rounds as f64).collect::<Vec<_>>());
    let invalidated = mean(
        &deltas
            .iter()
            .map(|e| e.invalidated_sets as f64)
            .collect::<Vec<_>>(),
    );
    let resampled: u64 = deltas.iter().map(|e| e.resampled_sets).sum();
    // Base of the invalidated share: the θ retained at a delta, estimated
    // as the final mean θ per active ad times the ads active at the delta
    // (one fewer than the steady state: each delta follows a departure).
    let active_final = stats.theta_per_ad.iter().filter(|&&t| t > 0).count();
    let retained_theta = if active_final > 0 && !deltas.is_empty() {
        stats.total_theta() as f64 / active_final as f64 * (sizes.active - 1) as f64
    } else {
        0.0
    };
    let invalidated_frac = if deltas.is_empty() {
        0.0
    } else {
        invalidated / retained_theta
    };
    // Per resampled set: the engine's delta calls on serve-churn; the
    // repair probe's locate + resample + reindex on the batch workloads,
    // whose engines never apply deltas.
    let delta_us_per_set = if deltas.is_empty() {
        1e6 * (repair.locate_s + repair.resample_s + repair.reindex_s)
            / repair.resampled.max(1) as f64
    } else {
        1e6 * pass.delta_s.iter().sum::<f64>() / resampled.max(1) as f64
    };

    // Residual: engine wall not explained by the probes' rates at the
    // engine's own counts. An estimate.
    let kpt_calls = if pass.events.is_empty() {
        inst.num_ads()
    } else {
        sizes.active + arrivals.len()
    };
    let engine_wall = if pass.events.is_empty() {
        pass.unit_s.first().copied().unwrap_or(0.0)
    } else {
        pass.timed_s
    };
    let sets = stats.rr_sets_sampled as f64;
    let explained = sets / smp.sets_per_s
        + sets * smp.entries_per_set / cov.ingest_entries_per_s
        + stats.delta_resampled_sets as f64 * smp.single_call_us * 1e-6
        + deltas.len() as f64 * retained_theta * smp.entries_per_set / cov.ingest_entries_per_s
        + kpt_calls as f64 * kpt_s;
    let residual_s = engine_wall - explained;

    let overhead = (pass.timed_s - base.timed_s) / base.timed_s;
    let setup_sums = |name| report::median(&tr.child_sums("setup", name));
    let layer = vec![
        metric("graph.build_s", setup_sums("graph.build"), "s"),
        metric("graph.csr_bytes", g.memory_bytes() as f64, "bytes"),
        metric("instance.build_s", setup_sums("instance.build"), "s"),
        metric("probe.sets", sizes.probe_sets as f64, "count"),
        metric("probe.single_sets", sizes.single_sets as f64, "count"),
        metric("sampler.prepare_s", smp.prepare_s, "s"),
        metric("sampler.sets_per_s", smp.sets_per_s, "1/s"),
        metric("sampler.entries_per_set", smp.entries_per_set, "entries"),
        metric("sampler.single_call_us", smp.single_call_us, "us"),
        metric(
            "coverage.ingest_entries_per_s",
            cov.ingest_entries_per_s,
            "1/s",
        ),
        metric("coverage.compact_s", cov.compact_s, "s"),
        metric("coverage.bytes_per_set", cov.bytes_per_set, "bytes"),
        metric("kpt.estimate_s", kpt_s, "s"),
        metric("opim.bound_checks", stats.bound_checks as f64, "count"),
        metric("pool.sets_per_s", pool.sets_per_s, "1/s"),
        metric("pool.bytes", pool.bytes, "bytes"),
        metric("pool.reweighted_ads", pool.reweighted_ads, "count"),
        metric("engine.rr_sets_sampled", sets, "count"),
        metric("engine.rounds", stats.rounds as f64, "count"),
        metric(
            "engine.candidate_evaluations",
            stats.candidate_evaluations as f64,
            "count",
        ),
        metric(
            "engine.candidate_refreshes",
            stats.candidate_refreshes as f64,
            "count",
        ),
        metric(
            "engine.rr_memory_bytes",
            stats.rr_memory_bytes as f64,
            "bytes",
        ),
        metric(
            "engine.sample_capped",
            f64::from(u8::from(stats.sample_capped)),
            "bool",
        ),
        metric("engine.wall_s", engine_wall, "s"),
        metric("engine.residual_s", residual_s, "s"),
        metric("resident.rounds_per_arrival", rounds_per_arrival, "count"),
        metric("resident.delta_invalidated_sets", invalidated, "count"),
        metric("resident.retained_theta", retained_theta, "count"),
        metric("resident.delta_invalidated_frac", invalidated_frac, "share"),
        metric(
            "resident.delta_us_per_resampled_set",
            delta_us_per_set,
            "us",
        ),
        metric("repair.theta", repair.theta as f64, "count"),
        metric("repair.resampled_sets", repair.resampled as f64, "count"),
        metric("repair.locate_s", repair.locate_s, "s"),
        metric("repair.resample_s", repair.resample_s, "s"),
        metric("repair.resample_batched_s", repair.resample_batched_s, "s"),
        metric("repair.reindex_s", repair.reindex_s, "s"),
        metric("trace.untraced_s", base.timed_s, "s"),
        metric("trace.traced_s", pass.timed_s, "s"),
        metric("trace.overhead_frac", overhead, "share"),
        metric("trace.spans", tr.spans().len() as f64, "count"),
    ];

    let path = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/out")).join(format!(
        "spans-{}-seed{}.jsonl",
        args.workload.name(),
        args.seed
    ));
    let wrote = tr.write_jsonl(&path);
    checks.op(wrote.is_ok(), || {
        format!("writing {}: {:?}", path.display(), wrote.err())
    });

    let mut info = serve_info(&base);
    info.push(metric(
        "coverage.weighted",
        f64::from(u8::from(cov.weighted)),
        "bool",
    ));
    (
        Summary {
            counters: pass.counters,
            info,
        },
        layer,
    )
}
