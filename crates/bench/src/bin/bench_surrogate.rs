//! Surrogate-evaluator benchmark: SA search over the table-1
//! multiplier configs with the online learned surrogate off vs on,
//! same seed and step budget. Reports real synthesis-pipeline calls
//! and the final Pareto-front hypervolume for both runs and writes
//! `results/BENCH_surrogate.json`.
//!
//! The claim under test: screening proposals through the surrogate
//! cuts real synthesis calls by >= 3x at iso quality. The headline
//! metric is the *iso-quality call reduction*: the synthesis calls
//! the surrogate-off runs need before their pooled front reaches the
//! on runs' final hypervolume, divided by the on runs' calls. It
//! charges the surrogate for any front quality it gives up and
//! credits it when off never catches up. `--ci-gate` runs the 8-bit
//! config only and exits non-zero below a 2x iso reduction.

use rlmul_baselines::SaConfig;
use rlmul_bench::args::Args;
use rlmul_bench::report::results_dir;
use rlmul_bench::runner::{front_and_hv, reference_point};
use rlmul_core::{run_sa, EnvConfig, OptimizationOutcome};
use rlmul_ct::PpgKind;
use rlmul_obs::json::{JsonBuilder, JsonObject};
use rlmul_pareto::Point2;

struct RunResult {
    synthesis_calls: usize,
    screened: usize,
    forced: usize,
    hv_points: Vec<Point2>,
    best_cost: f64,
}

#[derive(Clone, Copy)]
struct Knobs {
    margin: f64,
    accept_floor: f64,
    slack: f64,
    verify_top: usize,
    hidden: usize,
    train_per_observe: usize,
    initial_temp: f64,
    cooling: f64,
}

fn run(bits: usize, steps: usize, seed: u64, surrogate: bool, k: Knobs) -> RunResult {
    let mut env_cfg = EnvConfig::new(bits, PpgKind::And);
    env_cfg.surrogate.enabled = surrogate;
    env_cfg.surrogate.sa_margin = k.margin;
    env_cfg.surrogate.sa_accept_floor = k.accept_floor;
    env_cfg.surrogate.guard_slack = k.slack;
    env_cfg.surrogate.verify_top = k.verify_top;
    env_cfg.surrogate.hidden = k.hidden;
    env_cfg.surrogate.train_per_observe = k.train_per_observe;
    let sa_cfg =
        SaConfig { steps, initial_temp: k.initial_temp, cooling: k.cooling, ..Default::default() };
    let out: OptimizationOutcome = run_sa(&env_cfg, &sa_cfg, seed).expect("sa run completes");
    RunResult {
        synthesis_calls: out.pipeline.synthesis_calls,
        screened: out.pipeline.surrogate_screened,
        forced: out.pipeline.surrogate_forced_evals,
        hv_points: out.pareto_points.iter().map(|&(a, d)| Point2::new(a, d)).collect(),
        best_cost: out.best_cost,
    }
}

/// Synthesis calls the surrogate-off run needs before its front
/// reaches `target` hypervolume. The off run's point stream is in
/// evaluation (push) order and the run is deterministic, so the
/// prefix of length `n` is exactly the front a shorter run would
/// have accumulated after the proportional share of its synthesis
/// calls. Prefix hypervolume is monotone in the prefix length, so a
/// binary search finds the threshold. `None` when even the full run
/// falls short of `target`.
fn calls_to_match(off: &RunResult, target: f64, reference: Point2) -> Option<f64> {
    let pts = &off.hv_points;
    let hv_at = |n: usize| front_and_hv(&pts[..n], reference).1;
    if pts.is_empty() || hv_at(pts.len()) < target {
        return None;
    }
    let (mut lo, mut hi) = (1usize, pts.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if hv_at(mid) >= target {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    Some(lo as f64 / pts.len() as f64 * off.synthesis_calls as f64)
}

/// Off-vs-on comparison at one width, aggregated over `repeats`
/// seeds: a single SA run's front is high-variance (the surrogate
/// run walks a genuinely different trajectory), so the modes are
/// compared as methods — pooled fronts and summed synthesis calls.
/// Returns `(call_ratio, hv_off, hv_on)`.
fn bench_width(
    bits: usize,
    steps: usize,
    on_steps: usize,
    seed: u64,
    repeats: usize,
    knobs: Knobs,
    json: &mut JsonObject,
) -> (f64, f64, f64) {
    let (mut calls_off, mut calls_on) = (0usize, 0usize);
    let (mut screened, mut forced) = (0usize, 0usize);
    let (mut best_off, mut best_on) = (f64::INFINITY, f64::INFINITY);
    let mut needed_off = 0.0f64;
    let mut all_matched = true;
    let (mut off_pool, mut on_pool) = (Vec::new(), Vec::new());
    for rep in 0..repeats {
        let s = seed + rep as u64;
        let off = run(bits, steps, s, false, knobs);
        let on = run(bits, on_steps, s, true, knobs);
        // Per-seed iso-quality cost: synthesis calls this seed's off
        // run burns before its front is as good as the same seed's
        // surrogate run final front. Same-seed runs share the walk
        // until the first screened proposal, so the comparison is a
        // paired one. When off never catches up, it is charged its
        // full budget (a lower bound on the true cost).
        let union: Vec<Point2> = off.hv_points.iter().chain(&on.hv_points).copied().collect();
        let reference = reference_point(&union);
        let (_, hv_on_s) = front_and_hv(&on.hv_points, reference);
        if std::env::var_os("BENCH_SURROGATE_PER_SEED").is_some() {
            let (_, hv_off_s) = front_and_hv(&off.hv_points, reference);
            println!(
                "  seed {s}: off {:4} calls hv {hv_off_s:9.1} | on {:4} calls hv {hv_on_s:9.1}",
                off.synthesis_calls, on.synthesis_calls,
            );
        }
        match calls_to_match(&off, hv_on_s, reference) {
            Some(calls) => needed_off += calls,
            None => {
                needed_off += off.synthesis_calls as f64;
                all_matched = false;
            }
        }
        calls_off += off.synthesis_calls;
        calls_on += on.synthesis_calls;
        screened += on.screened;
        forced += on.forced;
        best_off = best_off.min(off.best_cost);
        best_on = best_on.min(on.best_cost);
        off_pool.extend(off.hv_points);
        on_pool.extend(on.hv_points);
    }

    // Pooled hypervolumes against a shared reference over the union —
    // the two methods' all-seeds fronts measured in the same box.
    let union: Vec<Point2> = off_pool.iter().chain(&on_pool).copied().collect();
    let reference = reference_point(&union);
    let (_, hv_off) = front_and_hv(&off_pool, reference);
    let (_, hv_on) = front_and_hv(&on_pool, reference);

    let ratio = calls_off as f64 / calls_on.max(1) as f64;
    let iso_ratio = needed_off / calls_on.max(1) as f64;
    println!(
        "{bits:>2}-bit (off {steps} / on {on_steps} steps x {repeats} seeds): \
         off {calls_off:5} synth calls | on {calls_on:5} ({screened:5} screened, \
         {forced:4} forced) | {ratio:5.2}x fewer | iso {iso_ratio:5.2}x{} \
         | pooled hv {hv_off:9.1} -> {hv_on:9.1} | best cost {best_off:.4} -> {best_on:.4}",
        if all_matched { "" } else { "+" },
    );
    json.push(&format!("synth_calls_off_{bits}"), calls_off as f64);
    json.push(&format!("synth_calls_on_{bits}"), calls_on as f64);
    json.push(&format!("surrogate_screened_{bits}"), screened as f64);
    json.push(&format!("surrogate_forced_{bits}"), forced as f64);
    json.push(&format!("call_reduction_{bits}"), ratio);
    json.push(&format!("iso_call_reduction_{bits}"), iso_ratio);
    json.push(&format!("iso_matched_{bits}"), if all_matched { 1.0 } else { 0.0 });
    json.push(&format!("hypervolume_off_{bits}"), hv_off);
    json.push(&format!("hypervolume_on_{bits}"), hv_on);
    json.push(&format!("best_cost_off_{bits}"), best_off);
    json.push(&format!("best_cost_on_{bits}"), best_on);
    (iso_ratio, hv_off, hv_on)
}

fn main() {
    let args = Args::parse();
    let ci_gate = args.flag("ci-gate");
    let seed: u64 = args.get("seed", 11);
    let knobs = Knobs {
        margin: args.get("sa-margin", 0.002),
        accept_floor: args.get("accept-floor", 1e-3),
        slack: args.get("guard-slack", 0.1),
        verify_top: args.get("verify-top", 8),
        hidden: args.get("hidden", 48),
        train_per_observe: args.get("train-per-observe", 4),
        initial_temp: args.get("initial-temp", 50.0),
        cooling: args.get("cooling", 0.985),
    };
    let repeats: usize = args.get("repeats", if ci_gate { 5 } else { 24 });

    let widths: &[(usize, usize)] = if ci_gate {
        &[(8, args.get("steps", 160))]
    } else {
        &[(8, args.get("steps", 160)), (16, args.get("steps", 160))]
    };

    let mut json = JsonObject::default();
    let mut gate_ok = true;
    for &(bits, steps) in widths {
        let on_steps = args.get("on-steps", steps);
        let (iso_ratio, _, _) = bench_width(bits, steps, on_steps, seed, repeats, knobs, &mut json);
        // Gate on the iso-quality reduction: it already folds front
        // quality into the call count, so no separate hv check.
        if iso_ratio < 2.0 {
            gate_ok = false;
        }
    }

    std::fs::create_dir_all(results_dir()).expect("results dir");
    let path = results_dir().join("BENCH_surrogate.json");
    std::fs::write(&path, json.render_into(JsonBuilder::new()).build())
        .expect("write BENCH_surrogate.json");
    println!("wrote {}", path.display());

    if ci_gate {
        assert!(gate_ok, "surrogate gate failed: need >= 2x iso-quality synthesis-call reduction");
        println!("ci-gate OK: surrogate cuts iso-quality synthesis calls >= 2x");
    }
}
