//! `rlmul-perfbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload dqn16|sa16|serve-mix --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the end-to-end metrics of the workload,
//! measured through the library's own entry points; with `--trace 1`
//! it prints the per-layer metrics of a separate run that times the
//! benchmark's own calls into each layer. The last line of standard
//! output is one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. Any correctness failure (a refuted design, a search that
//! does not repeat exactly, a job whose result differs from its
//! in-process twin) makes the run exit non-zero.

mod http;
mod search;
mod serve_mix;
mod stats;
mod verdict;

use search::Search;

/// The end-to-end metrics, in the order `BENCHMARK.json` lists them.
const END_TO_END: [(&str, &str); 10] = [
    ("steps_per_s", "1/s"),
    ("time_to_hv_s", "s"),
    ("synth_calls_to_hv", "count"),
    ("hv_final", "x"),
    ("best_cost", "cost"),
    ("job_p50_ms", "ms"),
    ("job_tail_ms", "ms"),
    ("goodput_jobs_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// The per-layer metrics. A workload must measure each of them, except
/// those of the layers it does not exercise (see [`not_exercised`]),
/// which read 0.
const PER_LAYER: [(&str, &str); 36] = [
    ("nn.act_us", "us"),
    ("nn.train_fwd_us", "us"),
    ("nn.boot_fwd_us", "us"),
    ("nn.bwd_us", "us"),
    ("nn.optim_us", "us"),
    ("nn.mflop_per_step", "MFLOP"),
    ("nn.gflops", "GFLOP/s"),
    ("nn.share", "share"),
    ("ct.apply_us", "us"),
    ("ct.mask_us", "us"),
    ("ct.share", "share"),
    ("rtl.retarget_us", "us"),
    ("rtl.lint_us", "us"),
    ("rtl.delta_gates", "count"),
    ("rtl.share", "share"),
    ("synth.inc_us", "us"),
    ("synth.full_us", "us"),
    ("synth.sta_visits", "count"),
    ("synth.share", "share"),
    ("core.step_us", "us"),
    ("core.eval_miss_us", "us"),
    ("core.eval_hit_us", "us"),
    ("core.cache_hit_ratio", "share"),
    ("core.synth_calls_per_step", "count"),
    ("core.unattributed_share", "share"),
    ("serve.submit_p50_ms", "ms"),
    ("serve.submit_tail_ms", "ms"),
    ("serve.status_p50_ms", "ms"),
    ("serve.queue_wait_tail_ms", "ms"),
    ("serve.queue_depth_max", "count"),
    ("serve.cache_hit_ratio", "share"),
    ("serve.gen_late_tail_ms", "ms"),
    ("serve.jobs_per_s", "1/s"),
    ("lec.verify_ms", "ms"),
    ("trace.overhead_share", "share"),
    ("trace.overhead_ms", "ms"),
];

/// Name prefixes of the per-layer metrics `workload` does not measure.
/// The search workloads measure every layer but `serve` (and report
/// `nn` as measured zeros on `sa16`); `serve-mix` measures only
/// `serve`, `lec`, full synthesis and tracing.
fn not_exercised(workload: &str) -> &'static [&'static str] {
    match workload {
        "serve-mix" => {
            &["nn.", "ct.", "rtl.", "core.", "synth.inc_us", "synth.sta_visits", "synth.share"]
        }
        _ => &["serve."],
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1u64, 10.0f64, false);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = value.parse().map_err(|_| format!("bad --seed {value}"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| format!("bad --seconds {value}"))?;
                if !(seconds > 0.0 && seconds <= 120.0) {
                    return Err(format!("--seconds must be in (0, 120], got {value}"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required (dqn16, sa16, serve-mix)")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let report = match (args.workload.as_str(), args.trace) {
        ("dqn16", false) => search::run_untraced(Search::Dqn, args.seed, args.seconds),
        ("dqn16", true) => search::run_traced(Search::Dqn, args.seed),
        ("sa16", false) => search::run_untraced(Search::Sa, args.seed, args.seconds),
        ("sa16", true) => search::run_traced(Search::Sa, args.seed),
        ("serve-mix", trace) => serve_mix::run(args.seed, args.seconds, trace),
        (other, _) => {
            eprintln!("perfbench: unknown workload {other} (dqn16, sa16, serve-mix)");
            std::process::exit(2);
        }
    };
    let wanted: &[(&str, &str)] = if args.trace { &PER_LAYER } else { &END_TO_END };
    let mut errors = report.errors;
    let mut metrics = Vec::with_capacity(wanted.len());
    for &(name, unit) in wanted {
        let value = match report.sheet.get(name) {
            Some(v) => v,
            None if not_exercised(&args.workload).iter().any(|p| name.starts_with(p)) => 0.0,
            None => {
                errors.push(format!("{} did not measure {name}", args.workload));
                0.0
            }
        };
        metrics.push((name, value, unit));
    }
    for e in &errors {
        eprintln!("perfbench: {e}");
    }
    let correct = errors.is_empty();
    println!("{}", stats::result_line(correct, report.attempted.max(1), report.failed, &metrics));
    if !correct {
        std::process::exit(1);
    }
}
