//! Trace-layer overhead benchmark and CI gate.
//!
//! Per-job tracing sits on the driver hot path unconditionally (every
//! `TrainHooks::report_progress`, every cache lookup), so a disabled
//! `TraceCtx` must cost one `Option` branch and nothing else. This
//! bench measures, against an uninstrumented xorshift baseline:
//!
//! * the disabled emit path (the contract under guard);
//! * the enabled emit path while the bounded buffer accepts events;
//! * the enabled emit path after the buffer is full (drop-newest);
//! * one `render_event` JSON line (the `/events` stream unit cost).
//!
//! Everything lands in `results/BENCH_trace.json`. `--ci-gate`
//! asserts the disabled-emit/baseline ratio stays under 2x — the same
//! bound the obs `overhead` bench enforces for counters and spans —
//! and exits non-zero on a regression.
//!
//! ```sh
//! cargo run --release -p rlmul-bench --bin bench_trace
//! cargo run --release -p rlmul-bench --bin bench_trace -- --ci-gate
//! ```

use rlmul_bench::args::Args;
use rlmul_bench::report::results_dir;
use rlmul_obs::json::JsonBuilder;
use rlmul_obs::{TraceCtx, TraceEvent};
use rlmul_serve::render_event;
use std::hint::black_box;
use std::time::Instant;

/// A few-ns xorshift workload per iteration — matches the obs
/// overhead bench so the ratios are comparable across BENCH files.
#[inline]
fn workload(mut x: u64) -> u64 {
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

/// Median nanoseconds per iteration of `f` over `rounds` timed
/// batches of `iters` calls each.
fn median_ns_per_iter<F: FnMut() -> u64>(mut f: F, rounds: usize, iters: u64) -> f64 {
    let mut samples: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            let mut acc = 0u64;
            for _ in 0..iters {
                acc = acc.wrapping_add(f());
            }
            black_box(acc);
            start.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    samples.sort_by(f64::total_cmp);
    samples[samples.len() / 2]
}

fn main() -> std::process::ExitCode {
    let args = Args::parse();
    let ci_gate = args.flag("ci-gate");
    let rounds: usize = args.get("rounds", 15);
    let iters: u64 = args.get("iters", 400_000);

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let baseline = median_ns_per_iter(
        || {
            x = workload(black_box(x));
            x
        },
        rounds,
        iters,
    );

    let disabled = TraceCtx::disabled();
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    let disabled_emit = median_ns_per_iter(
        || {
            y = workload(black_box(y));
            disabled.emit("bench", "step");
            y
        },
        rounds,
        iters,
    );

    // Enabled, buffer accepting: allocate a capacity large enough
    // that the whole measurement records (worst honest cost).
    let recording = TraceCtx::with_capacity("tr-bench.0", (rounds as u64 * iters) as usize + 16);
    let mut z = 0x9e37_79b9_7f4a_7c15u64;
    let enabled_emit = median_ns_per_iter(
        || {
            z = workload(black_box(z));
            recording.emit("bench", "step");
            z
        },
        rounds,
        iters,
    );

    // Enabled, buffer full: the drop-newest path (count + return).
    let full = TraceCtx::with_capacity("tr-bench.1", 4);
    for _ in 0..8 {
        full.emit("fill", "fill");
    }
    let mut w = 0x9e37_79b9_7f4a_7c15u64;
    let dropping_emit = median_ns_per_iter(
        || {
            w = workload(black_box(w));
            full.emit("bench", "step");
            w
        },
        rounds,
        iters,
    );

    // One stream line render (amortized over fewer iters — it
    // allocates a String per call).
    let event = TraceEvent {
        seq: 42,
        micros: 1_234_567,
        kind: "cache_hit".into(),
        detail: "context=00ff00ff00ff00ff".into(),
    };
    let render = median_ns_per_iter(
        || {
            let line = render_event("tr-00000007.0", black_box(&event));
            line.len() as u64
        },
        rounds,
        iters / 100,
    );

    let ratio = disabled_emit / baseline.max(0.1);
    let body = JsonBuilder::new()
        .str("bench", "trace")
        .u64("rounds", rounds as u64)
        .u64("iters", iters)
        .f64("baseline_ns", baseline)
        .f64("disabled_emit_ns", disabled_emit)
        .f64("enabled_emit_ns", enabled_emit)
        .f64("dropping_emit_ns", dropping_emit)
        .f64("render_event_ns", render)
        .f64("disabled_ratio", ratio)
        .f64("gate_bound", 2.0)
        .build();
    println!("{body}");
    if let Err(e) = std::fs::create_dir_all(results_dir()) {
        eprintln!("bench_trace: cannot create results dir: {e}");
        return std::process::ExitCode::FAILURE;
    }
    let out = results_dir().join("BENCH_trace.json");
    if let Err(e) = std::fs::write(&out, &body) {
        eprintln!("bench_trace: cannot write {}: {e}", out.display());
        return std::process::ExitCode::FAILURE;
    }
    eprintln!("bench_trace: wrote {}", out.display());

    if ci_gate {
        if ratio >= 2.0 {
            eprintln!(
                "bench_trace: CI gate FAILED — disabled emit {disabled_emit:.2} ns/iter vs \
                 baseline {baseline:.2} ns/iter ({ratio:.2}x, bound 2.0x)"
            );
            return std::process::ExitCode::FAILURE;
        }
        eprintln!(
            "bench_trace: CI gate passed — disabled emit within {ratio:.2}x of baseline \
             (bound 2.0x)"
        );
    }
    std::process::ExitCode::SUCCESS
}
