//! Disabled-path overhead guard.
//!
//! Instrumentation stays in hot paths unconditionally, so the
//! disabled path must be effectively free. This bench both *reports*
//! (criterion timings for the disabled counter/histogram/span paths
//! against an uninstrumented baseline) and *guards*: a custom `main`
//! runs a median-of-rounds comparison and asserts the disabled hot
//! path stays within noise of no instrumentation, failing the bench
//! run (and the CI obs job) on a regression.

use criterion::{black_box, criterion_group, Criterion};
use rlmul_obs::{Registry, TraceCtx};
use std::time::{Duration, Instant};

/// A few-ns xorshift workload per iteration — realistic enough that a
/// one-branch disabled check should vanish next to it.
#[inline]
fn workload(mut x: u64) -> u64 {
    for _ in 0..8 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    x
}

fn bench_disabled_paths(c: &mut Criterion) {
    let gated = Registry::gated(); // present but off: one load + branch
    let disabled = Registry::disabled(); // never constructed: one Option branch
    let gated_counter = gated.counter("bench_total", "h");
    let gated_histo = gated.histogram("bench_seconds", "h");
    let disabled_counter = disabled.counter("bench_total", "h");

    let mut g = c.benchmark_group("obs_overhead");
    g.bench_function("baseline_no_instrumentation", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            x
        })
    });
    g.bench_function("disabled_counter_inc", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            disabled_counter.inc();
            x
        })
    });
    g.bench_function("gated_counter_inc", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            gated_counter.inc();
            x
        })
    });
    g.bench_function("gated_histogram_observe", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            gated_histo.observe(x as f64);
            x
        })
    });
    g.bench_function("gated_span_open_close", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            let _span = gated.span("bench");
            x
        })
    });
    g.bench_function("gated_span_into_open_close", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            let _span = gated.span_into("bench", &gated_histo);
            x
        })
    });
    let trace = TraceCtx::disabled();
    g.bench_function("disabled_trace_emit", |b| {
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        b.iter(|| {
            x = workload(black_box(x));
            trace.emit("bench", "detail");
            x
        })
    });
    g.finish();

    // Enabled reference points for the BENCH log: what live recording
    // costs the hot path when someone is actually watching.
    let enabled = Registry::new();
    let counter = enabled.counter("bench_total", "h");
    let histo = enabled.histogram("bench_seconds", "h");
    let mut g = c.benchmark_group("obs_enabled");
    g.bench_function("counter_inc", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = workload(black_box(x));
            counter.inc();
            x
        })
    });
    g.bench_function("histogram_observe", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = workload(black_box(x));
            histo.observe(x as f64);
            x
        })
    });
    g.bench_function("span_open_close", |b| {
        let mut x = 1u64;
        b.iter(|| {
            x = workload(black_box(x));
            let _span = enabled.span("bench");
            x
        })
    });
    g.finish();
}

criterion_group!(
    name = benches;
    config = Criterion::default()
        .sample_size(10)
        .measurement_time(Duration::from_millis(400))
        .warm_up_time(Duration::from_millis(100));
    targets = bench_disabled_paths
);

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

/// The CI guard: gated-off instrumentation (counter + histogram +
/// span + histogram-feeding span on every iteration) must stay within
/// noise of none. The bound is deliberately loose — a disabled op is
/// one relaxed load and a branch, so a real regression (taking a lock,
/// reading the clock) overshoots it by an order of magnitude, while
/// scheduler noise on a shared CI runner does not.
fn overhead_guard() {
    const ROUNDS: usize = 15;
    const ITERS: u64 = 400_000;
    let gated = Registry::gated();
    let counter = gated.counter("guard_total", "h");
    let histo = gated.histogram("guard_seconds", "h");

    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let baseline = median_ns_per_iter(
        || {
            x = workload(black_box(x));
            x
        },
        ROUNDS,
        ITERS,
    );
    let trace = TraceCtx::disabled();
    let mut y = 0x9e37_79b9_7f4a_7c15u64;
    let instrumented = median_ns_per_iter(
        || {
            y = workload(black_box(y));
            counter.inc();
            histo.observe(y as f64);
            trace.emit("guard", "step");
            let _span = gated.span("guard");
            let _phase = gated.span_into("guard_phase", &histo);
            y
        },
        ROUNDS,
        ITERS,
    );
    let ratio = instrumented / baseline.max(0.1);
    println!(
        "guard: baseline {baseline:.2} ns/iter, disabled-instrumented {instrumented:.2} ns/iter \
         (ratio {ratio:.3})"
    );
    assert!(
        ratio < 2.0,
        "disabled observability path regressed: {instrumented:.2} ns/iter vs baseline \
         {baseline:.2} ns/iter ({ratio:.2}x, bound 2.0x)"
    );
}

fn main() {
    benches();
    overhead_guard();
}
