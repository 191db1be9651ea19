//! Table I and Fig. 9 — multiplier area/timing comparison across
//! Wallace, GOMIL, SA, RL-MUL and RL-MUL-E for 8/16-bit AND- and
//! MBE-based designs, plus the per-method Pareto fronts.
//!
//! Budgets are scaled down from the paper's 10 000 s of training;
//! raise `--steps` for tighter results. `--bits 8` / `--kind and`
//! restrict the configuration set. `--telemetry PATH` streams a
//! JSONL event log of every search method's episodes and span
//! timings (summarize with `rlmul report PATH`).

use rlmul_bench::args::Args;
use rlmul_bench::runner::{Budget, DesignSpec, Method, Preference};
use rlmul_bench::tables::run_comparison_instrumented;
use rlmul_ct::PpgKind;
use rlmul_telemetry::{TelemetrySink, TelemetryWriter};

fn main() {
    let args = Args::parse();
    let budget = Budget {
        env_steps: args.get("steps", 60),
        n_envs: args.get("envs", 4),
        seed: args.get("seed", 1),
    };
    let sweep_points: usize = args.get("points", 10);
    let only_bits: usize = args.get("bits", 0);
    let only_kind = args.get_str("kind", "");
    let telemetry_path = args.get_str("telemetry", "");
    let (writer, sink) = if telemetry_path.is_empty() {
        (None, TelemetrySink::disabled())
    } else {
        let (w, s) = TelemetryWriter::create(&telemetry_path).expect("telemetry file opens");
        // Phase timings reach the log as `span` events, which only a
        // recording registry produces.
        rlmul_obs::global().enable();
        (Some(w), s)
    };

    let mut configs: Vec<DesignSpec> = Vec::new();
    for bits in [8usize, 16] {
        for kind in [PpgKind::And, PpgKind::Mbe] {
            if only_bits != 0 && bits != only_bits {
                continue;
            }
            if !only_kind.is_empty() && kind.label() != only_kind {
                continue;
            }
            configs.push(DesignSpec { bits, kind });
        }
    }

    println!("Table I — multiplier area and timing comparison");
    println!("(budget: {} env steps per search method)\n", budget.env_steps);
    for spec in configs {
        let t0 = std::time::Instant::now();
        let data = run_comparison_instrumented(spec, budget, sweep_points, None, &sink)
            .expect("comparison completes");
        let title = format!("== {}-bit {} ==", spec.bits, spec.kind.label().to_uppercase());
        println!("{}", data.render(&title));
        println!("Fig. 14(a) hypervolumes:");
        println!("{}", data.render_hypervolumes());
        let stem = format!("fig09_pareto_mul_{}b_{}", spec.bits, spec.kind.label());
        if let Ok(p) = data.write_fronts(&stem) {
            println!("fronts → {}", p.display());
        }
        // Paper-style claims.
        if let (Some(w), Some(e)) = (
            data.cell(Method::Wallace, Preference::Area),
            data.cell(Method::RlMulE, Preference::Area),
        ) {
            println!(
                "area reduction vs Wallace (Area pref): {:.1}%",
                100.0 * (1.0 - e.area / w.area)
            );
        }
        if let (Some(w), Some(e)) = (
            data.cell(Method::Wallace, Preference::Timing),
            data.cell(Method::RlMulE, Preference::Timing),
        ) {
            println!(
                "delay reduction vs Wallace (Timing pref): {:.1}%",
                100.0 * (1.0 - e.delay / w.delay)
            );
        }
        println!("[{:.1?}]\n", t0.elapsed());
    }
    drop(sink);
    if let Some(w) = writer {
        let dropped = w.dropped();
        w.close().expect("telemetry file flushes");
        println!("telemetry → {telemetry_path} ({dropped} events dropped)");
    }
}
