//! Shared experiment machinery: optimize each method, sweep designs
//! across target delays, and extract the paper's table rows.

use rlmul_baselines::{gomil, SaConfig};
use rlmul_core::{
    run_sa_with, train_a2c_with, train_dqn_with, A2cConfig, CostWeights, DqnConfig, EnvConfig,
    EvalCache, MulEnv, RlMulError, TrainHooks,
};
use rlmul_ct::{CompressorTree, PpgKind};
use rlmul_pareto::{hypervolume_2d, pareto_front, Point2};
use rlmul_rtl::{pe_array, MultiplierNetlist, Netlist, PeArrayConfig, PeStyle};
use rlmul_synth::{SynthesisOptions, Synthesizer};
use rlmul_telemetry::TelemetrySink;

/// Which design family an experiment targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DesignSpec {
    /// Operand width.
    pub bits: usize,
    /// Partial-product scheme.
    pub kind: PpgKind,
}

/// Optimization-preference rows of Tables I–III.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Preference {
    /// Area-dominant weights.
    Area,
    /// Delay-dominant weights.
    Timing,
    /// Balanced weights.
    TradeOff,
}

impl Preference {
    /// All three preferences in table order.
    pub const ALL: [Preference; 3] = [Preference::Area, Preference::Timing, Preference::TradeOff];

    /// The corresponding reward weights.
    pub fn weights(self) -> CostWeights {
        match self {
            Preference::Area => CostWeights::AREA,
            Preference::Timing => CostWeights::TIMING,
            Preference::TradeOff => CostWeights::TRADE_OFF,
        }
    }

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Preference::Area => "Area",
            Preference::Timing => "Timing",
            Preference::TradeOff => "Trade-off",
        }
    }
}

/// The five methods of the paper's comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Legacy Wallace tree (paper baseline \[1\]).
    Wallace,
    /// GOMIL ILP (paper baseline \[16\]), solved exactly.
    Gomil,
    /// Simulated annealing.
    Sa,
    /// Native RL-MUL (DQN).
    RlMul,
    /// Enhanced RL-MUL-E (parallel A2C).
    RlMulE,
}

impl Method {
    /// All methods in table order.
    pub const ALL: [Method; 5] =
        [Method::Wallace, Method::Gomil, Method::Sa, Method::RlMul, Method::RlMulE];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Method::Wallace => "Wallace",
            Method::Gomil => "GOMIL",
            Method::Sa => "SA",
            Method::RlMul => "RL-MUL",
            Method::RlMulE => "RL-MUL-E",
        }
    }

    /// Whether the method searches (and therefore depends on the
    /// preference weights and budget).
    pub fn is_search(self) -> bool {
        matches!(self, Method::Sa | Method::RlMul | Method::RlMulE)
    }
}

/// Scaled-down search budgets (the paper trains for 10 000 s; here
/// every method gets the same number of environment steps).
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Environment steps granted to each search method.
    pub env_steps: usize,
    /// A2C worker count (its `env_steps` are split across workers).
    pub n_envs: usize,
    /// Base RNG seed.
    pub seed: u64,
}

impl Default for Budget {
    fn default() -> Self {
        Budget { env_steps: 60, n_envs: 4, seed: 1 }
    }
}

/// Optimizes one method under one preference, returning its best
/// structure.
///
/// # Errors
///
/// Propagates tree construction and environment errors.
pub fn optimize(
    method: Method,
    spec: DesignSpec,
    pref: Preference,
    budget: Budget,
) -> Result<CompressorTree, RlMulError> {
    optimize_with_cache(method, spec, pref, budget, &EvalCache::new())
}

/// [`optimize`] on top of a shared evaluation cache, so the search
/// methods of one experiment reuse each other's synthesized states
/// (SA, RL-MUL and RL-MUL-E all walk the same neighborhood of the
/// initial structure). Search methods print a `[pipeline]` line with
/// their evaluation-pipeline counters, which the BENCH logs capture.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_with_cache(
    method: Method,
    spec: DesignSpec,
    pref: Preference,
    budget: Budget,
    cache: &EvalCache,
) -> Result<CompressorTree, RlMulError> {
    optimize_instrumented(method, spec, pref, budget, cache, &TelemetrySink::disabled())
}

/// [`optimize_with_cache`] with a telemetry sink threaded into the
/// search method's training hooks, so harness runs emit the same
/// per-episode and per-span JSONL stream as `rlmul train --telemetry`.
/// The fixed methods (Wallace, GOMIL) construct a single tree and
/// emit nothing.
///
/// # Errors
///
/// As [`optimize`].
pub fn optimize_instrumented(
    method: Method,
    spec: DesignSpec,
    pref: Preference,
    budget: Budget,
    cache: &EvalCache,
    sink: &TelemetrySink,
) -> Result<CompressorTree, RlMulError> {
    let _span = rlmul_obs::global().span("bench.optimize");
    let mut env_cfg = EnvConfig::new(spec.bits, spec.kind);
    env_cfg.weights = pref.weights();
    let hooks = TrainHooks::with_telemetry(sink.clone());
    let report = |label: &str, out: &rlmul_core::OptimizationOutcome| {
        println!(
            "[pipeline] {label} {}b {}: {} synth runs, {}",
            spec.bits,
            spec.kind,
            out.synth_runs,
            out.pipeline.render()
        );
    };
    match method {
        Method::Wallace => Ok(CompressorTree::wallace(spec.bits, spec.kind)?),
        Method::Gomil => Ok(gomil(spec.bits, spec.kind)?),
        Method::Sa => {
            let sa = SaConfig { steps: budget.env_steps, ..Default::default() };
            let out = run_sa_with(&env_cfg, &sa, budget.seed, cache.clone(), &hooks, None)?;
            report(Method::Sa.label(), &out);
            Ok(out.best)
        }
        Method::RlMul => {
            let mut env = MulEnv::with_cache(env_cfg, cache.clone())?;
            let cfg = DqnConfig {
                steps: budget.env_steps,
                warmup: (budget.env_steps / 5).max(4),
                seed: budget.seed,
                ..Default::default()
            };
            let out = train_dqn_with(&mut env, &cfg, &hooks, None)?;
            report(Method::RlMul.label(), &out);
            Ok(out.best)
        }
        Method::RlMulE => {
            let cfg = A2cConfig {
                steps: (budget.env_steps / budget.n_envs).max(2),
                n_envs: budget.n_envs,
                seed: budget.seed,
                ..Default::default()
            };
            let out = train_a2c_with(&env_cfg, &cfg, cache.clone(), &hooks, None)?;
            report(Method::RlMulE.label(), &out);
            Ok(out.best)
        }
    }
}

/// One synthesized point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PpaPoint {
    /// Area, µm².
    pub area: f64,
    /// Delay, ns.
    pub delay: f64,
    /// Power, mW.
    pub power: f64,
}

/// Synthesizes `netlist` at minimum area plus a target-delay sweep
/// (the paper sweeps 0.05–1.2 ns; here the range adapts to the delay
/// model: `[0.55, 1.25] ×` the min-area delay).
///
/// # Errors
///
/// Propagates synthesis errors.
pub fn sweep_netlist(netlist: &Netlist, points: usize) -> Result<Vec<PpaPoint>, RlMulError> {
    let _span = rlmul_obs::global().span("bench.sweep");
    let synth = Synthesizer::nangate45();
    let anchor = synth.run(netlist, &SynthesisOptions::default())?;
    let mut out =
        vec![PpaPoint { area: anchor.area_um2, delay: anchor.delay_ns, power: anchor.power_mw }];
    let reports =
        synth.sweep(netlist, 0.55 * anchor.delay_ns, 1.25 * anchor.delay_ns, points.max(2))?;
    out.extend(reports.into_iter().map(|r| PpaPoint {
        area: r.area_um2,
        delay: r.delay_ns,
        power: r.power_mw,
    }));
    Ok(out)
}

/// Elaborates and sweeps a bare multiplier/MAC design.
///
/// # Errors
///
/// Propagates elaboration and synthesis errors.
pub fn sweep_tree(tree: &CompressorTree, points: usize) -> Result<Vec<PpaPoint>, RlMulError> {
    let netlist = MultiplierNetlist::elaborate(tree)?.into_netlist();
    sweep_netlist(&netlist, points)
}

/// Builds the systolic PE-array netlist wrapping `tree` (Tables II
/// and III).
///
/// # Errors
///
/// Propagates elaboration errors.
pub fn pe_netlist(tree: &CompressorTree, rows: usize, cols: usize) -> Result<Netlist, RlMulError> {
    let style =
        if tree.profile().kind().is_mac() { PeStyle::MergedMac } else { PeStyle::MultiplierAdder };
    Ok(pe_array(tree, PeArrayConfig { rows, cols, style })?)
}

/// Minimum-area point of a sweep.
pub fn pick_min_area(points: &[PpaPoint]) -> PpaPoint {
    *points
        .iter()
        .min_by(|a, b| a.area.partial_cmp(&b.area).expect("finite"))
        .expect("nonempty sweep")
}

/// Minimum-delay point of a sweep.
pub fn pick_min_delay(points: &[PpaPoint]) -> PpaPoint {
    *points
        .iter()
        .min_by(|a, b| a.delay.partial_cmp(&b.delay).expect("finite"))
        .expect("nonempty sweep")
}

/// Balanced point: minimizes normalized area + delay over the sweep.
pub fn pick_trade_off(points: &[PpaPoint]) -> PpaPoint {
    let amin = pick_min_area(points).area.max(1e-12);
    let dmin = pick_min_delay(points).delay.max(1e-12);
    *points
        .iter()
        .min_by(|a, b| {
            let ka = a.area / amin + a.delay / dmin;
            let kb = b.area / amin + b.delay / dmin;
            ka.partial_cmp(&kb).expect("finite")
        })
        .expect("nonempty sweep")
}

/// Picks the row for a preference.
pub fn pick(pref: Preference, points: &[PpaPoint]) -> PpaPoint {
    match pref {
        Preference::Area => pick_min_area(points),
        Preference::Timing => pick_min_delay(points),
        Preference::TradeOff => pick_trade_off(points),
    }
}

/// `(area, delay)` projection of a sweep.
pub fn to_points2(points: &[PpaPoint]) -> Vec<Point2> {
    points.iter().map(|p| Point2::new(p.area, p.delay)).collect()
}

/// Pareto front and hypervolume of a point set against a shared
/// reference (Figs. 9–11 and 14). The reference should dominate-be-
/// dominated-by every method's points; use [`reference_point`] on the
/// union.
pub fn front_and_hv(points: &[Point2], reference: Point2) -> (Vec<Point2>, f64) {
    let front = pareto_front(points);
    let hv = hypervolume_2d(&front, reference);
    (front, hv)
}

/// 5%-padded reference point over a union of point sets.
pub fn reference_point(union: &[Point2]) -> Point2 {
    let mx = union.iter().map(|p| p.x).fold(0.0f64, f64::max);
    let my = union.iter().map(|p| p.y).fold(0.0f64, f64::max);
    Point2::new(1.05 * mx, 1.05 * my)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picks_extract_the_right_corners() {
        let pts = vec![
            PpaPoint { area: 400.0, delay: 1.0, power: 0.2 },
            PpaPoint { area: 300.0, delay: 1.5, power: 0.15 },
            PpaPoint { area: 500.0, delay: 0.8, power: 0.3 },
        ];
        assert_eq!(pick(Preference::Area, &pts).area, 300.0);
        assert_eq!(pick(Preference::Timing, &pts).delay, 0.8);
        let t = pick(Preference::TradeOff, &pts);
        assert_eq!(t.area, 400.0); // 400/300 + 1.0/0.8 = 2.58, best
    }

    #[test]
    fn wallace_and_gomil_methods_build() {
        let spec = DesignSpec { bits: 4, kind: PpgKind::And };
        for m in [Method::Wallace, Method::Gomil] {
            let t = optimize(m, spec, Preference::Area, Budget::default()).unwrap();
            t.check_legal().unwrap();
        }
    }

    #[test]
    fn sweep_returns_min_area_anchor_plus_targets() {
        let tree = CompressorTree::dadda(4, PpgKind::And).unwrap();
        let pts = sweep_tree(&tree, 4).unwrap();
        assert_eq!(pts.len(), 5);
        let anchor = pts[0];
        assert!(pts.iter().all(|p| p.area >= anchor.area - 1e-9));
    }

    #[test]
    fn reference_point_pads_the_union() {
        let union = vec![Point2::new(100.0, 2.0), Point2::new(50.0, 4.0)];
        let r = reference_point(&union);
        assert!((r.x - 105.0).abs() < 1e-9 && (r.y - 4.2).abs() < 1e-9);
    }
}
