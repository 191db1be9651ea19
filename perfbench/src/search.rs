//! The two time-to-quality workloads: `dqn16` (RL-MUL's DQN agent on
//! 16-bit AND) and `sa16` (simulated-annealing restarts at 16 bits,
//! alternating AND and MBE).
//!
//! Each workload is a fixed portfolio of seeded searches. The
//! untraced run goes through the library's own entry points
//! (`train_dqn_with`, `run_sa_with`) and cycles through the portfolio
//! until the time budget is spent, so every member runs at least once
//! and the first one twice (the determinism check). The traced run
//! repeats one DQN member, or one AND and one MBE restart, through the
//! benchmark's own step loop, timing each call into a layer's public
//! functions, and must reproduce the untraced run bit for bit.

use crate::stats::{
    fingerprint, mean, median, setup_figure, tail, Sheet, SETUP_GROUPS, SETUP_PER_GROUP,
};
use crate::verdict;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_baselines::{SaConfig, SaRun};
use rlmul_core::{
    run_sa_with, train_dqn_with, DqnConfig, EnvConfig, EvalCache, MulEnv, NnStats,
    OptimizationOutcome, QNetwork, TrainHooks,
};
use rlmul_ct::{Action, CompressorTree, PpgKind};
use rlmul_nn::{clip_grad_norm, masked_argmax, Layer, Optimizer, RmsProp, Tensor};
use rlmul_pareto::{hypervolume_2d, pareto_front, Point2};
use rlmul_rtl::{lint, lint_delta, IncrementalMultiplier, MultiplierNetlist};
use rlmul_synth::{IncrementalSynthesis, SynthesisOptions, SynthesisReport, Synthesizer};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Operand width of both search workloads.
const BITS: usize = 16;
/// Proposal steps per SA restart.
const SA_STEPS: usize = 1000;
/// A sub-run counts towards `goodput_jobs_per_s` when it finishes
/// within this multiple of the workload's median sub-run time.
const LATENCY_LIMIT_X: f64 = 2.0;

/// The fixed (area µm², delay ns) reference point and target
/// hypervolume of one seeded search.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Quality {
    pub(crate) reference: (f64, f64),
    pub(crate) target: f64,
}

/// References: 1.2x the worst area and delay of the Wallace seed's four
/// synthesized points (AND: 1467 µm² / 1.81 ns, MBE: 1636 µm² / 2.22 ns).
const AND_REF: (f64, f64) = (1760.0, 2.17);
const MBE_REF: (f64, f64) = (1963.0, 2.66);
/// GOMIL's hypervolume at those references (228.728 and 447.107),
/// rounded down.
const AND_GOMIL: f64 = 228.72;
const MBE_GOMIL: f64 = 447.1;

/// The DQN portfolio: `DqnConfig::default()` with these seeds on AND,
/// each with its target. Seed 1 reaches GOMIL's hypervolume; seeds 2, 3
/// and 4 end at 189.6, 228.6 and 223.8 and get the highest integer they
/// reach by mid-run.
const DQN_PORTFOLIO: [(u64, f64); 4] = [(1, AND_GOMIL), (2, 189.0), (3, 228.0), (4, 223.0)];

/// The SA portfolio: restart `i` uses seed `i + 1`, AND for even `i` and
/// MBE for odd `i`, each with a fresh evaluation cache. Every restart
/// reaches GOMIL's hypervolume except AND seeds 1 and 5 (218.5, 223.1),
/// which get the highest integer they reach by mid-run (215.4, 215.5).
const SA_TARGETS: [f64; 12] = [
    215.0, MBE_GOMIL, AND_GOMIL, MBE_GOMIL, 215.0, MBE_GOMIL, //
    AND_GOMIL, MBE_GOMIL, AND_GOMIL, MBE_GOMIL, AND_GOMIL, MBE_GOMIL,
];

/// Which search a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Search {
    /// RL-MUL's DQN agent.
    Dqn,
    /// Simulated-annealing restarts.
    Sa,
}

/// One portfolio member. Its target follows one rule: GOMIL's
/// hypervolume when the search reaches it within its step budget,
/// otherwise the highest integer it reaches by mid-run.
#[derive(Debug, Clone, Copy)]
struct Member {
    kind: PpgKind,
    seed: u64,
    quality: Quality,
}

fn portfolio(search: Search) -> Vec<Member> {
    match search {
        Search::Dqn => DQN_PORTFOLIO
            .iter()
            .map(|&(seed, target)| Member {
                kind: PpgKind::And,
                seed,
                quality: Quality { reference: AND_REF, target },
            })
            .collect(),
        Search::Sa => SA_TARGETS
            .iter()
            .enumerate()
            .map(|(i, &target)| {
                let (kind, reference) =
                    if i % 2 == 0 { (PpgKind::And, AND_REF) } else { (PpgKind::Mbe, MBE_REF) };
                Member { kind, seed: i as u64 + 1, quality: Quality { reference, target } }
            })
            .collect(),
    }
}

fn dqn_config(seed: u64) -> DqnConfig {
    DqnConfig { seed, ..Default::default() }
}

fn sa_config() -> SaConfig {
    SaConfig { steps: SA_STEPS, ..Default::default() }
}

fn env_config(kind: PpgKind) -> EnvConfig {
    EnvConfig::new(BITS, kind)
}

/// What one untraced sub-run produced.
struct RunRecord {
    member: usize,
    wall_s: f64,
    steps: usize,
    crossing_s: f64,
    calls_to_hv: usize,
    hv_ratio: f64,
    hv_mid: f64,
    best_cost: f64,
    /// Exact-repeat fingerprint over trajectory, archive, best cost
    /// and the work counters.
    fingerprint: u64,
    best: CompressorTree,
}

/// Where an archive first reaches the target: the index of the
/// evaluation (one chunk of per-target points) that crosses it, and
/// the final hypervolume.
pub(crate) fn crossing(points: &[(f64, f64)], chunk: usize, q: Quality) -> (Option<usize>, f64) {
    let reference = Point2::new(q.reference.0, q.reference.1);
    let mut front: Vec<Point2> = Vec::new();
    let mut first = None;
    let mut hv = 0.0;
    for (j, c) in points.chunks(chunk).enumerate() {
        front.extend(c.iter().map(|&(a, d)| Point2::new(a, d)));
        front = pareto_front(&front);
        hv = hypervolume_2d(&front, reference);
        if first.is_none() && hv >= q.target {
            first = Some(j);
        }
    }
    (first, hv)
}

/// One progress sample: seconds since the run started, completed
/// steps, finished cache entries.
type Sample = (f64, usize, usize);

/// Samples the run each time the driver publishes a completed step,
/// from a helper thread that only reads the progress counter between
/// samples.
struct Sampler {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<Vec<Sample>>,
}

impl Sampler {
    fn spawn(progress: Arc<AtomicUsize>, cache: EvalCache, t0: Instant, every: Duration) -> Self {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            let mut samples = Vec::new();
            let mut last = 0usize;
            while !flag.load(Ordering::Acquire) {
                let p = progress.load(Ordering::Acquire);
                if p != last {
                    last = p;
                    samples.push((t0.elapsed().as_secs_f64(), p, cache.len()));
                } else {
                    std::thread::sleep(every);
                }
            }
            samples
        });
        Sampler { stop, handle }
    }

    fn finish(self) -> Vec<Sample> {
        self.stop.store(true, Ordering::Release);
        self.handle.join().expect("progress sampler panicked")
    }
}

/// One untraced sub-run through the library entry point.
fn run_member(search: Search, m: Member, idx: usize) -> Result<RunRecord, String> {
    let cache = EvalCache::new();
    let progress = Arc::new(AtomicUsize::new(0));
    let hooks = TrainHooks { progress: Some(Arc::clone(&progress)), ..Default::default() };
    let t0 = Instant::now();
    // Poll at a fraction of a step (DQN ~20 ms, SA ~0.3 ms) while
    // leaving the other core mostly idle.
    let every = Duration::from_micros(if search == Search::Dqn { 1000 } else { 100 });
    let sampler = Sampler::spawn(progress, cache.clone(), t0, every);
    let outcome = match search {
        Search::Dqn => MulEnv::with_cache(env_config(m.kind), cache.clone())
            .and_then(|mut env| train_dqn_with(&mut env, &dqn_config(m.seed), &hooks, None)),
        Search::Sa => {
            run_sa_with(&env_config(m.kind), &sa_config(), m.seed, cache.clone(), &hooks, None)
        }
    };
    let wall_s = t0.elapsed().as_secs_f64();
    let mut samples = sampler.finish();
    samples.push((wall_s, usize::MAX, cache.len()));
    let out = outcome.map_err(|e| format!("{search:?} seed {}: {e}", m.seed))?;
    record(search, m, idx, &out, wall_s, &samples)
}

fn record(
    search: Search,
    m: Member,
    idx: usize,
    out: &OptimizationOutcome,
    wall_s: f64,
    samples: &[Sample],
) -> Result<RunRecord, String> {
    let q = m.quality;
    let (first, hv) = crossing(&out.pareto_points, 4, q);
    let j = first.ok_or_else(|| {
        format!("{search:?} seed {} never reached hypervolume {} (final {hv:.3})", m.seed, q.target)
    })?;
    // The cache holds the delay-anchor run plus one entry per fresh
    // evaluation, so evaluation `j` is entry `j + 2`.
    let calls = j + 2;
    let crossing_s = samples.iter().find(|s| s.2 >= calls).map_or(wall_s, |s| s.0).min(wall_s);
    // Hypervolume at mid-run: the evaluations finished by the step
    // sample nearest half the budget (diagnostic for choosing targets).
    let half = out.trajectory.len() / 2;
    let mid_evals = samples.iter().find(|s| s.1 >= half).map_or(0, |s| s.2.saturating_sub(1));
    let hv_mid =
        crossing(&out.pareto_points[..(4 * mid_evals).min(out.pareto_points.len())], 4, q).1;
    let p = &out.pipeline;
    let fp = fingerprint(
        out.trajectory
            .iter()
            .copied()
            .chain(out.pareto_points.iter().flat_map(|&(a, d)| [a, d]))
            .chain([
                out.best_cost,
                p.synthesis_calls as f64,
                p.nn.flops as f64,
                (p.sta.full_gate_visits + p.sta.incremental_gate_visits) as f64,
            ]),
    );
    Ok(RunRecord {
        member: idx,
        wall_s,
        steps: out.trajectory.len(),
        crossing_s,
        calls_to_hv: calls,
        hv_ratio: hv / q.target,
        hv_mid,
        best_cost: out.best_cost,
        fingerprint: fp,
        best: out.best.clone(),
    })
}

/// Environment (and, for DQN, network) construction plus the first
/// full evaluation, timed `SETUP_GROUPS * SETUP_PER_GROUP` times.
fn setup_times(search: Search, members: &[Member]) -> Result<Vec<f64>, String> {
    let mut times = Vec::with_capacity(SETUP_GROUPS * SETUP_PER_GROUP);
    for r in 0..SETUP_GROUPS * SETUP_PER_GROUP {
        let m = members[r % members.len()];
        let t0 = Instant::now();
        let env =
            MulEnv::with_cache(env_config(m.kind), EvalCache::new()).map_err(|e| e.to_string())?;
        if search == Search::Dqn {
            let cfg = dqn_config(m.seed);
            let net =
                QNetwork::new(&cfg.trunk, env.action_space(), &mut StdRng::seed_from_u64(m.seed));
            std::hint::black_box(&net);
        }
        times.push(t0.elapsed().as_secs_f64());
        std::hint::black_box(&env);
    }
    Ok(times)
}

/// Outcome of a workload run: metrics plus the operation counts.
pub struct Report {
    /// Every metric the run measured.
    pub sheet: Sheet,
    /// Operations attempted (sub-runs and verdicts).
    pub attempted: usize,
    /// Operations that failed.
    pub failed: usize,
    /// Problems that make the run incorrect.
    pub errors: Vec<String>,
}

/// The untraced run: end-to-end metrics.
pub fn run_untraced(search: Search, seed: u64, seconds: f64) -> Report {
    let members = portfolio(search);
    let mut errors = Vec::new();
    let mut failed = 0;
    let setups = setup_times(search, &members).unwrap_or_else(|e| {
        errors.push(e);
        vec![0.0]
    });
    let setup_s = setup_figure(&setups);
    let rotation = (seed % members.len() as u64) as usize;
    let started = Instant::now();
    let mut runs: Vec<RunRecord> = Vec::new();
    let mut attempted = 0;
    let mut i = 0;
    // Every member once, the first one again (determinism), then keep
    // cycling until the time budget is spent.
    while i <= members.len() || started.elapsed().as_secs_f64() < seconds {
        let idx = (rotation + i) % members.len();
        attempted += 1;
        match run_member(search, members[idx], idx) {
            Ok(r) => runs.push(r),
            Err(e) => {
                failed += 1;
                errors.push(e);
            }
        }
        i += 1;
        if !errors.is_empty() {
            break;
        }
    }
    let mut sheet = Sheet::default();
    summarize(search, &members, &runs, setup_s, &mut errors, &mut sheet);

    // An equivalence verdict for every reported design: the best
    // design of each member.
    for m in 0..members.len() {
        if let Some(r) = runs.iter().find(|r| r.member == m) {
            attempted += 1;
            match verdict::verify(&r.best, seed.wrapping_add(m as u64)) {
                Ok(v) if v.equivalent => {}
                Ok(v) => {
                    failed += 1;
                    errors.push(format!("member {m}: best design refuted: {:?}", v.counterexample));
                }
                Err(e) => {
                    failed += 1;
                    errors.push(format!("member {m}: verdict failed: {e}"));
                }
            }
        }
    }
    sheet.put("peak_rss_mb", crate::stats::peak_rss_mb());
    Report { sheet, attempted, failed, errors }
}

/// Folds the sub-runs into the end-to-end metrics and checks that
/// repeats of one member agree exactly.
fn summarize(
    search: Search,
    members: &[Member],
    runs: &[RunRecord],
    setup_s: f64,
    errors: &mut Vec<String>,
    sheet: &mut Sheet,
) {
    let mut per_member: Vec<Vec<&RunRecord>> = vec![Vec::new(); members.len()];
    for r in runs {
        per_member[r.member].push(r);
    }
    for (m, rs) in per_member.iter().enumerate() {
        if rs.windows(2).any(|w| w[0].fingerprint != w[1].fingerprint) {
            errors.push(format!("member {m} (seed {}) did not repeat exactly", members[m].seed));
        }
    }
    let firsts: Vec<&RunRecord> = per_member.iter().filter_map(|rs| rs.first().copied()).collect();
    if firsts.len() < members.len() {
        errors.push("not every portfolio member completed".into());
    }
    // Per member: the median over its repeats, so the order the seed
    // rotates the members into cannot matter.
    let member_median = |f: &dyn Fn(&RunRecord) -> f64| -> Vec<f64> {
        per_member
            .iter()
            .filter(|rs| !rs.is_empty())
            .map(|rs| median(&rs.iter().map(|r| f(r)).collect::<Vec<_>>()))
            .collect()
    };
    let walls = member_median(&|r| r.wall_s);
    let cross = member_median(&|r| r.crossing_s);
    let steps: usize = firsts.iter().map(|r| r.steps).sum();
    let search_s: f64 = walls.iter().map(|w| (w - setup_s).max(1e-9)).sum();
    sheet.put("steps_per_s", steps as f64 / search_s);
    sheet.put("time_to_hv_s", mean(&cross));
    sheet.put("synth_calls_to_hv", firsts.iter().map(|r| r.calls_to_hv as f64).sum());
    sheet.put("hv_final", mean(&firsts.iter().map(|r| r.hv_ratio).collect::<Vec<_>>()));
    sheet.put("best_cost", mean(&firsts.iter().map(|r| r.best_cost).collect::<Vec<_>>()));
    // This workload's unit of delivered work ("job"): one DQN run, or
    // one AND plus one MBE restart. Goodput is one pass over the
    // portfolio, counting the jobs that finish within the limit.
    let per_job = if search == Search::Sa { 2 } else { 1 };
    let jobs: Vec<f64> = walls.chunks(per_job).map(|c| c.iter().sum::<f64>() * 1e3).collect();
    let t = tail(&jobs);
    let limit = LATENCY_LIMIT_X * median(&jobs);
    let good = jobs.iter().filter(|&&w| w <= limit).count();
    sheet.put("job_p50_ms", median(&jobs));
    sheet.put("job_tail_ms", t.value);
    sheet.put("goodput_jobs_per_s", good as f64 * 1e3 / jobs.iter().sum::<f64>().max(1e-9));
    sheet.put("setup_s", setup_s);
    println!(
        "# {} sub-runs over {} members; job tail = p{} ({} beyond); latency limit {:.1} ms",
        runs.len(),
        members.len(),
        t.pct,
        t.beyond,
        limit
    );
    for (m, rs) in per_member.iter().enumerate() {
        if let Some(r) = rs.first() {
            println!(
                "# member {m} ({} seed {}): {} runs, wall {:.3}s, crossing {:.4}s at call {}, \
                 hv at mid-run {:.3}, final hv {:.3} (target {}), best {:.4}",
                members[m].kind,
                members[m].seed,
                rs.len(),
                r.wall_s,
                r.crossing_s,
                r.calls_to_hv,
                r.hv_mid,
                r.hv_ratio * members[m].quality.target,
                members[m].quality.target,
                r.best_cost
            );
        }
    }
}

/// Wall-time accumulator for one timed layer call site. An `off`
/// timer only makes the call.
#[derive(Debug, Default, Clone, Copy)]
struct Timer {
    calls: usize,
    secs: f64,
    off: bool,
}

impl Timer {
    fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        if self.off {
            return f();
        }
        let t0 = Instant::now();
        let out = f();
        self.add(t0.elapsed().as_secs_f64());
        out
    }

    fn add(&mut self, secs: f64) {
        self.secs += secs;
        self.calls += 1;
    }

    fn per_call_us(&self) -> f64 {
        if self.calls == 0 {
            0.0
        } else {
            self.secs * 1e6 / self.calls as f64
        }
    }
}

/// Timers of the layer calls the traced loops make.
#[derive(Debug, Default)]
struct Layers {
    /// Timers only make their calls: the reference loop for the
    /// tracing overhead.
    off: bool,
    act: Timer,
    train_fwd: Timer,
    boot_fwd: Timer,
    bwd: Timer,
    optim: Timer,
    mask: Timer,
    apply: Timer,
    encode: Timer,
    step: Timer,
    eval_hit: Timer,
    eval_miss: Timer,
    retarget: Timer,
    lint: Timer,
    inc: Timer,
    full: Timer,
    delta_gates: usize,
    sta_visits: usize,
    nn_flops: u64,
}

impl Layers {
    /// The same loop with every timer off.
    fn untimed() -> Self {
        let t = Timer { off: true, ..Timer::default() };
        Layers {
            off: true,
            act: t,
            train_fwd: t,
            boot_fwd: t,
            bwd: t,
            optim: t,
            mask: t,
            apply: t,
            encode: t,
            step: t,
            eval_hit: t,
            eval_miss: t,
            ..Layers::default()
        }
    }

    fn nn_secs(&self) -> f64 {
        self.act.secs + self.train_fwd.secs + self.boot_fwd.secs + self.bwd.secs + self.optim.secs
    }

    /// Runs one evaluation through `env` and files its time as a cache
    /// hit or a miss: a fresh evaluation is the only thing that grows
    /// the archive. Returns the result and whether it was a miss.
    fn eval<T>(&mut self, env: &mut MulEnv, f: impl FnOnce(&mut MulEnv) -> T) -> (T, bool) {
        let before = env.pareto_points().len();
        let t0 = (!self.off).then(Instant::now);
        let out = f(env);
        let miss = env.pareto_points().len() > before;
        if let Some(t0) = t0 {
            let bucket = if miss { &mut self.eval_miss } else { &mut self.eval_hit };
            bucket.add(t0.elapsed().as_secs_f64());
        }
        (out, miss)
    }
}

/// A replay-buffer transition (mirrors the agent's private type).
struct Transition {
    state: Vec<f32>,
    action: usize,
    reward: f32,
    next_state: Vec<f32>,
    next_mask: Vec<bool>,
}

/// The states a traced loop sent to synthesis, in order, with the cost
/// the environment reported for each.
type Misses = Vec<(CompressorTree, f64)>;

/// What a traced loop hands back.
struct Traced {
    trajectory: Vec<f64>,
    best_cost: f64,
    env: MulEnv,
    misses: Misses,
    /// Wall time of the step loop, without environment and network
    /// construction.
    loop_s: f64,
}

impl Traced {
    /// Whether the loop reproduced the library run bit for bit.
    fn matches(&self, out: &OptimizationOutcome) -> bool {
        self.trajectory.len() == out.trajectory.len()
            && self.trajectory.iter().zip(&out.trajectory).all(|(a, b)| a.to_bits() == b.to_bits())
            && self.env.pareto_points() == out.pareto_points.as_slice()
            && self.best_cost.to_bits() == out.best_cost.to_bits()
    }
}

/// `train_dqn_with`'s step loop written against the public API, with
/// every layer call timed.
fn traced_dqn(m: Member, layers: &mut Layers) -> Result<Traced, String> {
    let config = dqn_config(m.seed);
    let mut env =
        MulEnv::with_cache(env_config(m.kind), EvalCache::new()).map_err(|e| e.to_string())?;
    let nn_before = NnStats::snapshot();
    let actions = env.action_space();
    let shape = env.tensor_shape();
    let mut opt = RmsProp::new(config.lr);
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut net = QNetwork::new(&config.trunk, actions, &mut rng);
    let mut state = env.encode_current().map_err(|e| e.to_string())?.data().to_vec();
    let mut buffer: VecDeque<Transition> = VecDeque::with_capacity(config.replay_capacity);
    let mut trajectory = Vec::with_capacity(config.steps);
    let mut misses = Misses::new();
    let t_loop = Instant::now();
    for t in 0..config.steps {
        let mask = layers.mask.time(|| env.action_mask());
        let epsilon = if config.steps <= 1 {
            config.epsilon_end
        } else {
            let frac = t as f32 / (config.steps - 1) as f32;
            config.epsilon_start + (config.epsilon_end - config.epsilon_start) * frac
        };
        let action = if t < config.warmup || rng.gen::<f32>() < epsilon {
            random_legal(&mask, &mut rng)
        } else {
            let x = Tensor::from_vec(&shape, state.clone());
            let q = layers.act.time(|| net.forward(&x, false));
            masked_argmax(q.data(), &mask).ok_or("no legal action")?
        };
        let ncols = env.current().matrix().num_columns();
        let a = Action::from_flat_index(action, ncols).map_err(|e| e.to_string())?;
        let current = env.current().clone();
        std::hint::black_box(
            layers.apply.time(|| current.apply_action(a)).map_err(|e| e.to_string())?,
        );
        let (outcome, miss) = layers.eval(&mut env, |env| env.step(action));
        let outcome = outcome.map_err(|e| e.to_string())?;
        if miss {
            misses.push((env.current().clone(), outcome.cost));
        }
        trajectory.push(outcome.cost);
        let next_state =
            layers.encode.time(|| env.encode_current()).map_err(|e| e.to_string())?.data().to_vec();
        let next_mask = layers.mask.time(|| env.action_mask());
        if buffer.len() == config.replay_capacity {
            buffer.pop_front();
        }
        buffer.push_back(Transition {
            state: std::mem::replace(&mut state, next_state.clone()),
            action,
            reward: outcome.reward as f32,
            next_state,
            next_mask,
        });
        if buffer.len() >= config.batch_size {
            let batch: Vec<&Transition> =
                (0..config.batch_size).map(|_| &buffer[rng.gen_range(0..buffer.len())]).collect();
            update(&mut net, &mut opt, &batch, &config, &shape, actions, layers);
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    layers.nn_flops += NnStats::snapshot().since(nn_before).flops;
    let best_cost = env.best().1;
    Ok(Traced { trajectory, best_cost, env, misses, loop_s })
}

fn random_legal<R: Rng + ?Sized>(mask: &[bool], rng: &mut R) -> usize {
    let legal: Vec<usize> = mask.iter().enumerate().filter(|(_, &ok)| ok).map(|(i, _)| i).collect();
    legal[rng.gen_range(0..legal.len())]
}

/// One TD update, phase by phase as the agent performs it.
fn update(
    net: &mut QNetwork,
    opt: &mut RmsProp,
    batch: &[&Transition],
    config: &DqnConfig,
    shape: &[usize; 4],
    actions: usize,
    layers: &mut Layers,
) {
    let b = batch.len();
    let bshape = [b, shape[1], shape[2], shape[3]];
    let stack = |pick: &dyn Fn(&Transition) -> &[f32]| -> Tensor {
        let mut data = Vec::with_capacity(b * shape[1] * shape[2] * shape[3]);
        for t in batch {
            data.extend_from_slice(pick(t));
        }
        Tensor::from_vec(&bshape, data)
    };
    layers.optim.time(|| opt.zero_grad(net));
    let cur = stack(&|t| &t.state);
    let q = layers.train_fwd.time(|| net.forward(&cur, true));
    let next = stack(&|t| &t.next_state);
    let q_next = layers.boot_fwd.time(|| net.forward(&next, false));
    let targets: Vec<f32> = batch
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let row = &q_next.data()[i * actions..(i + 1) * actions];
            let best = masked_argmax(row, &t.next_mask).map(|a| row[a]).unwrap_or(0.0);
            t.reward + config.gamma * best
        })
        .collect();
    let mut grad = Tensor::zeros(q.shape());
    for (i, t) in batch.iter().enumerate() {
        let pred = q.data()[i * actions + t.action];
        grad.data_mut()[i * actions + t.action] = 2.0 * (pred - targets[i]) / b as f32;
    }
    layers.bwd.time(|| net.backward(&grad));
    layers.optim.time(|| {
        clip_grad_norm(net, config.grad_clip);
        opt.step(net);
    });
}

/// `run_sa_with`'s loop on the public `SaRun`, timing each proposal,
/// each evaluation, and the tree calls the annealer makes per step.
fn traced_sa(m: Member, layers: &mut Layers) -> Result<Traced, String> {
    let mut env =
        MulEnv::with_cache(env_config(m.kind), EvalCache::new()).map_err(|e| e.to_string())?;
    let initial = env.current().clone();
    let initial_cost = env.evaluate(&initial).map_err(|e| e.to_string())?.cost;
    let mut rng = StdRng::seed_from_u64(m.seed);
    let mut run = SaRun::new(initial, initial_cost, sa_config());
    let mut misses = Misses::new();
    let mut error = None;
    let mut step = layers.step;
    let t_loop = Instant::now();
    while !run.is_done() {
        step.time(|| {
            run.step(&mut rng, |tree| {
                // The annealer asks the tree for its legal actions and
                // applies one per step; time the same two calls on the
                // proposal.
                let acts = layers.mask.time(|| tree.valid_actions());
                if let Some(&a) = acts.first() {
                    std::hint::black_box(layers.apply.time(|| tree.apply_action(a)).ok());
                }
                match layers.eval(&mut env, |env| env.evaluate(tree)) {
                    (Ok(e), miss) => {
                        if miss {
                            misses.push((tree.clone(), e.cost));
                        }
                        e.cost
                    }
                    (Err(e), _) => {
                        error.get_or_insert(e.to_string());
                        f64::INFINITY
                    }
                }
            })
        });
        if let Some(e) = error.take() {
            return Err(e);
        }
    }
    let loop_s = t_loop.elapsed().as_secs_f64();
    layers.step = step;
    let outcome = run.into_outcome();
    Ok(Traced { trajectory: outcome.trajectory, best_cost: outcome.best_cost, env, misses, loop_s })
}

/// Re-runs the evaluation pipeline on the synthesized states of a
/// traced run, in the order the environment synthesized them, timing
/// elaborate (retarget), lint and synthesis separately. Each cost must
/// equal the one the environment reported. Returns the replay's wall
/// time.
fn replay_pipeline(
    env: &MulEnv,
    initial: &CompressorTree,
    misses: &Misses,
    layers: &mut Layers,
) -> Result<f64, String> {
    let cfg = env.config();
    let options: Vec<SynthesisOptions> = env
        .delay_targets()
        .iter()
        .map(|&t| SynthesisOptions { target_delay_ns: Some(t), max_upsizes: cfg.max_upsizes })
        .collect();
    let mut mul = IncrementalMultiplier::new(initial).map_err(|e| e.to_string())?;
    let mut syn = IncrementalSynthesis::nangate45();
    let full = Synthesizer::nangate45();
    let mut seq: Vec<(CompressorTree, Option<f64>)> = vec![(initial.clone(), None)];
    seq.extend(misses.iter().map(|(t, c)| (t.clone(), Some(*c))));
    let t0 = Instant::now();
    for (tree, expected) in &seq {
        let reports: Vec<SynthesisReport> = if mul.tree().profile() == tree.profile() {
            let size = layers
                .retarget
                .time(|| mul.retarget(tree).map(|d| d.size()))
                .map_err(|e| e.to_string())?;
            layers.delta_gates += size;
            let report = layers.lint.time(|| lint_delta(mul.arena(), mul.last_delta()));
            if report.errors() > 0 {
                return Err(format!("delta lint failed:\n{}", report.render()));
            }
            layers.inc.time(|| syn.run_many(mul.netlist(), &options)).map_err(|e| e.to_string())?
        } else {
            let netlist = layers
                .retarget
                .time(|| MultiplierNetlist::elaborate(tree))
                .map_err(|e| e.to_string())?
                .into_netlist();
            let report = layers.lint.time(|| lint(&netlist));
            if report.errors() > 0 {
                return Err(format!("lint failed:\n{}", report.render()));
            }
            layers.full.time(|| full.run_many(&netlist, &options)).map_err(|e| e.to_string())?
        };
        layers.sta_visits += reports
            .iter()
            .map(|r| r.sta.full_gate_visits + r.sta.incremental_gate_visits)
            .sum::<usize>();
        let cost = cfg.weights.cost(&reports);
        if let Some(c) = expected {
            if c.to_bits() != cost.to_bits() {
                return Err(format!("replayed cost {cost} differs from the environment's {c}"));
            }
        }
    }
    Ok(t0.elapsed().as_secs_f64())
}

/// Median wall time of a full (non-incremental) synthesis of `tree`
/// under the environment's delay targets.
pub fn full_synth_us(tree: &CompressorTree, targets: &[f64], reps: usize) -> Result<f64, String> {
    let netlist = MultiplierNetlist::elaborate(tree).map_err(|e| e.to_string())?.into_netlist();
    let options: Vec<SynthesisOptions> = targets
        .iter()
        .map(|&t| SynthesisOptions { target_delay_ns: Some(t), ..Default::default() })
        .collect();
    let synth = Synthesizer::nangate45();
    let mut times = Vec::with_capacity(reps);
    for _ in 0..reps {
        let t0 = Instant::now();
        std::hint::black_box(synth.run_many(&netlist, &options).map_err(|e| e.to_string())?);
        times.push(t0.elapsed().as_secs_f64() * 1e6);
    }
    Ok(median(&times))
}

/// One untraced run of `m` through the library entry point.
fn library_run(search: Search, m: Member) -> Result<OptimizationOutcome, String> {
    match search {
        Search::Dqn => {
            MulEnv::with_cache(env_config(m.kind), EvalCache::new()).and_then(|mut env| {
                train_dqn_with(&mut env, &dqn_config(m.seed), &TrainHooks::default(), None)
            })
        }
        Search::Sa => run_sa_with(
            &env_config(m.kind),
            &sa_config(),
            m.seed,
            EvalCache::new(),
            &TrainHooks::default(),
            None,
        ),
    }
    .map_err(|e| e.to_string())
}

/// The benchmark's step loop for `search`.
fn step_loop(search: Search, m: Member, layers: &mut Layers) -> Result<Traced, String> {
    match search {
        Search::Dqn => traced_dqn(m, layers),
        Search::Sa => traced_sa(m, layers),
    }
}

/// Wall times and per-design samples of the traced run, over its
/// members.
#[derive(Debug, Default)]
struct Tally {
    /// The timed loop.
    timed_s: f64,
    /// The same loop with timers off: the mean of one run before and
    /// one after the timed loop, which brackets drift in machine speed.
    untimed_s: f64,
    /// The pipeline replay.
    replay_s: f64,
    /// Full synthesis of the Wallace seed, µs per call.
    full_us: Vec<f64>,
    /// Equivalence verdicts on the best designs, ms each.
    lec_ms: Vec<f64>,
}

/// One member of the traced run: the library run (the reference), the
/// loop untimed, timed and untimed again (each must reproduce the
/// library run bit for bit), the pipeline replay and the verdict on the
/// best design. Returns the library outcome.
fn trace_member(
    search: Search,
    m: Member,
    seed: u64,
    layers: &mut Layers,
    tally: &mut Tally,
) -> Result<OptimizationOutcome, String> {
    let out = library_run(search, m).map_err(|e| format!("library run failed: {e}"))?;
    let untimed = || -> Result<f64, String> {
        let run = step_loop(search, m, &mut Layers::untimed())?;
        if run.matches(&out) {
            Ok(run.loop_s)
        } else {
            Err("untimed loop diverged from the library run".into())
        }
    };
    let before = untimed()?;
    let timed = step_loop(search, m, layers)?;
    let after = untimed()?;
    if !timed.matches(&out) {
        return Err("traced loop diverged from the library run".into());
    }
    let init = CompressorTree::wallace(BITS, m.kind).map_err(|e| e.to_string())?;
    tally.full_us.push(full_synth_us(&init, timed.env.delay_targets(), 5)?);
    tally.replay_s += replay_pipeline(&timed.env, &init, &timed.misses, layers)?;
    tally.timed_s += timed.loop_s;
    tally.untimed_s += 0.5 * (before + after);
    let v = verdict::verify(&out.best, seed)?;
    if !v.equivalent {
        return Err(format!("best design refuted: {:?}", v.counterexample));
    }
    tally.lec_ms.push(v.millis);
    Ok(out)
}

/// The traced run: per-layer metrics for one or two portfolio members.
pub fn run_traced(search: Search, seed: u64) -> Report {
    let members = portfolio(search);
    let picked: Vec<usize> = match search {
        Search::Dqn => vec![(seed % members.len() as u64) as usize],
        // One AND and one MBE restart.
        Search::Sa => {
            let i = (seed % members.len() as u64) as usize;
            vec![i, (i + 1) % members.len()]
        }
    };
    let mut errors = Vec::new();
    let mut failed = 0;
    let mut layers = Layers::default();
    let mut tally = Tally::default();
    let (mut steps, mut synth_calls, mut hits) = (0usize, 0usize, 0usize);
    for &idx in &picked {
        match trace_member(search, members[idx], seed, &mut layers, &mut tally) {
            Ok(out) => {
                steps += out.trajectory.len();
                synth_calls += out.pipeline.synthesis_calls;
                hits += out.pipeline.cache_hits;
            }
            Err(e) => {
                failed += 1;
                errors.push(format!("member {idx}: {e}"));
            }
        }
    }
    let mut sheet = Sheet::default();
    layer_sheet(search, &layers, &tally, steps, synth_calls, hits, &mut sheet);
    sheet.put("synth.full_us", median(&tally.full_us));
    sheet.put("lec.verify_ms", median(&tally.lec_ms));
    Report { sheet, attempted: picked.len(), failed, errors }
}

/// Per-layer metrics from the traced timers. Shares are of the timed
/// loop's own wall time, so the timed calls, which are disjoint, cover
/// at most all of it. The loop cannot time `rtl` and `synth` apart
/// (both run inside one evaluation), so their shares split the loop's
/// cache-miss evaluation time in the proportions the replay measured.
fn layer_sheet(
    search: Search,
    l: &Layers,
    w: &Tally,
    steps: usize,
    synth_calls: usize,
    hits: usize,
    sheet: &mut Sheet,
) {
    let steps_f = steps.max(1) as f64;
    let base = w.timed_s.max(1e-9);
    let nn = l.nn_secs();
    sheet.put("nn.act_us", l.act.per_call_us());
    sheet.put("nn.train_fwd_us", l.train_fwd.per_call_us());
    sheet.put("nn.boot_fwd_us", l.boot_fwd.per_call_us());
    sheet.put("nn.bwd_us", l.bwd.per_call_us());
    sheet.put("nn.optim_us", l.optim.per_call_us());
    sheet.put("nn.mflop_per_step", l.nn_flops as f64 / 1e6 / steps_f);
    sheet.put("nn.gflops", if nn > 0.0 { l.nn_flops as f64 / 1e9 / nn } else { 0.0 });
    sheet.put("nn.share", nn / base);
    sheet.put("ct.apply_us", l.apply.per_call_us());
    sheet.put("ct.mask_us", l.mask.per_call_us());
    sheet.put("ct.share", (l.apply.secs + l.mask.secs) / base);
    let miss_share = l.eval_miss.secs / base / w.replay_s.max(1e-9);
    sheet.put("rtl.retarget_us", l.retarget.per_call_us());
    sheet.put("rtl.lint_us", l.lint.per_call_us());
    sheet.put("rtl.delta_gates", l.delta_gates as f64);
    sheet.put("rtl.share", (l.retarget.secs + l.lint.secs) * miss_share);
    sheet.put("synth.inc_us", l.inc.per_call_us());
    sheet.put("synth.sta_visits", l.sta_visits as f64);
    sheet.put("synth.share", (l.inc.secs + l.full.secs) * miss_share);
    // `MulEnv::step` in the DQN loop (one evaluation), one `SaRun::step`
    // in the SA loop.
    let step = match search {
        Search::Dqn => Timer {
            calls: l.eval_hit.calls + l.eval_miss.calls,
            secs: l.eval_hit.secs + l.eval_miss.secs,
            off: false,
        },
        Search::Sa => l.step,
    };
    sheet.put("core.step_us", step.per_call_us());
    sheet.put("core.eval_miss_us", l.eval_miss.per_call_us());
    sheet.put("core.eval_hit_us", l.eval_hit.per_call_us());
    let lookups = (l.eval_hit.calls + l.eval_miss.calls).max(1) as f64;
    sheet.put("core.cache_hit_ratio", hits as f64 / lookups);
    sheet.put("core.synth_calls_per_step", synth_calls as f64 / steps_f);
    // Covered: every timed call in the loop. The timed `apply_action`
    // and mask calls of the SA loop, and the timed `apply_action` of
    // the DQN loop, are calls of the benchmark's own beside the ones
    // the library makes; the annealer's own calls are not covered.
    let covered =
        nn + l.mask.secs + l.apply.secs + l.encode.secs + l.eval_hit.secs + l.eval_miss.secs;
    sheet.put("core.unattributed_share", 1.0 - covered / base);
    sheet.put("trace.overhead_share", (w.timed_s - w.untimed_s) / w.untimed_s.max(1e-9));
    sheet.put("trace.overhead_ms", (w.timed_s - w.untimed_s) * 1e3);
}
