//! Dense-kernel benchmark: kernel throughput, speedup over the
//! retained naive seed kernels at the paper's state-tensor shape, the
//! phases of one agent update at the default 16-bit DQN shape
//! (`DqnConfig::default()`, input `[8, 2, 32, 16]`, 128 actions), and
//! per-step agent cost for both RL methods. Writes
//! `results/BENCH_nn.json` so future changes have a perf trajectory
//! to compare against.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_bench::report::results_dir;
use rlmul_core::{
    train_a2c, train_dqn, A2cConfig, DqnConfig, EnvConfig, MulEnv, NnStats, QNetwork,
};
use rlmul_ct::PpgKind;
use rlmul_nn::{gemm, reference, Conv2d, Layer, Tensor, TrunkConfig};
use rlmul_obs::json::{JsonBuilder, JsonObject};
use std::time::Instant;

/// Median-of-runs seconds per iteration of `f`.
fn time_per_iter<F: FnMut()>(iters: usize, mut f: F) -> f64 {
    // Warm-up.
    f();
    let mut runs: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..iters {
                f();
            }
            t0.elapsed().as_secs_f64() / iters as f64
        })
        .collect();
    runs.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
    runs[runs.len() / 2]
}

fn main() {
    let mut json = JsonObject::default();
    let mut rng = StdRng::seed_from_u64(42);

    // Raw GEMM throughput at a head-sized shape.
    let (m, k, n) = (32usize, 256usize, 128usize);
    let a: Vec<f32> = (0..m * k).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let b: Vec<f32> = (0..k * n).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let mut c = vec![0.0f32; m * n];
    let secs = time_per_iter(50, || {
        c.fill(0.0);
        gemm::gemm_nn(&a, &b, &mut c, m, k, n);
    });
    let gemm_gflops = 2.0 * (m * k * n) as f64 / secs / 1e9;
    println!("gemm_nn {m}x{k}x{n}: {gemm_gflops:.2} GFLOP/s");
    json.push("gemm_nn_gflops", gemm_gflops);

    // Conv2d forward+backward at the paper's state-tensor shape
    // [4, 2, 16, 16] (an A2C batch over four workers), optimized GEMM
    // path vs the naive seed kernels.
    let (bn, ic, oc, kk, h, w) = (4usize, 2usize, 16usize, 3usize, 16usize, 16usize);
    let mut conv = Conv2d::new(ic, oc, kk, 1, 1, &mut rng);
    let x = Tensor::kaiming(&[bn, ic, h, w], ic * kk * kk, &mut rng);
    let opt_secs = time_per_iter(200, || {
        let y = conv.forward(&x, true);
        conv.backward(&y);
    });
    let weight: Vec<f32> = (0..oc * ic * kk * kk).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let bias = vec![0.1f32; oc];
    let naive_secs = time_per_iter(20, || {
        let y = reference::conv2d_forward(x.data(), &weight, &bias, bn, ic, h, w, oc, kk, 1, 1);
        let mut dw = vec![0.0f32; weight.len()];
        let mut db = vec![0.0f32; oc];
        reference::conv2d_backward(
            x.data(),
            &y,
            &weight,
            &mut dw,
            &mut db,
            bn,
            ic,
            h,
            w,
            oc,
            kk,
            1,
            1,
        );
    });
    let speedup = naive_secs / opt_secs;
    println!(
        "conv fwd+bwd [4,2,16,16]: optimized {:.1} µs vs naive {:.1} µs ({speedup:.1}x)",
        opt_secs * 1e6,
        naive_secs * 1e6
    );
    json.push("conv_fwd_bwd_paper_shape_us", opt_secs * 1e6);
    json.push("conv_fwd_bwd_naive_us", naive_secs * 1e6);
    json.push("conv_fwd_bwd_speedup", speedup);

    // One DQN update at the default 16-bit shape, phase by phase:
    // training forward, bootstrap (evaluation) forward, backward.
    let dqn_cfg = DqnConfig { steps: 40, ..Default::default() };
    update_phases(&mut json, &dqn_cfg, &mut rng);

    // Per-step agent cost: short end-to-end training runs; the
    // pipeline's NnStats isolates dense-kernel time from synthesis.
    // The labels name the workload (`dqn16`: default 16-bit DQN;
    // `a2c4`: 4-bit A2C on a two-stage trunk), so figures from
    // different workloads never share a JSON key.
    let mut env = MulEnv::new(EnvConfig::new(16, PpgKind::And)).expect("env builds");
    let t0 = Instant::now();
    let out = train_dqn(&mut env, &dqn_cfg).expect("dqn trains");
    let dqn_wall = t0.elapsed().as_secs_f64();
    report_agent("dqn16", &mut json, out.pipeline.nn, dqn_cfg.steps, dqn_wall);

    let trunk = TrunkConfig { in_channels: 2, channels: vec![8, 16], blocks_per_stage: 1 };
    let a2c_cfg = A2cConfig { steps: 8, n_envs: 2, n_step: 3, trunk, ..Default::default() };
    let t0 = Instant::now();
    let out = train_a2c(&EnvConfig::new(4, PpgKind::And), &a2c_cfg).expect("a2c trains");
    let a2c_wall = t0.elapsed().as_secs_f64();
    report_agent("a2c4", &mut json, out.pipeline.nn, a2c_cfg.steps, a2c_wall);

    let path = results_dir().join("BENCH_nn.json");
    std::fs::create_dir_all(results_dir()).expect("results dir");
    std::fs::write(&path, json.render_into(JsonBuilder::new()).build())
        .expect("write BENCH_nn.json");
    println!("wrote {}", path.display());
}

/// Times the three network phases of a DQN update on batches of real
/// 16-bit states collected by a short random walk.
fn update_phases(json: &mut JsonObject, cfg: &DqnConfig, rng: &mut StdRng) {
    let mut env = MulEnv::new(EnvConfig::new(16, PpgKind::And)).expect("env builds");
    let shape = env.tensor_shape();
    let actions = env.action_space();
    let batch = cfg.batch_size;
    let mut states = Vec::new();
    for _ in 0..2 * batch {
        states.extend_from_slice(env.encode_current().expect("encode").data());
        let legal: Vec<usize> =
            env.action_mask().iter().enumerate().filter(|(_, &ok)| ok).map(|(i, _)| i).collect();
        env.step(legal[rng.gen_range(0..legal.len())]).expect("step");
    }
    let volume = shape[1] * shape[2] * shape[3];
    let bshape = [batch, shape[1], shape[2], shape[3]];
    let cur = Tensor::from_vec(&bshape, states[..batch * volume].to_vec());
    let next = Tensor::from_vec(&bshape, states[batch * volume..].to_vec());
    let mut net = QNetwork::new(&cfg.trunk, actions, rng);
    let grad = Tensor::from_vec(
        &[batch, actions],
        (0..batch * actions).map(|_| rng.gen_range(-0.1f32..0.1)).collect(),
    );
    let train_fwd = time_per_iter(20, || {
        net.forward(&cur, true);
    });
    let boot_fwd = time_per_iter(20, || {
        net.forward(&next, false);
    });
    let fwd_bwd = time_per_iter(20, || {
        net.forward(&cur, true);
        net.backward(&grad);
    });
    let backward = (fwd_bwd - train_fwd).max(0.0);
    println!(
        "dqn16 update {bshape:?} x {actions}: train fwd {:.0} µs, boot fwd {:.0} µs, bwd {:.0} µs",
        train_fwd * 1e6,
        boot_fwd * 1e6,
        backward * 1e6
    );
    json.push("dqn16_train_fwd_us", train_fwd * 1e6);
    json.push("dqn16_boot_fwd_us", boot_fwd * 1e6);
    json.push("dqn16_bwd_us", backward * 1e6);
}

fn report_agent(label: &str, json: &mut JsonObject, nn: NnStats, steps: usize, wall: f64) {
    let per_step_ms = nn.nanos as f64 / 1e6 / steps as f64;
    println!(
        "{label}: {} over {steps} env steps ({per_step_ms:.2} nn ms/step, {wall:.2} s total)",
        nn.render()
    );
    json.push(&format!("{label}_nn_gflops"), nn.gflops_per_sec());
    json.push(&format!("{label}_nn_ms_per_step"), per_step_ms);
    json.push(&format!("{label}_wall_s"), wall);
}
