//! Bit-exactness golden for the agent network.
//!
//! Builds the default DQN Q-network at the 16-bit state shape
//! (`[8, 2, 32, 16]`, 128 actions) and pins a training forward, an
//! evaluation forward and a backward by FNV-1a hashes of the f32 bit
//! patterns, plus a short 16-bit DQN trajectory by `f64::to_bits`.
//! The constants were recorded before the kernels were register
//! blocked; any change to the order of a per-element float operation
//! anywhere in the network changes them. Kernel speedups must leave
//! them untouched.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rlmul_core::{train_dqn, DqnConfig, EnvConfig, MulEnv, QNetwork};
use rlmul_ct::PpgKind;
use rlmul_nn::{Layer, Tensor};

const SHAPE: [usize; 4] = [8, 2, 32, 16];
const ACTIONS: usize = 128;

/// Per-tensor gradient hashes in `visit_params` order (trunk, then head).
const PARAM_GRADS: [u64; 38] = [
    0x7306_96c7_3c3b_92f8,
    0xe770_7448_94d1_a8b1,
    0xf07e_5fd5_456c_0027,
    0x9f11_be11_9ca0_83ef,
    0x4e0d_2c1f_f9f9_14e3,
    0xa77f_cd02_ba67_b3d2,
    0xe5f3_ff93_6821_e030,
    0x3a98_089e_529a_edfe,
    0xa991_7023_abb2_0020,
    0x57ff_fa43_f47c_fd9e,
    0x3908_b446_4b96_7fcc,
    0x0a96_f2f2_24ac_a677,
    0x3aaa_9fd4_4440_d066,
    0x04ae_9f1c_cce5_a068,
    0x3b6b_0fc4_9f73_4756,
    0x0942_649a_971e_8d0b,
    0x8155_3d8f_b30d_e617,
    0x135e_5cbc_da59_f265,
    0x6565_13a2_3e52_7108,
    0x7adb_ca88_507d_5a04,
    0x5d20_16e2_1296_39f7,
    0xaa52_e5b9_007e_dc32,
    0x02a9_3cf8_2813_eb21,
    0x7adb_ca88_507d_5a04,
    0xdb18_871f_f492_1dfa,
    0xfc93_b7f5_87e3_e757,
    0xa452_2777_f3a2_5f00,
    0xd982_f201_1a3c_4fd5,
    0x8b47_15b3_7734_0183,
    0x70ea_5140_fa03_0408,
    0x1e0a_1f8e_432b_cff6,
    0x2557_7fda_2680_eddc,
    0xfc7c_019b_8ccd_2abf,
    0x6974_7dce_f43f_2f37,
    0x56a2_1cba_1209_8a94,
    0x2557_7fda_2680_eddc,
    0xe357_7a93_a716_54ba,
    0xbced_4a7f_ac8c_d246,
];

/// Per-step costs of the 12-step run, as `f64::to_bits`.
const TRAJECTORY: [u64; 12] = [
    0x4040_1d57_928e_0cb3,
    0x4040_11c4_08d8_ecaa,
    0x4040_078d_25ed_d067,
    0x403f_ebb1_5b57_3ed2,
    0x4040_000f_9096_bbad,
    0x4040_20fe_718a_86eb,
    0x4040_2c91_fb3f_a6f3,
    0x4040_225b_1854_8aaf,
    0x4040_23b7_bf1e_8e73,
    0x4040_38c6_1f9f_01cc,
    0x4040_27bf_fac1_d2b1,
    0x4040_38c6_1f9f_01cc,
];

fn fnv(words: impl IntoIterator<Item = u32>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for w in words {
        for byte in w.to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

fn hash(values: &[f32]) -> u64 {
    fnv(values.iter().map(|v| v.to_bits()))
}

fn state_like(rng: &mut StdRng) -> Tensor {
    // Mixed signs and exact zeros, like the encoded compressor tree.
    let data = (0..SHAPE.iter().product::<usize>())
        .map(|_| match rng.gen_range(0..4) {
            0 => 0.0,
            _ => rng.gen_range(-2.0f32..2.0),
        })
        .collect();
    Tensor::from_vec(&SHAPE, data)
}

#[test]
fn agent_network_forward_and_backward_are_bit_identical() {
    let trunk = DqnConfig::default().trunk;
    let mut net = QNetwork::new(&trunk, ACTIONS, &mut StdRng::seed_from_u64(12));
    let mut rng = StdRng::seed_from_u64(34);
    let cur = state_like(&mut rng);
    let next = state_like(&mut rng);

    let q_train = net.forward(&cur, true);
    let q_eval = net.forward(&next, false);
    let grad = Tensor::from_vec(
        q_train.shape(),
        (0..q_train.len()).map(|_| rng.gen_range(-1.0f32..1.0)).collect(),
    );
    let dx = net.backward(&grad);
    let mut grads = Vec::new();
    net.visit_params(&mut |p| grads.push(hash(p.grad.data())));
    let mut state = Vec::new();
    net.visit_state(&mut |s| state.extend_from_slice(s));

    assert_eq!(hash(q_train.data()), 0xd5c8_a5b6_0955_976d, "training-forward Q");
    assert_eq!(hash(q_eval.data()), 0x4e2f_a4df_7133_8b7d, "evaluation-forward Q");
    assert_eq!(hash(dx.data()), 0xb803_1d20_c8e6_579c, "input gradient");
    assert_eq!(grads.len(), PARAM_GRADS.len());
    for (i, (&got, want)) in grads.iter().zip(PARAM_GRADS).enumerate() {
        assert_eq!(got, want, "gradient of parameter tensor {i}");
    }
    assert_eq!(hash(&state), 0x7326_4a58_5f7a_d420, "batch-norm running statistics");
}

#[test]
fn short_16_bit_dqn_trajectory_is_bit_identical() {
    let mut env = MulEnv::new(EnvConfig::new(16, PpgKind::And)).expect("env builds");
    let config = DqnConfig { steps: 12, warmup: 4, seed: 1, ..Default::default() };
    let out = train_dqn(&mut env, &config).expect("dqn trains");
    let bits: Vec<u64> = out.trajectory.iter().map(|c| c.to_bits()).collect();
    assert_eq!(bits, TRAJECTORY);
    assert_eq!(out.best_cost.to_bits(), 0x403f_ebb1_5b57_3ed2);
}
