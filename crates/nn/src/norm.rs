//! Batch normalization over NCHW feature maps.

use crate::layer::{Layer, Param};
use crate::sums::{for_channel_groups, group_sums};
use crate::tensor::Tensor;

/// Per-channel batch normalization with learned scale/shift and
/// running statistics for evaluation mode.
///
/// Every per-channel sum runs sequentially in `(n, h, w)` order, as
/// the order oracle [`crate::reference::order`] does, so results are
/// bit-identical to it. A sequential sum is one long chain of
/// dependent adds, so the sums of up to 8 channels are
/// interleaved to keep that many chains in flight; element-wise stages
/// run over each contiguous `h·w` map. Training forwards reuse the
/// cached `x̂` buffer, and the owning forward and backward paths work
/// in place.
#[derive(Debug)]
pub struct BatchNorm2d {
    gamma: Param,
    beta: Param,
    running_mean: Vec<f32>,
    running_var: Vec<f32>,
    momentum: f32,
    eps: f32,
    // Cached from forward (training mode).
    cache: Option<BnCache>,
}

#[derive(Debug)]
struct BnCache {
    x_hat: Tensor,
    inv_std: Vec<f32>,
    count: usize,
}

impl BatchNorm2d {
    /// Normalization over `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        BatchNorm2d {
            gamma: Param::new(Tensor::from_vec(&[channels], vec![1.0; channels])),
            beta: Param::new(Tensor::zeros(&[channels])),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.1,
            eps: 1e-5,
            cache: None,
        }
    }

    /// Training-mode statistics of channels `ch0..ch0 + G`: updates
    /// the running statistics, records `1/σ` in `inv_std` and returns
    /// the batch means.
    fn train_stats<const G: usize>(
        &mut self,
        x: &[f32],
        dims: (usize, usize, usize),
        ch0: usize,
        inv_std: &mut [f32],
    ) -> [f32; G] {
        let count = (dims.0 * dims.2) as f32;
        let [sum] = group_sums::<G, 1, 1>([x], dims, ch0, 0.0, |_, [v]| [v]);
        let mean = sum.map(|s| s / count);
        let [sq] = group_sums::<G, 1, 1>([x], dims, ch0, 0.0, |g, [v]| {
            let d = v - mean[g];
            [d * d]
        });
        for g in 0..G {
            let ch = ch0 + g;
            let var = sq[g] / count;
            inv_std[ch] = 1.0 / (var + self.eps).sqrt();
            self.running_mean[ch] =
                (1.0 - self.momentum) * self.running_mean[ch] + self.momentum * mean[g];
            self.running_var[ch] =
                (1.0 - self.momentum) * self.running_var[ch] + self.momentum * var;
        }
        mean
    }

    /// Training forward in place over `y` (holding the input): batch
    /// statistics, with `x̂` cached for backward.
    fn train_forward(&mut self, y: &mut Tensor) {
        let (n, c, h, w) = y.dims4();
        let (hw, dims) = (h * w, (n, c, h * w));
        let mut cache = match self.cache.take() {
            Some(cache) if cache.x_hat.shape() == y.shape() => cache,
            _ => BnCache { x_hat: Tensor::zeros(y.shape()), inv_std: vec![0.0; c], count: 0 },
        };
        cache.count = n * hw;
        let mut mean = vec![0.0f32; c];
        for_channel_groups!(c, |ch0, G| {
            let m = self.train_stats::<G>(y.data(), dims, ch0, &mut cache.inv_std);
            mean[ch0..ch0 + G].copy_from_slice(&m);
        });
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        let maps =
            y.data_mut().chunks_exact_mut(hw).zip(cache.x_hat.data_mut().chunks_exact_mut(hw));
        for (i, (map, xh)) in maps.enumerate() {
            let ch = i % c;
            let (mu, istd, ga, be) = (mean[ch], cache.inv_std[ch], gamma[ch], beta[ch]);
            for (v, xh) in map.iter_mut().zip(xh) {
                *xh = (*v - mu) * istd;
                *v = ga * *xh + be;
            }
        }
        self.cache = Some(cache);
    }

    /// Evaluation forward in place with the running statistics.
    fn eval_forward(&self, y: &mut Tensor) {
        let (_, c, h, w) = y.dims4();
        let (gamma, beta) = (self.gamma.value.data(), self.beta.value.data());
        for (i, map) in y.data_mut().chunks_exact_mut(h * w).enumerate() {
            let ch = i % c;
            let istd = 1.0 / (self.running_var[ch] + self.eps).sqrt();
            let (mu, ga, be) = (self.running_mean[ch], gamma[ch], beta[ch]);
            for v in map {
                let xh = (*v - mu) * istd;
                *v = ga * xh + be;
            }
        }
    }
}

impl Layer for BatchNorm2d {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        self.forward_owned(x.clone(), train)
    }

    fn forward_owned(&mut self, mut x: Tensor, train: bool) -> Tensor {
        if train {
            self.train_forward(&mut x);
        } else {
            self.eval_forward(&mut x);
        }
        x
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        self.backward_owned(grad_out.clone())
    }

    fn backward_owned(&mut self, mut g: Tensor) -> Tensor {
        let cache = self.cache.as_ref().expect("forward(train) before backward");
        let (n, c, h, w) = g.dims4();
        let (hw, dims) = (h * w, (n, c, h * w));
        let m = cache.count as f32;
        let gamma = self.gamma.value.data();
        let dgamma = self.gamma.grad.data_mut();
        let dbeta = self.beta.grad.data_mut();
        let mut sum_dy = vec![0.0f32; c];
        let mut sum_dy_xhat = vec![0.0f32; c];
        let (dy, xh) = (g.data(), cache.x_hat.data());
        for_channel_groups!(c, |ch0, G| {
            let [s, sx] = group_sums::<G, 2, 2>([dy, xh], dims, ch0, 0.0, |_, [d, x]| [d, d * x]);
            sum_dy[ch0..ch0 + G].copy_from_slice(&s);
            sum_dy_xhat[ch0..ch0 + G].copy_from_slice(&sx);
        });
        for ch in 0..c {
            dgamma[ch] += sum_dy_xhat[ch];
            dbeta[ch] += sum_dy[ch];
        }
        let maps = g.data_mut().chunks_exact_mut(hw).zip(cache.x_hat.data().chunks_exact(hw));
        for (i, (map, xh)) in maps.enumerate() {
            let ch = i % c;
            let k = gamma[ch] * cache.inv_std[ch];
            let (mean_dy, s) = (sum_dy[ch] / m, sum_dy_xhat[ch]);
            for (d, &x) in map.iter_mut().zip(xh) {
                *d = k * (*d - mean_dy - x * s / m);
            }
        }
        g
    }

    fn visit_params(&mut self, f: &mut dyn FnMut(&mut Param)) {
        f(&mut self.gamma);
        f(&mut self.beta);
    }

    fn visit_state(&mut self, f: &mut dyn FnMut(&mut Vec<f32>)) {
        f(&mut self.running_mean);
        f(&mut self.running_var);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn training_output_is_normalized() {
        let mut bn = BatchNorm2d::new(2);
        let mut rng = StdRng::seed_from_u64(1);
        let x = Tensor::kaiming(&[4, 2, 3, 3], 4, &mut rng);
        let y = bn.forward(&x, true);
        // Per channel: mean ≈ 0, var ≈ 1.
        let (n, _, h, w) = y.dims4();
        for ch in 0..2 {
            let vals: Vec<f32> = (0..n)
                .flat_map(|ni| (0..h).flat_map(move |hy| (0..w).map(move |wx| (ni, hy, wx))))
                .map(|(ni, hy, wx)| y.at4(ni, ch, hy, wx))
                .collect();
            let mean: f32 = vals.iter().sum::<f32>() / vals.len() as f32;
            let var: f32 =
                vals.iter().map(|v| (v - mean) * (v - mean)).sum::<f32>() / vals.len() as f32;
            assert!(mean.abs() < 1e-4, "mean {mean}");
            assert!((var - 1.0).abs() < 1e-2, "var {var}");
        }
    }

    #[test]
    fn eval_uses_running_stats() {
        let mut bn = BatchNorm2d::new(1);
        let mut rng = StdRng::seed_from_u64(2);
        for _ in 0..50 {
            let x = Tensor::kaiming(&[8, 1, 2, 2], 4, &mut rng);
            bn.forward(&x, true);
        }
        let x = Tensor::from_vec(&[1, 1, 1, 1], vec![0.0]);
        let y = bn.forward(&x, false);
        // With zero-centred training data, eval(0) ≈ beta = 0.
        assert!(y.data()[0].abs() < 0.5);
    }

    #[test]
    fn gradient_check() {
        let mut bn = BatchNorm2d::new(3);
        let mut rng = StdRng::seed_from_u64(3);
        let x = Tensor::kaiming(&[4, 3, 2, 2], 4, &mut rng);
        crate::testutil::grad_check(&mut bn, &x, 1e-2, 3e-2);
    }

    #[test]
    fn forward_and_backward_are_bit_identical_to_the_order_oracle() {
        use crate::reference::order;
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        // The agent's deepest BN shape (four full channel groups) and a
        // shape with a group of eight plus a one-channel tail.
        for (seed, shape) in [(5u64, [8usize, 32, 8, 4]), (6, [3, 9, 3, 5])] {
            let [n, c, h, w] = shape;
            let mut rng = StdRng::seed_from_u64(seed);
            let mut bn = BatchNorm2d::new(c);
            let x = Tensor::kaiming(&shape, 4, &mut rng);
            let dy = Tensor::kaiming(&shape, 4, &mut rng);
            let (gamma, beta) = (vec![1.0; c], vec![0.0; c]);

            let y = bn.forward(&x, true);
            let want = order::batch_norm_train(x.data(), &gamma, &beta, (n, c, h * w), 1e-5);
            assert_eq!(bits(y.data()), bits(&want.y));
            let eval = bn.forward(&dy, false);
            let running = (bn.running_mean.clone(), bn.running_var.clone());
            let want_eval = order::batch_norm_eval(
                dy.data(),
                &gamma,
                &beta,
                (&running.0, &running.1),
                (c, h * w),
                1e-5,
            );
            assert_eq!(bits(eval.data()), bits(&want_eval));

            let dx = bn.backward(&dy);
            let (mut dgamma, mut dbeta) = (vec![0.0; c], vec![0.0; c]);
            let want_dx = order::batch_norm_backward(
                dy.data(),
                &want.x_hat,
                &want.inv_std,
                &gamma,
                &mut dgamma,
                &mut dbeta,
                (n, c, h * w),
            );
            assert_eq!(bits(dx.data()), bits(&want_dx));
            assert_eq!(bits(bn.gamma.grad.data()), bits(&dgamma));
            assert_eq!(bits(bn.beta.grad.data()), bits(&dbeta));
        }
    }
}
