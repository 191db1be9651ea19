//! Spatial pooling.

use crate::layer::{Layer, Param};
use crate::tensor::Tensor;

/// Global average pooling: NCHW → `[batch, channels]`.
#[derive(Debug, Default)]
pub struct GlobalAvgPool {
    cached_shape: Vec<usize>,
}

impl GlobalAvgPool {
    /// A pooling layer.
    pub fn new() -> Self {
        GlobalAvgPool::default()
    }
}

impl Layer for GlobalAvgPool {
    fn forward(&mut self, x: &Tensor, train: bool) -> Tensor {
        let (n, c, h, w) = x.dims4();
        if train {
            // Evaluation forwards (possibly with a different batch
            // size) must not clobber the shape backward will restore.
            self.cached_shape = x.shape().to_vec();
        }
        let hw = h * w;
        let scale = 1.0 / hw as f32;
        let mut y = Tensor::zeros(&[n, c]);
        let xd = x.data();
        for (map, out) in xd.chunks_exact(hw).zip(y.data_mut()) {
            *out = map.iter().sum::<f32>() * scale;
        }
        y
    }

    fn backward(&mut self, grad_out: &Tensor) -> Tensor {
        let (n, c, h, w) = (
            self.cached_shape[0],
            self.cached_shape[1],
            self.cached_shape[2],
            self.cached_shape[3],
        );
        let mut dx = Tensor::zeros(&self.cached_shape);
        let scale = 1.0 / (h * w) as f32;
        assert_eq!(grad_out.len(), n * c, "GlobalAvgPool: gradient shape mismatch");
        for (map, &g) in dx.data_mut().chunks_exact_mut(h * w).zip(grad_out.data()) {
            map.fill(g * scale);
        }
        dx
    }

    fn visit_params(&mut self, _f: &mut dyn FnMut(&mut Param)) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn averages_each_channel() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::from_vec(&[1, 2, 1, 2], vec![1.0, 3.0, 10.0, 20.0]);
        let y = p.forward(&x, false);
        assert_eq!(y.data(), &[2.0, 15.0]);
    }

    #[test]
    fn backward_distributes_uniformly() {
        let mut p = GlobalAvgPool::new();
        let x = Tensor::zeros(&[1, 1, 2, 2]);
        p.forward(&x, true);
        let g = p.backward(&Tensor::from_vec(&[1, 1], vec![4.0]));
        assert_eq!(g.data(), &[1.0, 1.0, 1.0, 1.0]);
    }

    #[test]
    fn eval_forward_keeps_training_shape_cache() {
        let mut p = GlobalAvgPool::new();
        p.forward(&Tensor::zeros(&[2, 1, 2, 2]), true);
        // A different-batch evaluation forward in between …
        p.forward(&Tensor::zeros(&[5, 1, 2, 2]), false);
        // … must not change what backward reconstructs.
        let g = p.backward(&Tensor::zeros(&[2, 1]));
        assert_eq!(g.shape(), &[2, 1, 2, 2]);
    }
}
