//! The paper's two network architectures (§5.2.1, Fig. 4).

use crate::layers::{relu_infer_inplace, Conv1d, Dense, Layer, Relu};
use crate::tensor::Tensor;

/// One residual unit: `y = relu(conv2(relu(conv1(x))) + x)`.
struct ResUnit {
    conv1: Conv1d,
    relu1: Relu,
    conv2: Conv1d,
    relu_out: Relu,
}

impl ResUnit {
    fn new(ch: usize, k: usize, seed: u64) -> Self {
        ResUnit {
            conv1: Conv1d::new(ch, ch, k, seed),
            relu1: Relu::default(),
            conv2: Conv1d::new(ch, ch, k, seed.wrapping_add(1)),
            relu_out: Relu::default(),
        }
    }

    fn forward(&mut self, x: &Tensor) -> Tensor {
        let h = self.conv1.forward(x);
        let h = self.relu1.forward(&h);
        let h = self.conv2.forward(&h);
        let mut sum = h;
        for (s, xv) in sum.data.iter_mut().zip(&x.data) {
            *s += xv;
        }
        self.relu_out.forward(&sum)
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let dsum = self.relu_out.backward(dy);
        let dh = self.conv2.backward(&dsum);
        let dh = self.relu1.backward(&dh);
        let mut dx = self.conv1.backward(&dh);
        for (d, s) in dx.data.iter_mut().zip(&dsum.data) {
            *d += s; // skip-connection gradient
        }
        dx
    }

    /// `forward` without the record for backward.
    fn infer(&self, x: &Tensor) -> Tensor {
        let mut h = self.conv1.infer(x);
        relu_infer_inplace(&mut h);
        let mut sum = self.conv2.infer(&h);
        for (s, xv) in sum.data.iter_mut().zip(&x.data) {
            *s += xv;
        }
        relu_infer_inplace(&mut sum);
        sum
    }
}

/// The AI tendency module: an 11-layer CNN along the vertical column with
/// five ResUnits. Input `[batch, 5, nlev]` (U, V, T, Q, P profiles), output
/// `[batch, 4, nlev]` (dU, dV, dT, dQ tendencies).
pub struct TendencyCnn {
    conv_in: Conv1d,
    relu_in: Relu,
    units: Vec<ResUnit>,
    head: Conv1d,
    pub nlev: usize,
    pub width: usize,
}

/// Input channels: U, V, T, Q, P.
pub const TENDENCY_IN_CH: usize = 5;
/// Output channels: dU, dV, dT, dQ.
pub const TENDENCY_OUT_CH: usize = 4;

impl TendencyCnn {
    /// Paper-sized network: width 128 → ≈ 5×10⁵ parameters, 11 conv layers
    /// (1 input conv + 5 ResUnits × 2), 1×1 projection head.
    pub fn paper(nlev: usize) -> Self {
        Self::with_width(nlev, 128, 20250704)
    }

    /// Small configurations for tests.
    pub fn with_width(nlev: usize, width: usize, seed: u64) -> Self {
        TendencyCnn {
            conv_in: Conv1d::new(TENDENCY_IN_CH, width, 3, seed),
            relu_in: Relu::default(),
            units: (0..5)
                .map(|u| ResUnit::new(width, 3, seed.wrapping_add(100 + 10 * u as u64)))
                .collect(),
            head: Conv1d::new(width, TENDENCY_OUT_CH, 1, seed.wrapping_add(999)),
            nlev,
            width,
        }
    }

    /// Convolutional depth (the paper's "11-layer deep CNN").
    pub fn conv_layers(&self) -> usize {
        1 + self.units.len() * 2
    }

    pub fn res_units(&self) -> usize {
        self.units.len()
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape[1], TENDENCY_IN_CH, "expected [B, 5, nlev]");
        assert_eq!(x.shape[2], self.nlev);
        let mut h = self.conv_in.forward(x);
        h = self.relu_in.forward(&h);
        for u in &mut self.units {
            h = u.forward(&h);
        }
        self.head.forward(&h)
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut g = self.head.backward(dy);
        for u in self.units.iter_mut().rev() {
            g = u.backward(&g);
        }
        let g = self.relu_in.backward(&g);
        self.conv_in.backward(&g)
    }

    /// The forward the coupled model and the serving layer run: a batch of
    /// B columns flows through one im2col GEMM per conv layer by shared
    /// reference, so one set of warm weights serves many threads
    /// concurrently. [`TendencyCnn::forward`] walks the same layer kernels
    /// and also records what [`TendencyCnn::backward`] reads, so the two
    /// agree bit for bit.
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape[1], TENDENCY_IN_CH, "expected [B, 5, nlev]");
        assert_eq!(x.shape[2], self.nlev);
        let mut h = self.conv_in.infer(x);
        relu_infer_inplace(&mut h);
        for u in &self.units {
            h = u.infer(&h);
        }
        self.head.infer(&h)
    }

    pub fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        let mut p = self.conv_in.params_mut();
        for u in &mut self.units {
            p.extend(u.conv1.params_mut());
            p.extend(u.conv2.params_mut());
        }
        p.extend(self.head.params_mut());
        p
    }

    pub fn num_parameters(&self) -> usize {
        let mut n = self.conv_in.num_parameters() + self.head.num_parameters();
        for u in &self.units {
            n += u.conv1.num_parameters() + u.conv2.num_parameters();
        }
        n
    }

    pub fn zero_grad(&mut self) {
        self.conv_in.zero_grad();
        for u in &mut self.units {
            u.conv1.zero_grad();
            u.conv2.zero_grad();
        }
        self.head.zero_grad();
    }
}

/// The AI radiation diagnosis module: a 7-layer MLP with residual
/// connections. Input: flattened (U, V, T, Q, P) profiles plus `tskin` and
/// `coszr`; output: surface downward shortwave and longwave fluxes
/// (gsw, glw).
pub struct RadiationMlp {
    input: Dense,
    relu_in: Relu,
    hidden: Vec<(Dense, Relu)>, // 5 residual hidden layers
    output: Dense,
    pub nlev: usize,
    pub width: usize,
}

/// Radiation outputs: gsw, glw.
pub const RADIATION_OUT: usize = 2;

impl RadiationMlp {
    /// Input dimension: 5 profile channels × nlev + tskin + coszr.
    pub fn input_dim(nlev: usize) -> usize {
        5 * nlev + 2
    }

    /// Paper-shaped network: 7 dense layers (input + 5 residual hidden +
    /// output) of width 64.
    pub fn paper(nlev: usize) -> Self {
        Self::with_width(nlev, 64, 20250705)
    }

    pub fn with_width(nlev: usize, width: usize, seed: u64) -> Self {
        RadiationMlp {
            input: Dense::new(Self::input_dim(nlev), width, seed),
            relu_in: Relu::default(),
            hidden: (0..5)
                .map(|h| {
                    (
                        Dense::new(width, width, seed.wrapping_add(31 * (h as u64 + 1))),
                        Relu::default(),
                    )
                })
                .collect(),
            output: Dense::new(width, RADIATION_OUT, seed.wrapping_add(1009)),
            nlev,
            width,
        }
    }

    /// Dense-layer depth (the paper's "7-layer MLP").
    pub fn layers(&self) -> usize {
        2 + self.hidden.len()
    }

    pub fn forward(&mut self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape[1], Self::input_dim(self.nlev));
        let h = self.input.forward(x);
        let mut h = self.relu_in.forward(&h);
        for (dense, relu) in &mut self.hidden {
            let z = dense.forward(&h);
            let mut z = relu.forward(&z);
            for (zv, hv) in z.data.iter_mut().zip(&h.data) {
                *zv += hv; // residual connection
            }
            h = z;
        }
        self.output.forward(&h)
    }

    /// [`RadiationMlp::forward`] by shared reference and without the record
    /// for backward (see [`TendencyCnn::forward_batch`]); equal bit for bit.
    pub fn forward_batch(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape[1], Self::input_dim(self.nlev));
        let mut h = self.input.infer(x);
        relu_infer_inplace(&mut h);
        for (dense, _) in &self.hidden {
            let mut z = dense.infer(&h);
            relu_infer_inplace(&mut z);
            for (zv, hv) in z.data.iter_mut().zip(&h.data) {
                *zv += hv; // residual connection
            }
            h = z;
        }
        self.output.infer(&h)
    }

    pub fn backward(&mut self, dy: &Tensor) -> Tensor {
        let mut g = self.output.backward(dy);
        for (dense, relu) in self.hidden.iter_mut().rev() {
            let dz = relu.backward(&g);
            let dx = dense.backward(&dz);
            let mut gnext = dx;
            for (gn, gv) in gnext.data.iter_mut().zip(&g.data) {
                *gn += gv; // residual gradient
            }
            g = gnext;
        }
        let g = self.relu_in.backward(&g);
        self.input.backward(&g)
    }

    pub fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        let mut p = self.input.params_mut();
        for (dense, _) in &mut self.hidden {
            p.extend(dense.params_mut());
        }
        p.extend(self.output.params_mut());
        p
    }

    pub fn num_parameters(&self) -> usize {
        self.input.num_parameters()
            + self
                .hidden
                .iter()
                .map(|(d, _)| d.num_parameters())
                .sum::<usize>()
            + self.output.num_parameters()
    }

    pub fn zero_grad(&mut self) {
        self.input.zero_grad();
        for (d, _) in &mut self.hidden {
            d.zero_grad();
        }
        self.output.zero_grad();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cnn_shapes() {
        let mut net = TendencyCnn::with_width(10, 8, 1);
        let x = Tensor::zeros(&[3, 5, 10]);
        let y = net.forward(&x);
        assert_eq!(y.shape, vec![3, 4, 10]);
    }

    #[test]
    fn cnn_backward_shapes_and_grads_nonzero() {
        let mut net = TendencyCnn::with_width(8, 4, 2);
        let x = Tensor::xavier(&[2, 5, 8], 5, 4, 3);
        let y = net.forward(&x);
        let dy = Tensor::from_vec(vec![1.0; y.len()], &y.shape);
        net.zero_grad();
        let dx = net.backward(&dy);
        assert_eq!(dx.shape, x.shape);
        let grads_nonzero = net
            .params_mut()
            .iter()
            .any(|(_, g)| g.data.iter().any(|&v| v != 0.0));
        assert!(grads_nonzero);
    }

    #[test]
    fn cnn_gradient_check_end_to_end() {
        let mut net = TendencyCnn::with_width(6, 4, 7);
        let x = Tensor::xavier(&[1, 5, 6], 5, 4, 5);
        let y = net.forward(&x);
        let dy = Tensor::from_vec(vec![1.0; y.len()], &y.shape);
        net.zero_grad();
        let dx = net.backward(&dy);
        let eps = 1e-2;
        for idx in [0, 10, 29] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let yp: f32 = net.forward(&xp).data.iter().sum();
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let ym: f32 = net.forward(&xm).data.iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx.data[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "dx[{idx}]: numeric {num} analytic {}",
                dx.data[idx]
            );
        }
    }

    #[test]
    fn mlp_shapes_and_depth() {
        let mut net = RadiationMlp::with_width(10, 16, 3);
        assert_eq!(net.layers(), 7);
        let x = Tensor::zeros(&[4, 52]);
        let y = net.forward(&x);
        assert_eq!(y.shape, vec![4, 2]);
    }

    #[test]
    fn mlp_gradient_check() {
        let mut net = RadiationMlp::with_width(4, 8, 11);
        let x = Tensor::xavier(&[1, 22], 22, 8, 13);
        let y = net.forward(&x);
        let dy = Tensor::from_vec(vec![1.0; y.len()], &y.shape);
        net.zero_grad();
        let dx = net.backward(&dy);
        let eps = 1e-2;
        for idx in [0, 11, 21] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let yp: f32 = net.forward(&xp).data.iter().sum();
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let ym: f32 = net.forward(&xm).data.iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx.data[idx]).abs() < 0.05 * (1.0 + num.abs()),
                "dx[{idx}]: numeric {num} analytic {}",
                dx.data[idx]
            );
        }
    }

    #[test]
    fn cnn_forward_batch_matches_training_forward() {
        let mut net = TendencyCnn::with_width(9, 8, 31);
        let x = Tensor::xavier(&[4, 5, 9], 5, 8, 17);
        let want = net.forward(&x);
        let got = net.forward_batch(&x);
        assert_eq!(got, want);
    }

    #[test]
    fn mlp_forward_batch_matches_training_forward() {
        let mut net = RadiationMlp::with_width(6, 16, 13);
        let x = Tensor::xavier(&[5, 32], 32, 16, 23);
        let want = net.forward(&x);
        let got = net.forward_batch(&x);
        assert_eq!(got, want);
    }

    #[test]
    fn forward_batch_rows_are_batch_independent() {
        // Row bi of a size-B batch must equal the same sample run alone.
        let net = TendencyCnn::with_width(7, 8, 5);
        let x = Tensor::xavier(&[3, 5, 7], 5, 8, 29);
        let all = net.forward_batch(&x);
        let per = 5 * 7;
        let out_per = 4 * 7;
        for bi in 0..3 {
            let xs = Tensor::from_vec(x.data[bi * per..(bi + 1) * per].to_vec(), &[1, 5, 7]);
            let ys = net.forward_batch(&xs);
            assert_eq!(&all.data[bi * out_per..(bi + 1) * out_per], &ys.data[..]);
        }
    }

    #[test]
    fn networks_are_deterministic() {
        let mut a = TendencyCnn::with_width(8, 4, 77);
        let mut b = TendencyCnn::with_width(8, 4, 77);
        let x = Tensor::xavier(&[1, 5, 8], 5, 4, 1);
        assert_eq!(a.forward(&x).data, b.forward(&x).data);
    }
}
