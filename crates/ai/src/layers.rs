//! Neural-network layers with hand-written backward passes.
//!
//! Shapes: dense layers take `[batch, in]`; conv layers take
//! `[batch, channels, length]` where `length` is the vertical column (the
//! paper applies "a one-dimensional convolution along the vertical column").

use crate::tensor::{matmul, matmul_a_bt, matmul_at_b, Tensor};

/// A trainable layer: forward caches what backward needs; backward
/// accumulates parameter gradients and returns the input gradient.
pub trait Layer {
    fn forward(&mut self, x: &Tensor) -> Tensor;
    fn backward(&mut self, dy: &Tensor) -> Tensor;
    /// (parameter, gradient) pairs for the optimizer.
    fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)>;
    fn num_parameters(&self) -> usize;
    fn zero_grad(&mut self);
}

// ---------------------------------------------------------------------------
// Dense
// ---------------------------------------------------------------------------

/// Fully connected layer: `y = x·Wᵀ + b`, W: `[out, in]`.
pub struct Dense {
    pub w: Tensor,
    pub b: Tensor,
    pub dw: Tensor,
    pub db: Tensor,
    input: Option<Tensor>,
    pub in_dim: usize,
    pub out_dim: usize,
}

impl Dense {
    pub fn new(in_dim: usize, out_dim: usize, seed: u64) -> Self {
        Dense {
            w: Tensor::xavier(&[out_dim, in_dim], in_dim, out_dim, seed),
            b: Tensor::zeros(&[out_dim]),
            dw: Tensor::zeros(&[out_dim, in_dim]),
            db: Tensor::zeros(&[out_dim]),
            input: None,
            in_dim,
            out_dim,
        }
    }

    /// The layer's one forward (one GEMM then bias), by shared reference:
    /// one warm layer can serve many threads. [`Layer::forward`] is this
    /// plus the input kept for backward.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape.len(), 2, "dense expects [batch, in]");
        assert_eq!(x.shape[1], self.in_dim);
        let batch = x.shape[0];
        let mut y = Tensor::zeros(&[batch, self.out_dim]);
        matmul_a_bt(&x.data, &self.w.data, &mut y.data, batch, self.in_dim, self.out_dim);
        for bi in 0..batch {
            for o in 0..self.out_dim {
                y.data[bi * self.out_dim + o] += self.b.data[o];
            }
        }
        y
    }
}

impl Layer for Dense {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.input.as_ref().expect("forward before backward");
        let batch = x.shape[0];
        assert_eq!(dy.shape, vec![batch, self.out_dim]);
        // dW += dyᵀ[out,batch]·x[batch,in]
        matmul_at_b(
            &dy.data,
            &x.data,
            &mut self.dw.data,
            batch,
            self.out_dim,
            self.in_dim,
        );
        for bi in 0..batch {
            for o in 0..self.out_dim {
                self.db.data[o] += dy.data[bi * self.out_dim + o];
            }
        }
        // dx = dy[batch,out]·W[out,in]
        let mut dx = Tensor::zeros(&[batch, self.in_dim]);
        matmul(
            &dy.data,
            &self.w.data,
            &mut dx.data,
            batch,
            self.out_dim,
            self.in_dim,
        );
        dx
    }

    fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.w, &mut self.dw), (&mut self.b, &mut self.db)]
    }

    fn num_parameters(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn zero_grad(&mut self) {
        self.dw.data.fill(0.0);
        self.db.data.fill(0.0);
    }
}

// ---------------------------------------------------------------------------
// Conv1d
// ---------------------------------------------------------------------------

/// 1-D convolution with "same" zero padding, odd kernel size.
/// W: `[out_ch, in_ch, k]`; input `[batch, in_ch, L]`.
pub struct Conv1d {
    pub w: Tensor,
    pub b: Tensor,
    pub dw: Tensor,
    pub db: Tensor,
    input: Option<Tensor>,
    pub in_ch: usize,
    pub out_ch: usize,
    pub k: usize,
}

impl Conv1d {
    pub fn new(in_ch: usize, out_ch: usize, k: usize, seed: u64) -> Self {
        assert!(k % 2 == 1, "odd kernel only");
        Conv1d {
            w: Tensor::xavier(&[out_ch, in_ch, k], in_ch * k, out_ch * k, seed),
            b: Tensor::zeros(&[out_ch]),
            dw: Tensor::zeros(&[out_ch, in_ch, k]),
            db: Tensor::zeros(&[out_ch]),
            input: None,
            in_ch,
            out_ch,
            k,
        }
    }

    /// The layer's one forward, via im2col: the whole `[batch, ch, L]` input
    /// is lowered to one `[batch·L, in_ch·k]` patch matrix and the
    /// convolution becomes a dense GEMM with branch-free inner loops.
    /// Each output element accumulates bias first, then taps in
    /// `(in_ch, k)` order, padding contributing an exact `+0.0` — bit for
    /// bit the direct convolution written out in `tests/forward_batch.rs`,
    /// and independent of the batch a column arrives in. Takes `&self`, so
    /// many threads can share one warm layer; [`Layer::forward`] is this
    /// plus the input kept for backward.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        assert_eq!(x.shape.len(), 3, "conv1d expects [batch, ch, L]");
        assert_eq!(x.shape[1], self.in_ch);
        let (batch, len) = (x.shape[0], x.shape[2]);
        let half = self.k / 2;
        let patch = self.in_ch * self.k;
        let patch_of = |i: usize, t: usize| i * self.k + t;
        let bl = batch * len;
        // Transposed im2col: `colst[p][bi·len + l]`, patch row p = (i, t).
        // Pre-zeroed, so the padded window contributes an exact +0.0.
        let mut colst = vec![0.0f32; patch * bl];
        for bi in 0..batch {
            let xb = &x.data[bi * self.in_ch * len..(bi + 1) * self.in_ch * len];
            for i in 0..self.in_ch {
                let xrow = &xb[i * len..(i + 1) * len];
                for t in 0..self.k {
                    // Output position l reads x[l + t - half]; restrict l to
                    // the in-bounds window so padding stays zero.
                    let lo = half.saturating_sub(t);
                    let hi = (len + half).saturating_sub(t).min(len);
                    let dst = &mut colst[patch_of(i, t) * bl + bi * len..][..len];
                    for l in lo..hi {
                        dst[l] = xrow[l + t - half];
                    }
                }
            }
        }
        // GEMM with the reduction kept *serial per output element* (bias
        // first, then taps in (in_ch, k) order) while the `bl` output
        // positions act as independent accumulators, so the inner axpy
        // loops vectorize.
        let mut rows = vec![0.0f32; bl];
        let mut y = Tensor::zeros(&[batch, self.out_ch, len]);
        for o in 0..self.out_ch {
            rows.fill(self.b.data[o]);
            let wrow = &self.w.data[o * patch..(o + 1) * patch];
            for (p, &w) in wrow.iter().enumerate() {
                let col = &colst[p * bl..(p + 1) * bl];
                for (r, &c) in rows.iter_mut().zip(col) {
                    *r += c * w;
                }
            }
            // Scatter [o][bi·len + l] → y[bi][o][l].
            for bi in 0..batch {
                y.data[(bi * self.out_ch + o) * len..(bi * self.out_ch + o + 1) * len]
                    .copy_from_slice(&rows[bi * len..(bi + 1) * len]);
            }
        }
        y
    }
}

impl Layer for Conv1d {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        let y = self.infer(x);
        self.input = Some(x.clone());
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        let x = self.input.as_ref().expect("forward before backward");
        let (batch, len) = (x.shape[0], x.shape[2]);
        assert_eq!(dy.shape, vec![batch, self.out_ch, len]);
        let half = self.k / 2;
        let mut dx = Tensor::zeros(&[batch, self.in_ch, len]);
        for bi in 0..batch {
            let xb = &x.data[bi * self.in_ch * len..(bi + 1) * self.in_ch * len];
            let dyb = &dy.data[bi * self.out_ch * len..(bi + 1) * self.out_ch * len];
            let dxb = &mut dx.data[bi * self.in_ch * len..(bi + 1) * self.in_ch * len];
            for o in 0..self.out_ch {
                let dyrow = &dyb[o * len..(o + 1) * len];
                self.db.data[o] += dyrow.iter().sum::<f32>();
                for i in 0..self.in_ch {
                    let xrow = &xb[i * len..(i + 1) * len];
                    let wbase = (o * self.in_ch + i) * self.k;
                    for t in 0..self.k {
                        let w = self.w.data[wbase + t];
                        let mut dwt = 0.0;
                        for (l, &g) in dyrow.iter().enumerate() {
                            let src = l + t;
                            if src >= half && src - half < len {
                                let xv = xrow[src - half];
                                dwt += g * xv;
                                dxb[i * len + src - half] += g * w;
                            }
                        }
                        self.dw.data[wbase + t] += dwt;
                    }
                }
            }
        }
        dx
    }

    fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![(&mut self.w, &mut self.dw), (&mut self.b, &mut self.db)]
    }

    fn num_parameters(&self) -> usize {
        self.w.len() + self.b.len()
    }

    fn zero_grad(&mut self) {
        self.dw.data.fill(0.0);
        self.db.data.fill(0.0);
    }
}

// ---------------------------------------------------------------------------
// ReLU
// ---------------------------------------------------------------------------

/// Elementwise ReLU, in place; [`Relu`]'s forward is this plus the gradient
/// mask.
pub fn relu_infer_inplace(t: &mut Tensor) {
    for v in &mut t.data {
        *v = v.max(0.0);
    }
}

/// Elementwise rectifier.
#[derive(Default)]
pub struct Relu {
    mask: Vec<bool>,
}

impl Layer for Relu {
    fn forward(&mut self, x: &Tensor) -> Tensor {
        self.mask = x.data.iter().map(|&v| v > 0.0).collect();
        let mut y = x.clone();
        relu_infer_inplace(&mut y);
        y
    }

    fn backward(&mut self, dy: &Tensor) -> Tensor {
        assert_eq!(dy.len(), self.mask.len());
        Tensor {
            data: dy
                .data
                .iter()
                .zip(&self.mask)
                .map(|(&g, &m)| if m { g } else { 0.0 })
                .collect(),
            shape: dy.shape.clone(),
        }
    }

    fn params_mut(&mut self) -> Vec<(&mut Tensor, &mut Tensor)> {
        vec![]
    }

    fn num_parameters(&self) -> usize {
        0
    }

    fn zero_grad(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Numerical gradient check against the analytic backward pass.
    fn grad_check<L: Layer>(layer: &mut L, x: &Tensor, eps: f32, tol: f32) {
        // Loss = sum(y); dy = ones.
        let y = layer.forward(x);
        let dy = Tensor::from_vec(vec![1.0; y.len()], &y.shape);
        layer.zero_grad();
        let dx = layer.backward(&dy);
        // Check input gradient numerically for a few entries.
        for idx in [0, x.len() / 2, x.len() - 1] {
            let mut xp = x.clone();
            xp.data[idx] += eps;
            let yp: f32 = layer.forward(&xp).data.iter().sum();
            let mut xm = x.clone();
            xm.data[idx] -= eps;
            let ym: f32 = layer.forward(&xm).data.iter().sum();
            let num = (yp - ym) / (2.0 * eps);
            assert!(
                (num - dx.data[idx]).abs() < tol,
                "dx[{idx}]: numeric {num} analytic {}",
                dx.data[idx]
            );
        }
    }

    #[test]
    fn dense_forward_known_values() {
        let mut d = Dense::new(2, 2, 1);
        d.w.data = vec![1.0, 2.0, 3.0, 4.0]; // [[1,2],[3,4]]
        d.b.data = vec![0.5, -0.5];
        let x = Tensor::from_vec(vec![1.0, 1.0], &[1, 2]);
        let y = d.forward(&x);
        assert_eq!(y.data, vec![3.5, 6.5]);
    }

    #[test]
    fn dense_gradcheck() {
        let mut d = Dense::new(5, 3, 42);
        let x = Tensor::xavier(&[2, 5], 5, 3, 9);
        grad_check(&mut d, &x, 1e-3, 1e-2);
    }

    #[test]
    fn dense_weight_gradient_numeric() {
        let mut d = Dense::new(3, 2, 7);
        let x = Tensor::xavier(&[4, 3], 3, 2, 11);
        let y = d.forward(&x);
        let dy = Tensor::from_vec(vec![1.0; y.len()], &y.shape);
        d.zero_grad();
        d.backward(&dy);
        let analytic = d.dw.data[2];
        let eps = 1e-3;
        d.w.data[2] += eps;
        let yp: f32 = d.forward(&x).data.iter().sum();
        d.w.data[2] -= 2.0 * eps;
        let ym: f32 = d.forward(&x).data.iter().sum();
        d.w.data[2] += eps;
        let numeric = (yp - ym) / (2.0 * eps);
        assert!((analytic - numeric).abs() < 1e-2, "{analytic} vs {numeric}");
    }

    #[test]
    fn conv1d_forward_identity_kernel() {
        let mut c = Conv1d::new(1, 1, 3, 1);
        c.w.data = vec![0.0, 1.0, 0.0]; // delta kernel
        c.b.data = vec![0.0];
        let x = Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], &[1, 1, 4]);
        let y = c.forward(&x);
        assert_eq!(y.data, x.data);
    }

    #[test]
    fn conv1d_same_padding_shape() {
        let mut c = Conv1d::new(3, 5, 3, 2);
        let x = Tensor::zeros(&[2, 3, 30]);
        let y = c.forward(&x);
        assert_eq!(y.shape, vec![2, 5, 30]);
    }

    #[test]
    fn conv1d_gradcheck() {
        let mut c = Conv1d::new(2, 3, 3, 5);
        let x = Tensor::xavier(&[1, 2, 7], 6, 9, 3);
        grad_check(&mut c, &x, 1e-3, 1e-2);
    }

    #[test]
    fn relu_masks_negative_gradients() {
        let mut r = Relu::default();
        let x = Tensor::from_vec(vec![-1.0, 2.0, 0.0], &[3]);
        let y = r.forward(&x);
        assert_eq!(y.data, vec![0.0, 2.0, 0.0]);
        let dx = r.backward(&Tensor::from_vec(vec![1.0, 1.0, 1.0], &[3]));
        assert_eq!(dx.data, vec![0.0, 1.0, 0.0]);
    }

    #[test]
    fn param_counts() {
        let d = Dense::new(10, 4, 0);
        assert_eq!(d.num_parameters(), 44);
        let c = Conv1d::new(5, 128, 3, 0);
        assert_eq!(c.num_parameters(), 5 * 128 * 3 + 128);
    }
}
