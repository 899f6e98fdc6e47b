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
        self.infer_into(&x.data, &mut y.data, batch);
        y
    }

    /// [`Dense::infer`] from `[batch, in]` rows into `[batch, out]` rows of
    /// a caller-owned buffer.
    pub(crate) fn infer_into(&self, x: &[f32], y: &mut [f32], batch: usize) {
        let y = &mut y[..batch * self.out_dim];
        matmul_a_bt(
            &x[..batch * self.in_dim],
            &self.w.data,
            y,
            batch,
            self.in_dim,
            self.out_dim,
        );
        for row in y.chunks_exact_mut(self.out_dim) {
            for (v, &b) in row.iter_mut().zip(&self.b.data) {
                *v += b;
            }
        }
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

    /// The layer's one forward on a `[batch, in_ch, L]` tensor: the input
    /// is laid out as zero-padded rows and run through the kernel
    /// (`Conv1d::infer_rows`, DESIGN.md §21). Takes `&self`, so many threads can share one
    /// warm layer; [`Layer::forward`] is this plus the input kept for
    /// backward.
    pub fn infer(&self, x: &Tensor) -> Tensor {
        self.infer_on(Isa::detect(), x)
    }

    /// [`Conv1d::infer`] through one named compilation of the kernel.
    /// Panics if this CPU cannot run `isa`.
    pub fn infer_on(&self, isa: Isa, x: &Tensor) -> Tensor {
        assert_eq!(x.shape.len(), 3, "conv1d expects [batch, ch, L]");
        assert_eq!(x.shape[1], self.in_ch);
        let (batch, len) = (x.shape[0], x.shape[2]);
        let rows = RowLayout::new(len, self.k / 2);
        let mut xp = vec![0.0f32; batch * self.in_ch * rows.stride()];
        rows.pack(&x.data, &mut xp);
        let mut yp = vec![0.0f32; batch * self.out_ch * rows.stride()];
        self.infer_rows_on(isa, &xp, &mut yp, batch, rows, Epilogue::Store);
        let mut y = Tensor::zeros(&[batch, self.out_ch, len]);
        rows.unpack(&yp, &mut y.data);
        y
    }

    /// The kernel: `x` holds `batch × in_ch` rows and `y` receives
    /// `batch × out_ch` rows, both laid out by `rows` (whose `pad` must be
    /// at least `k / 2`). Every output row is written whole — its padding
    /// zeroed, its values passed through `epi`.
    ///
    /// Each output element accumulates its bias first, then its taps in
    /// `(in_ch, k)` order, one multiply and one add each; a padded tap
    /// contributes an exact `0.0` product. That is bit for bit the direct
    /// convolution written out in `tests/forward_batch.rs`, at every tile
    /// width and in whatever batch a column arrives (DESIGN.md §21).
    pub(crate) fn infer_rows(
        &self,
        x: &[f32],
        y: &mut [f32],
        batch: usize,
        rows: RowLayout,
        epi: Epilogue,
    ) {
        self.infer_rows_on(Isa::detect(), x, y, batch, rows, epi)
    }

    fn infer_rows_on(
        &self,
        isa: Isa,
        x: &[f32],
        y: &mut [f32],
        batch: usize,
        rows: RowLayout,
        epi: Epilogue,
    ) {
        assert!(
            self.k / 2 <= rows.pad,
            "rows padded {} for a {}-tap kernel",
            rows.pad,
            self.k
        );
        assert!(
            x.len() >= batch * self.in_ch * rows.stride(),
            "conv1d input too short"
        );
        assert!(
            y.len() >= batch * self.out_ch * rows.stride(),
            "conv1d output too short"
        );
        assert!(isa.available(), "{isa:?} kernel on a CPU without it");
        match isa {
            Isa::Portable => conv_portable(self, x, y, batch, rows, epi),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: `isa.available()` asserted above that this CPU has AVX2.
            Isa::Avx2 => unsafe { conv_avx2(self, x, y, batch, rows, epi) },
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => unreachable!("AVX2 is never available off x86-64"),
        }
    }
}

/// Every tile width divides this, so a row's positions rounded up to it
/// are whole tiles at either compilation.
const ROW_ALIGN: usize = 16;

/// The layout of zero-padded activation rows: `pad` zeros, the `len`
/// values, then zeros up to `pad` past the length rounded up to
/// `ROW_ALIGN` (16). A `k`-tap kernel with `k / 2 ≤ pad` reads tap `t` of
/// position `l` at `row[pad - k/2 + l + t]`, never outside the row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct RowLayout {
    len: usize,
    pad: usize,
}

impl RowLayout {
    pub fn new(len: usize, pad: usize) -> Self {
        assert!(len > 0, "a row holds at least one value");
        RowLayout { len, pad }
    }

    /// Floats per row.
    pub fn stride(&self) -> usize {
        self.len.div_ceil(ROW_ALIGN) * ROW_ALIGN + 2 * self.pad
    }

    /// Write one whole row: padding zeroed, `values` (exactly `len` of
    /// them) in between.
    pub fn fill(&self, row: &mut [f32], values: impl IntoIterator<Item = f32>) {
        let (head, rest) = row[..self.stride()].split_at_mut(self.pad);
        let (body, tail) = rest.split_at_mut(self.len);
        head.fill(0.0);
        tail.fill(0.0);
        let mut n = 0;
        for (d, v) in body.iter_mut().zip(values) {
            *d = v;
            n += 1;
        }
        assert_eq!(n, self.len, "row needs {} values", self.len);
    }

    /// Lay out `src`, rows of `len` values back to back, as whole padded
    /// rows at the front of `dst`.
    pub fn pack(&self, src: &[f32], dst: &mut [f32]) {
        for (row, values) in dst
            .chunks_exact_mut(self.stride())
            .zip(src.chunks_exact(self.len))
        {
            self.fill(row, values.iter().copied());
        }
    }

    /// The inverse of [`RowLayout::pack`]: the values of the padded rows
    /// of `src`, back to back, into all of `dst`.
    pub fn unpack(&self, src: &[f32], dst: &mut [f32]) {
        for (values, row) in dst
            .chunks_exact_mut(self.len)
            .zip(src.chunks_exact(self.stride()))
        {
            values.copy_from_slice(self.values(row));
        }
    }

    /// The `len` values of a padded row.
    pub fn values<'a>(&self, row: &'a [f32]) -> &'a [f32] {
        &row[self.pad..self.pad + self.len]
    }
}

/// What the kernel does with an output element once its reduction is
/// complete. `AddRelu` is a ResUnit's tail, `relu(conv + skip)`, with the
/// skip read from the output row it overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Epilogue {
    Store,
    Relu,
    AddRelu,
}

/// The compilations of the conv kernel: one portable, one for AVX2 with a
/// tile twice as wide. [`Isa::detect`] picks the one every forward runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Isa {
    Portable,
    Avx2,
}

impl Isa {
    /// The widest compilation this CPU runs (a cached atomic load).
    pub fn detect() -> Isa {
        if Isa::Avx2.available() {
            Isa::Avx2
        } else {
            Isa::Portable
        }
    }

    /// Whether this CPU can run this compilation.
    pub fn available(self) -> bool {
        match self {
            Isa::Portable => true,
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => false,
        }
    }
}

/// Output channels per tile.
const TILE_OC: usize = 4;

/// 4 × 8 accumulators fill 8 of the 16 baseline xmm registers.
fn conv_portable(
    c: &Conv1d,
    x: &[f32],
    y: &mut [f32],
    batch: usize,
    rows: RowLayout,
    epi: Epilogue,
) {
    conv_layer::<8>(c, x, y, batch, rows, epi)
}

/// The same body with a 4 × 16 tile: 8 of the 16 ymm registers.
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn conv_avx2(
    c: &Conv1d,
    x: &[f32],
    y: &mut [f32],
    batch: usize,
    rows: RowLayout,
    epi: Epilogue,
) {
    conv_layer::<16>(c, x, y, batch, rows, epi)
}

/// One layer over every column of the batch, in tiles of [`TILE_OC`]
/// output channels (then single channels for the remainder) × `W`
/// positions.
#[inline(always)]
fn conv_layer<const W: usize>(
    c: &Conv1d,
    x: &[f32],
    y: &mut [f32],
    batch: usize,
    rows: RowLayout,
    epi: Epilogue,
) {
    let stride = rows.stride();
    let full = c.out_ch / TILE_OC * TILE_OC;
    for bi in 0..batch {
        let xb = &x[bi * c.in_ch * stride..(bi + 1) * c.in_ch * stride];
        let yb = &mut y[bi * c.out_ch * stride..(bi + 1) * c.out_ch * stride];
        for o0 in (0..full).step_by(TILE_OC) {
            conv_rows::<TILE_OC, W>(c, xb, yb, rows, o0, epi);
        }
        for o0 in full..c.out_ch {
            conv_rows::<1, W>(c, xb, yb, rows, o0, epi);
        }
        for row in yb.chunks_exact_mut(stride) {
            row[..rows.pad].fill(0.0);
            row[rows.pad + rows.len..].fill(0.0);
        }
    }
}

/// Output channels `o0..o0 + OC` of one column, `W` positions at a time,
/// the `OC × W` accumulators in registers. The weights are read in place
/// (a broadcast per tap), so an optimizer step is seen at the next call.
#[inline(always)]
fn conv_rows<const OC: usize, const W: usize>(
    c: &Conv1d,
    xb: &[f32],
    yb: &mut [f32],
    rows: RowLayout,
    o0: usize,
    epi: Epilogue,
) {
    let (k, stride) = (c.k, rows.stride());
    let off = rows.pad - k / 2;
    let per_out = c.in_ch * k;
    let wo: [&[f32]; OC] = std::array::from_fn(|oo| &c.w.data[(o0 + oo) * per_out..][..per_out]);
    for l0 in (0..rows.len).step_by(W) {
        let mut acc: [[f32; W]; OC] = std::array::from_fn(|oo| [c.b.data[o0 + oo]; W]);
        for i in 0..c.in_ch {
            let window = &xb[i * stride + off + l0..][..W + k - 1];
            let taps: [&[f32]; OC] = std::array::from_fn(|oo| &wo[oo][i * k..][..k]);
            for t in 0..k {
                let xs: &[f32; W] = window[t..t + W].try_into().expect("W taps");
                for (a, w) in acc.iter_mut().zip(&taps) {
                    let wv = w[t];
                    for (av, &xv) in a.iter_mut().zip(xs) {
                        *av += wv * xv;
                    }
                }
            }
        }
        // The whole tile is stored, into the row's tail padding too for the
        // last one (re-zeroed by the caller): an index into `acc` that LLVM
        // cannot resolve would keep the accumulators in stack memory, stored
        // on every tap.
        for (oo, a) in acc.iter().enumerate() {
            let dst: &mut [f32; W] = (&mut yb[(o0 + oo) * stride + rows.pad + l0..][..W])
                .try_into()
                .expect("W outputs");
            match epi {
                Epilogue::Store => *dst = *a,
                Epilogue::Relu => {
                    for (d, &v) in dst.iter_mut().zip(a) {
                        *d = v.max(0.0);
                    }
                }
                Epilogue::AddRelu => {
                    for (d, &v) in dst.iter_mut().zip(a) {
                        *d = (v + *d).max(0.0);
                    }
                }
            }
        }
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
/// mask, and the conv kernel's `Epilogue::Relu` the same `max(0.0)`.
pub fn relu_infer_inplace(values: &mut [f32]) {
    for v in values {
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
        relu_infer_inplace(&mut y.data);
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
