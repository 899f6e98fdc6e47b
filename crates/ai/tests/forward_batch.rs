//! Property tests of the one forward kernel, **bit for bit**: `Conv1d::infer`
//! (im2col GEMM) against the direct convolution written out below, and a row
//! of a batch against the same column run alone through the recording walk
//! (`forward`) — so neither the lowering, the batch a column arrives in, nor
//! which of the two network walks ran it can move a bit.

use ap3esm_ai::layers::Conv1d;
use ap3esm_ai::net::{RadiationMlp, TendencyCnn, TENDENCY_IN_CH, TENDENCY_OUT_CH};
use ap3esm_ai::Tensor;
use proptest::prelude::*;

/// Deterministic xorshift-based input filler so every proptest case is
/// reproducible from its drawn seed.
fn fill(seed: u64, n: usize, scale: f32) -> Vec<f32> {
    let mut s = seed | 1;
    (0..n)
        .map(|_| {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            let u = (s >> 11) as f32 / (1u64 << 53) as f32;
            (u * 2.0 - 1.0) * scale
        })
        .collect()
}

/// The reference: the per-sample direct convolution that was `Conv1d`'s
/// training forward until the layer became one kernel, kept verbatim (bias
/// first, then the in-bounds taps in `(in_ch, k)` order; padded taps skipped).
fn direct_conv(c: &Conv1d, x: &Tensor) -> Tensor {
    assert_eq!(x.shape.len(), 3, "conv1d expects [batch, ch, L]");
    assert_eq!(x.shape[1], c.in_ch);
    let (batch, len) = (x.shape[0], x.shape[2]);
    let half = c.k / 2;
    let mut y = Tensor::zeros(&[batch, c.out_ch, len]);
    for bi in 0..batch {
        let xb = &x.data[bi * c.in_ch * len..(bi + 1) * c.in_ch * len];
        let yb = &mut y.data[bi * c.out_ch * len..(bi + 1) * c.out_ch * len];
        for o in 0..c.out_ch {
            let bias = c.b.data[o];
            for l in 0..len {
                let mut acc = bias;
                for i in 0..c.in_ch {
                    let xrow = &xb[i * len..(i + 1) * len];
                    let base = (o * c.in_ch + i) * c.k;
                    let wrow = &c.w.data[base..base + c.k];
                    for (t, &w) in wrow.iter().enumerate() {
                        let src = l + t;
                        if src >= half && src - half < len {
                            acc += w * xrow[src - half];
                        }
                    }
                }
                yb[o * len + l] = acc;
            }
        }
    }
    y
}

fn bits(t: &[f32]) -> Vec<u32> {
    t.iter().map(|v| v.to_bits()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn conv1d_infer_is_the_direct_convolution(
        batch in 1usize..=32,
        nlev in 4usize..=12,
        in_ch in 1usize..=6,
        out_ch in 1usize..=6,
        // k = 2·half + 1 up to 15: wider than every column drawn.
        half in 0usize..=7,
        seed in 1u64..u64::MAX,
        scale in 0.1f64..4.0,
    ) {
        let mut c = Conv1d::new(in_ch, out_ch, 2 * half + 1, seed);
        c.b.data = fill(seed ^ 0x5bd1_e995, out_ch, 0.5);
        let x = Tensor::from_vec(
            fill(seed, batch * in_ch * nlev, scale as f32),
            &[batch, in_ch, nlev],
        );
        let want = direct_conv(&c, &x);
        let got = c.infer(&x);
        prop_assert_eq!(&got.shape, &want.shape);
        prop_assert_eq!(bits(&got.data), bits(&want.data));
    }

    #[test]
    fn cnn_batched_row_is_the_column_run_alone(
        batch in 1usize..=32,
        nlev in 4usize..=12,
        seed in 1u64..u64::MAX,
        scale in 0.1f64..4.0,
    ) {
        let mut net = TendencyCnn::with_width(nlev, 8, seed);
        let per = TENDENCY_IN_CH * nlev;
        let data = fill(seed, batch * per, scale as f32);
        let x = Tensor::from_vec(data.clone(), &[batch, TENDENCY_IN_CH, nlev]);
        let yb = net.forward_batch(&x);
        prop_assert_eq!(&yb.shape, &vec![batch, TENDENCY_OUT_CH, nlev]);

        let out = TENDENCY_OUT_CH * nlev;
        for bi in 0..batch {
            let xi = Tensor::from_vec(
                data[bi * per..(bi + 1) * per].to_vec(),
                &[1, TENDENCY_IN_CH, nlev],
            );
            let yi = net.forward(&xi);
            prop_assert_eq!(
                bits(&yb.data[bi * out..(bi + 1) * out]),
                bits(&yi.data),
                "cnn sample {} of {}", bi, batch
            );
        }
    }

    #[test]
    fn mlp_batched_row_is_the_column_run_alone(
        batch in 1usize..=32,
        nlev in 4usize..=12,
        seed in 1u64..u64::MAX,
        scale in 0.1f64..4.0,
    ) {
        let mut net = RadiationMlp::with_width(nlev, 8, seed);
        let dim = RadiationMlp::input_dim(nlev);
        let data = fill(seed.wrapping_mul(2654435761), batch * dim, scale as f32);
        let x = Tensor::from_vec(data.clone(), &[batch, dim]);
        let yb = net.forward_batch(&x);
        prop_assert_eq!(yb.shape[0], batch);
        let out = yb.shape[1];

        for bi in 0..batch {
            let xi = Tensor::from_vec(data[bi * dim..(bi + 1) * dim].to_vec(), &[1, dim]);
            let yi = net.forward(&xi);
            prop_assert_eq!(
                bits(&yb.data[bi * out..(bi + 1) * out]),
                bits(&yi.data),
                "mlp sample {} of {}", bi, batch
            );
        }
    }
}
