//! Physics-facing wrappers: normalisation + the two AI modules with the
//! dycore-facing call signature of Fig. 4 — "this suite gets the input
//! variables from the dynamical core and returns full physical variables
//! back to the physics-dynamics coupling interface".

use crate::net::{RadiationMlp, TendencyCnn, TENDENCY_IN_CH, TENDENCY_OUT_CH};
use crate::tensor::Tensor;
use crate::train::{EpochStats, Trainer};

/// Per-channel standardisation (mean/std over the training set).
#[derive(Debug, Clone, PartialEq)]
pub struct Normalizer {
    pub mean: Vec<f32>,
    pub std: Vec<f32>,
}

impl Normalizer {
    /// Fit per-channel statistics from samples laid out `[channels × n]`
    /// per sample.
    pub fn fit(samples: &[Vec<f32>], channels: usize) -> Self {
        assert!(!samples.is_empty());
        let per_ch = samples[0].len() / channels;
        let mut mean = vec![0.0f64; channels];
        let mut count = 0usize;
        for s in samples {
            assert_eq!(s.len(), channels * per_ch);
            for c in 0..channels {
                for l in 0..per_ch {
                    mean[c] += s[c * per_ch + l] as f64;
                }
            }
            count += per_ch;
        }
        for m in &mut mean {
            *m /= count as f64;
        }
        let mut var = vec![0.0f64; channels];
        for s in samples {
            for c in 0..channels {
                for l in 0..per_ch {
                    let d = s[c * per_ch + l] as f64 - mean[c];
                    var[c] += d * d;
                }
            }
        }
        Normalizer {
            mean: mean.iter().map(|&m| m as f32).collect(),
            std: var
                .iter()
                .map(|&v| ((v / count as f64).sqrt().max(1e-8)) as f32)
                .collect(),
        }
    }

    pub fn normalize(&self, sample: &[f32], channels: usize) -> Vec<f32> {
        let per_ch = sample.len() / channels;
        let mut out = Vec::with_capacity(sample.len());
        for c in 0..channels {
            for l in 0..per_ch {
                out.push((sample[c * per_ch + l] - self.mean[c]) / self.std[c]);
            }
        }
        out
    }

    pub fn denormalize(&self, sample: &[f32], channels: usize) -> Vec<f32> {
        let per_ch = sample.len() / channels;
        let mut out = Vec::with_capacity(sample.len());
        for c in 0..channels {
            for l in 0..per_ch {
                out.push(sample[c * per_ch + l] * self.std[c] + self.mean[c]);
            }
        }
        out
    }
}

/// One atmospheric column's state handed to the AI suite: per-level U, V,
/// T, Q plus pressure P (all SI units, surface first).
#[derive(Debug, Clone)]
pub struct ColumnState {
    pub u: Vec<f64>,
    pub v: Vec<f64>,
    pub t: Vec<f64>,
    pub q: Vec<f64>,
    pub p: Vec<f64>,
}

impl ColumnState {
    pub fn nlev(&self) -> usize {
        self.u.len()
    }

    /// Flatten to the `[5, nlev]` FP32 layout the CNN consumes.
    pub fn to_input(&self) -> Vec<f32> {
        let n = self.nlev();
        assert!(
            self.v.len() == n && self.t.len() == n && self.q.len() == n && self.p.len() == n,
            "ragged column"
        );
        let mut x = Vec::with_capacity(5 * n);
        for src in [&self.u, &self.v, &self.t, &self.q, &self.p] {
            x.extend(src.iter().map(|&v| v as f32));
        }
        x
    }
}

/// Physics tendencies for one column (per level, per second).
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnTendency {
    pub du: Vec<f64>,
    pub dv: Vec<f64>,
    pub dt: Vec<f64>,
    pub dq: Vec<f64>,
}

impl ColumnTendency {
    pub fn from_output(out: &[f32], nlev: usize) -> Self {
        assert_eq!(out.len(), TENDENCY_OUT_CH * nlev);
        let grab = |c: usize| out[c * nlev..(c + 1) * nlev].iter().map(|&v| v as f64).collect();
        ColumnTendency {
            du: grab(0),
            dv: grab(1),
            dt: grab(2),
            dq: grab(3),
        }
    }

    pub fn zeros(nlev: usize) -> Self {
        ColumnTendency {
            du: vec![0.0; nlev],
            dv: vec![0.0; nlev],
            dt: vec![0.0; nlev],
            dq: vec![0.0; nlev],
        }
    }
}

/// The trained AI tendency module with its input/output normalisers.
pub struct TendencyModule {
    pub net: TendencyCnn,
    pub in_norm: Normalizer,
    pub out_norm: Normalizer,
}

impl TendencyModule {
    pub fn new(net: TendencyCnn, in_norm: Normalizer, out_norm: Normalizer) -> Self {
        assert_eq!(in_norm.mean.len(), TENDENCY_IN_CH);
        assert_eq!(out_norm.mean.len(), TENDENCY_OUT_CH);
        TendencyModule {
            net,
            in_norm,
            out_norm,
        }
    }

    /// Train `net` on supervision pairs in physical units (`inputs[i]`:
    /// `[5, nlev]` flattened, `targets[i]`: `[4, nlev]`) and wrap it with
    /// the normalisers fitted to them. Both sets are standardised in place,
    /// so the caller can go on to [`Trainer::evaluate_cnn`] the returned
    /// module's `net` on them; the per-epoch statistics are
    /// [`Trainer::train_cnn`]'s.
    pub fn fit(
        mut net: TendencyCnn,
        inputs: &mut [Vec<f32>],
        targets: &mut [Vec<f32>],
        trainer: &Trainer,
    ) -> (Self, Vec<EpochStats>) {
        let standardise = |set: &mut [Vec<f32>], channels: usize| {
            let norm = Normalizer::fit(set, channels);
            for sample in set.iter_mut() {
                *sample = norm.normalize(sample, channels);
            }
            norm
        };
        let in_norm = standardise(inputs, TENDENCY_IN_CH);
        let out_norm = standardise(targets, TENDENCY_OUT_CH);
        let stats = trainer.train_cnn(&mut net, inputs, targets);
        (TendencyModule::new(net, in_norm, out_norm), stats)
    }

    /// Predict tendencies for a batch of columns: normalisation plus one
    /// batched forward ([`TendencyCnn::forward_batch`]) by shared reference
    /// — what the coupled model's AI suite and every serving thread call,
    /// concurrently if they like, on one warm module.
    pub fn predict_batch(&self, columns: &[ColumnState]) -> Vec<ColumnTendency> {
        if columns.is_empty() {
            return Vec::new();
        }
        let nlev = self.net.nlev;
        let b = columns.len();
        let mut x = Vec::with_capacity(b * TENDENCY_IN_CH * nlev);
        for col in columns {
            assert_eq!(col.nlev(), nlev, "column level mismatch");
            x.extend(self.in_norm.normalize(&col.to_input(), TENDENCY_IN_CH));
        }
        let xt = Tensor::from_vec(x, &[b, TENDENCY_IN_CH, nlev]);
        let y = self.net.forward_batch(&xt);
        let per = TENDENCY_OUT_CH * nlev;
        (0..b)
            .map(|bi| {
                let raw = self
                    .out_norm
                    .denormalize(&y.data[bi * per..(bi + 1) * per], TENDENCY_OUT_CH);
                ColumnTendency::from_output(&raw, nlev)
            })
            .collect()
    }
}

/// Surface radiation estimates from the MLP module.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SurfaceRadiation {
    /// Surface downward shortwave flux (W/m²).
    pub gsw: f64,
    /// Surface downward longwave flux (W/m²).
    pub glw: f64,
}

/// The trained AI radiation diagnosis module.
pub struct RadiationModule {
    pub net: RadiationMlp,
    pub in_norm: Normalizer,
    pub out_norm: Normalizer,
}

impl RadiationModule {
    pub fn new(net: RadiationMlp, in_norm: Normalizer, out_norm: Normalizer) -> Self {
        RadiationModule {
            net,
            in_norm,
            out_norm,
        }
    }

    /// The stand-in the coupled model runs: an *untrained* MLP behind fixed
    /// normalisers — inputs scaled by 1/100, outputs spread around
    /// 200 ± 100 W/m² shortwave and 350 ± 50 W/m² longwave — so the fluxes
    /// are plausible in magnitude and carry no skill (ROADMAP item C).
    pub fn untrained(nlev: usize, width: usize, seed: u64) -> Self {
        RadiationModule::new(
            RadiationMlp::with_width(nlev, width, seed),
            Normalizer {
                mean: vec![0.0],
                std: vec![100.0],
            },
            Normalizer {
                mean: vec![200.0, 350.0],
                std: vec![100.0, 50.0],
            },
        )
    }

    /// Input vector: the column profiles plus skin temperature and cosine
    /// solar zenith angle (§5.2.1).
    pub fn build_input(col: &ColumnState, tskin: f64, coszr: f64) -> Vec<f32> {
        let mut x = col.to_input();
        x.push(tskin as f32);
        x.push(coszr as f32);
        x
    }

    /// Surface fluxes for a batch of [`RadiationModule::build_input`]
    /// vectors, by shared reference (see [`TendencyModule::predict_batch`]).
    pub fn predict_batch(&self, inputs: &[Vec<f32>]) -> Vec<SurfaceRadiation> {
        if inputs.is_empty() {
            return Vec::new();
        }
        let dim = inputs[0].len();
        let b = inputs.len();
        let mut x = Vec::with_capacity(b * dim);
        for s in inputs {
            assert_eq!(s.len(), dim);
            x.extend(self.in_norm.normalize(s, 1));
        }
        let xt = Tensor::from_vec(x, &[b, dim]);
        let y = self.net.forward_batch(&xt);
        (0..b)
            .map(|bi| {
                let raw = self.out_norm.denormalize(&y.data[bi * 2..bi * 2 + 2], 2);
                SurfaceRadiation {
                    gsw: raw[0] as f64,
                    glw: raw[1] as f64,
                }
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::net::TendencyCnn;

    #[test]
    fn normalizer_roundtrip() {
        let samples = vec![
            vec![1.0, 2.0, 10.0, 20.0], // 2 channels × 2 levels
            vec![3.0, 4.0, 30.0, 40.0],
        ];
        let n = Normalizer::fit(&samples, 2);
        let z = n.normalize(&samples[0], 2);
        let back = n.denormalize(&z, 2);
        for (a, b) in samples[0].iter().zip(&back) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn normalizer_standardises() {
        let samples = vec![vec![0.0, 10.0], vec![10.0, 0.0]];
        let n = Normalizer::fit(&samples, 1);
        assert!((n.mean[0] - 5.0).abs() < 1e-5);
        assert!((n.std[0] - 5.0).abs() < 1e-5);
    }

    #[test]
    fn column_to_input_layout() {
        let col = ColumnState {
            u: vec![1.0, 2.0],
            v: vec![3.0, 4.0],
            t: vec![5.0, 6.0],
            q: vec![7.0, 8.0],
            p: vec![9.0, 10.0],
        };
        assert_eq!(
            col.to_input(),
            vec![1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0]
        );
    }

    #[test]
    fn tendency_module_batch_predict_shapes() {
        let nlev = 6;
        let net = TendencyCnn::with_width(nlev, 4, 3);
        let in_norm = Normalizer {
            mean: vec![0.0; 5],
            std: vec![1.0; 5],
        };
        let out_norm = Normalizer {
            mean: vec![0.0; 4],
            std: vec![1.0; 4],
        };
        let module = TendencyModule::new(net, in_norm, out_norm);
        let col = ColumnState {
            u: vec![1.0; nlev],
            v: vec![0.5; nlev],
            t: vec![280.0; nlev],
            q: vec![0.01; nlev],
            p: vec![9.0e4; nlev],
        };
        let out = module.predict_batch(&[col.clone(), col]);
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].du.len(), nlev);
        assert_eq!(out[0].dq.len(), nlev);
        // Identical inputs → identical outputs.
        assert_eq!(out[0], out[1]);
    }

    #[test]
    fn radiation_module_predicts_two_fluxes() {
        let nlev = 4;
        let net = RadiationMlp::with_width(nlev, 8, 17);
        let dim = RadiationMlp::input_dim(nlev);
        let in_norm = Normalizer {
            mean: vec![0.0; 1],
            std: vec![1.0; 1],
        };
        let out_norm = Normalizer {
            mean: vec![100.0, 300.0],
            std: vec![50.0, 30.0],
        };
        let module = RadiationModule::new(net, in_norm, out_norm);
        let col = ColumnState {
            u: vec![0.0; nlev],
            v: vec![0.0; nlev],
            t: vec![280.0; nlev],
            q: vec![0.005; nlev],
            p: vec![9.0e4; nlev],
        };
        let x = RadiationModule::build_input(&col, 290.0, 0.7);
        assert_eq!(x.len(), dim);
        let out = module.predict_batch(&[x]);
        assert_eq!(out.len(), 1);
        assert!(out[0].gsw.is_finite() && out[0].glw.is_finite());
    }

    #[test]
    fn empty_batch_ok() {
        let net = TendencyCnn::with_width(4, 4, 1);
        let module = TendencyModule::new(
            net,
            Normalizer {
                mean: vec![0.0; 5],
                std: vec![1.0; 5],
            },
            Normalizer {
                mean: vec![0.0; 4],
                std: vec![1.0; 4],
            },
        );
        assert!(module.predict_batch(&[]).is_empty());
    }
}
