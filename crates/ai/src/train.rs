//! Training harness implementing the paper's protocol (§5.2.1): training
//! data from high-resolution model output, a 7:1 train:test partition, and
//! three random time steps per day held out as a validation subset.

use crate::net::TendencyCnn;
use crate::optim::Adam;
use crate::tensor::Tensor;

/// Deterministic split of sample indices into train/test with ratio 7:1
/// (every 8th sample is test), mirroring "a 7:1 training:test partition".
pub fn train_test_split(nsamples: usize) -> (Vec<usize>, Vec<usize>) {
    let mut train = Vec::new();
    let mut test = Vec::new();
    for i in 0..nsamples {
        if i % 8 == 7 {
            test.push(i);
        } else {
            train.push(i);
        }
    }
    (train, test)
}

/// Pick `per_day` pseudo-random steps from each day for validation
/// ("extract three random time steps per day as a validation subset").
/// Deterministic in `seed`.
pub fn validation_steps(days: usize, steps_per_day: usize, per_day: usize, seed: u64) -> Vec<usize> {
    let mut out = Vec::with_capacity(days * per_day);
    let mut state = seed | 1;
    for d in 0..days {
        let mut chosen = std::collections::BTreeSet::new();
        while chosen.len() < per_day.min(steps_per_day) {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            let s = (state.wrapping_mul(0x2545_F491_4F6C_DD1D) as usize) % steps_per_day;
            chosen.insert(d * steps_per_day + s);
        }
        out.extend(chosen);
    }
    out
}

/// Training configuration.
#[derive(Debug, Clone)]
pub struct TrainConfig {
    pub epochs: usize,
    pub batch_size: usize,
    pub lr: f32,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            epochs: 20,
            batch_size: 16,
            lr: 1e-3,
        }
    }
}

/// Per-epoch record for convergence reporting.
#[derive(Debug, Clone, Copy)]
pub struct EpochStats {
    pub epoch: usize,
    pub train_mse: f32,
    pub test_mse: f32,
}

/// Trains a [`TendencyCnn`] on (input, target) column pairs.
pub struct Trainer {
    pub config: TrainConfig,
}

impl Trainer {
    pub fn new(config: TrainConfig) -> Self {
        Trainer { config }
    }

    /// `inputs[i]`: `[5, nlev]` flattened; `targets[i]`: `[4, nlev]`
    /// flattened. Returns per-epoch train/test MSE.
    pub fn train_cnn(
        &self,
        net: &mut TendencyCnn,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
    ) -> Vec<EpochStats> {
        assert_eq!(inputs.len(), targets.len());
        assert!(!inputs.is_empty());
        let nlev = net.nlev;
        let (train_idx, test_idx) = train_test_split(inputs.len());
        let mut opt = Adam::new(self.config.lr);
        let mut stats = Vec::with_capacity(self.config.epochs);
        for epoch in 0..self.config.epochs {
            let mut train_mse = 0.0;
            let mut batches = 0;
            for chunk in train_idx.chunks(self.config.batch_size) {
                let (x, y) = Self::collect_batch(inputs, targets, chunk, nlev);
                let pred = net.forward(&x);
                train_mse += pred.mse(&y);
                batches += 1;
                // dL/dpred for MSE = 2(pred − y)/n
                let n = pred.len() as f32;
                let dy = Tensor {
                    data: pred
                        .data
                        .iter()
                        .zip(&y.data)
                        .map(|(p, t)| 2.0 * (p - t) / n)
                        .collect(),
                    shape: pred.shape.clone(),
                };
                net.zero_grad();
                net.backward(&dy);
                opt.step(&mut net.params_mut());
            }
            let test_mse = self.evaluate_cnn(net, inputs, targets, &test_idx);
            stats.push(EpochStats {
                epoch,
                train_mse: train_mse / batches.max(1) as f32,
                test_mse,
            });
        }
        stats
    }

    /// MSE of the network over the given sample indices.
    pub fn evaluate_cnn(
        &self,
        net: &TendencyCnn,
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
        idx: &[usize],
    ) -> f32 {
        if idx.is_empty() {
            return 0.0;
        }
        let nlev = net.nlev;
        let mut total = 0.0;
        for chunk in idx.chunks(self.config.batch_size) {
            let (x, y) = Self::collect_batch(inputs, targets, chunk, nlev);
            let pred = net.forward_batch(&x);
            total += pred.mse(&y) * chunk.len() as f32;
        }
        total / idx.len() as f32
    }

    fn collect_batch(
        inputs: &[Vec<f32>],
        targets: &[Vec<f32>],
        idx: &[usize],
        nlev: usize,
    ) -> (Tensor, Tensor) {
        let b = idx.len();
        let mut x = Vec::with_capacity(b * 5 * nlev);
        let mut y = Vec::with_capacity(b * 4 * nlev);
        for &i in idx {
            assert_eq!(inputs[i].len(), 5 * nlev, "input sample size");
            assert_eq!(targets[i].len(), 4 * nlev, "target sample size");
            x.extend_from_slice(&inputs[i]);
            y.extend_from_slice(&targets[i]);
        }
        (
            Tensor::from_vec(x, &[b, 5, nlev]),
            Tensor::from_vec(y, &[b, 4, nlev]),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn split_is_seven_to_one() {
        let (train, test) = train_test_split(800);
        assert_eq!(train.len(), 700);
        assert_eq!(test.len(), 100);
        // Disjoint and complete.
        let mut all: Vec<usize> = train.iter().chain(test.iter()).copied().collect();
        all.sort();
        assert_eq!(all, (0..800).collect::<Vec<_>>());
    }

    #[test]
    fn validation_steps_three_per_day() {
        let v = validation_steps(80, 24, 3, 99);
        assert_eq!(v.len(), 240);
        // Every step belongs to its day's range and days are distinct.
        for (i, &s) in v.iter().enumerate() {
            let day = i / 3;
            assert!(s >= day * 24 && s < (day + 1) * 24);
        }
        // Deterministic.
        assert_eq!(v, validation_steps(80, 24, 3, 99));
        assert_ne!(v, validation_steps(80, 24, 3, 100));
    }

    #[test]
    fn training_reduces_loss_on_learnable_map() {
        // Target: a fixed linear map of the input profiles — learnable by
        // the CNN. Loss must drop substantially.
        let nlev = 8;
        let nsamples = 64;
        let mut inputs = Vec::new();
        let mut targets = Vec::new();
        let mut state = 12345u64;
        let mut rnd = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 40) as f32 / 16777216.0 - 0.5
        };
        for _ in 0..nsamples {
            let x: Vec<f32> = (0..5 * nlev).map(|_| rnd()).collect();
            // target channel c = 0.5*x[c] − 0.25*x[c+1]
            let mut y = vec![0.0f32; 4 * nlev];
            for c in 0..4 {
                for l in 0..nlev {
                    y[c * nlev + l] = 0.5 * x[c * nlev + l] - 0.25 * x[(c + 1) * nlev + l];
                }
            }
            inputs.push(x);
            targets.push(y);
        }
        let mut net = TendencyCnn::with_width(nlev, 8, 5);
        let trainer = Trainer::new(TrainConfig {
            epochs: 30,
            batch_size: 8,
            lr: 3e-3,
        });
        let stats = trainer.train_cnn(&mut net, &inputs, &targets);
        let first = stats.first().unwrap().train_mse;
        let last = stats.last().unwrap().train_mse;
        assert!(
            last < first * 0.2,
            "loss did not drop: {first} -> {last}"
        );
        // Generalisation: test error also improved.
        assert!(stats.last().unwrap().test_mse < stats.first().unwrap().test_mse);
    }
}
