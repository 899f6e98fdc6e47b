//! Inter-grid mapping (icosahedral ↔ tripolar), the coupler's spatial
//! interpolation. CESM precomputes mapping weight files; we build
//! inverse-distance weights over the `k` nearest source points, which is
//! what its bilinear maps reduce to on unstructured meshes.

use ap3esm_grid::sphere::Vec3;

/// Sparse interpolation matrix: for each destination point, up to `k`
/// `(source index, weight)` pairs with weights summing to 1.
#[derive(Debug, Clone, PartialEq)]
pub struct RemapMatrix {
    pub n_src: usize,
    pub n_dst: usize,
    pub weights: Vec<Vec<(usize, f64)>>,
}

impl RemapMatrix {
    /// Build an inverse-distance map from `src` to `dst` point clouds on
    /// the unit sphere using the `k` nearest sources per destination.
    ///
    /// Neighbor search uses a longitude-band index: O(n·√n)-ish, fine for
    /// the coupling grids we instantiate (≤ 10⁵ points in tests/examples).
    pub fn inverse_distance(src: &[Vec3], dst: &[Vec3], k: usize) -> Self {
        assert!(k >= 1 && !src.is_empty());
        // Sort sources into latitude bands for pruned search.
        let nbands = ((src.len() as f64).sqrt() as usize).clamp(1, 256);
        let mut bands: Vec<Vec<usize>> = vec![Vec::new(); nbands];
        let band_of = |p: &Vec3| -> usize {
            let t = (p.lat() / std::f64::consts::PI + 0.5).clamp(0.0, 1.0 - 1e-12);
            (t * nbands as f64) as usize
        };
        for (i, p) in src.iter().enumerate() {
            bands[band_of(p)].push(i);
        }
        let weights = dst
            .iter()
            .map(|d| {
                let b = band_of(d);
                // Expand the band window until we have at least k candidates.
                let mut candidates: Vec<usize> = Vec::new();
                let mut radius = 0usize;
                while candidates.len() < k.max(4) && radius <= nbands {
                    candidates.clear();
                    let lo = b.saturating_sub(radius);
                    let hi = (b + radius).min(nbands - 1);
                    for band in &bands[lo..=hi] {
                        candidates.extend_from_slice(band);
                    }
                    radius += 1;
                }
                let mut dists: Vec<(usize, f64)> = candidates
                    .iter()
                    .map(|&i| (i, d.arc_distance(src[i])))
                    .collect();
                dists.sort_by(|a, b| a.1.partial_cmp(&b.1).expect("finite distance"));
                dists.truncate(k);
                // Inverse-distance weights; exact hit takes everything.
                if dists[0].1 < 1e-12 {
                    vec![(dists[0].0, 1.0)]
                } else {
                    let inv: Vec<f64> = dists.iter().map(|(_, r)| 1.0 / r).collect();
                    let total: f64 = inv.iter().sum();
                    dists
                        .iter()
                        .zip(inv)
                        .map(|(&(i, _), w)| (i, w / total))
                        .collect()
                }
            })
            .collect();
        RemapMatrix {
            n_src: src.len(),
            n_dst: dst.len(),
            weights,
        }
    }

    /// Apply the map: `out[d] = Σ w·field[s]`.
    pub fn apply(&self, field: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.n_dst];
        self.apply_into(field, &mut out);
        out
    }

    /// [`apply`](RemapMatrix::apply) into a caller-owned buffer.
    pub fn apply_into(&self, field: &[f64], out: &mut [f64]) {
        assert_eq!(field.len(), self.n_src, "remap input length");
        assert_eq!(out.len(), self.n_dst, "remap output length");
        for (out, row) in out.iter_mut().zip(&self.weights) {
            *out = row.iter().map(|&(s, w)| w * field[s]).sum();
        }
    }

    /// Apply with a source validity mask (e.g. ocean-only SST): masked
    /// sources are dropped and the remaining weights renormalised; if no
    /// valid source contributes, `fallback` is used.
    pub fn apply_masked(&self, field: &[f64], valid: &[bool], fallback: f64) -> Vec<f64> {
        let mut out = vec![0.0; self.n_dst];
        self.apply_masked_into(field, valid, fallback, &mut out);
        out
    }

    /// [`apply_masked`](RemapMatrix::apply_masked) into a caller-owned
    /// buffer.
    pub fn apply_masked_into(&self, field: &[f64], valid: &[bool], fallback: f64, out: &mut [f64]) {
        assert_eq!(field.len(), self.n_src);
        assert_eq!(valid.len(), self.n_src);
        assert_eq!(out.len(), self.n_dst, "remap output length");
        for (out, row) in out.iter_mut().zip(&self.weights) {
            let mut num = 0.0;
            let mut den = 0.0;
            for &(s, w) in row {
                if valid[s] {
                    num += w * field[s];
                    den += w;
                }
            }
            *out = if den > 0.0 { num / den } else { fallback };
        }
    }

    /// Weight-sum check (≈1 everywhere for an interpolation matrix).
    pub fn max_weight_sum_error(&self) -> f64 {
        self.weights
            .iter()
            .map(|row| (row.iter().map(|&(_, w)| w).sum::<f64>() - 1.0).abs())
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fib_sphere(n: usize, offset: f64) -> Vec<Vec3> {
        let phi = std::f64::consts::PI * (3.0 - 5.0f64.sqrt());
        (0..n)
            .map(|i| {
                let y = 1.0 - 2.0 * (i as f64 + 0.5) / n as f64;
                let r = (1.0 - y * y).sqrt();
                let t = phi * i as f64 + offset;
                Vec3::new(r * t.cos(), y, r * t.sin())
            })
            .collect()
    }

    #[test]
    fn weights_sum_to_one() {
        let src = fib_sphere(500, 0.0);
        let dst = fib_sphere(300, 0.4);
        let m = RemapMatrix::inverse_distance(&src, &dst, 4);
        assert!(m.max_weight_sum_error() < 1e-12);
    }

    #[test]
    fn constant_field_maps_to_constant() {
        let src = fib_sphere(400, 0.0);
        let dst = fib_sphere(250, 1.0);
        let m = RemapMatrix::inverse_distance(&src, &dst, 4);
        let out = m.apply(&vec![5.5; 400]);
        assert!(out.iter().all(|&v| (v - 5.5).abs() < 1e-12));
    }

    #[test]
    fn smooth_field_maps_accurately() {
        let src = fib_sphere(2000, 0.0);
        let dst = fib_sphere(500, 0.7);
        let m = RemapMatrix::inverse_distance(&src, &dst, 4);
        // Smooth on the sphere: a low-order polynomial of the embedding
        // coordinates (lon-based fields are not smooth at the poles).
        let f = |p: &Vec3| p.z + 0.5 * p.x * p.y;
        let field: Vec<f64> = src.iter().map(f).collect();
        let out = m.apply(&field);
        for (d, got) in dst.iter().zip(&out) {
            assert!(
                (got - f(d)).abs() < 0.08,
                "remap error {} at lat {}",
                (got - f(d)).abs(),
                d.lat()
            );
        }
    }

    #[test]
    fn exact_hit_takes_identity() {
        let src = fib_sphere(100, 0.0);
        let dst = vec![src[17]];
        let m = RemapMatrix::inverse_distance(&src, &dst, 4);
        let field: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(m.apply(&field)[0], 17.0);
    }

    #[test]
    fn masked_apply_ignores_invalid_sources() {
        let src = fib_sphere(200, 0.0);
        let dst = fib_sphere(50, 0.3);
        let m = RemapMatrix::inverse_distance(&src, &dst, 4);
        // Half the sources are "land" carrying a poison value.
        let mut field = vec![10.0; 200];
        let mut valid = vec![true; 200];
        for i in 0..200 {
            if i % 2 == 0 {
                field[i] = 1e9;
                valid[i] = false;
            }
        }
        let out = m.apply_masked(&field, &valid, -999.0);
        for v in &out {
            assert!(*v == -999.0 || (*v - 10.0).abs() < 1e-9, "leak: {v}");
        }
        // Most destinations should find at least one valid neighbor.
        let ok = out.iter().filter(|&&v| (v - 10.0).abs() < 1e-9).count();
        assert!(ok > 25, "only {ok} valid remaps");
    }
}
