//! The tolerance harness: how a golden that pins an earlier commit's bits
//! follows a change that is allowed to round differently.
//!
//! A golden is an FNV-1a hash of the bit patterns of everything a test
//! produces, so any change of rounding moves it. A change that may round
//! differently re-records the hash through [`Golden`], in the same commit as
//! (1) the parent commit's values of every field, recorded before the first
//! edit, and (2) a bound per field, relative to the field's largest parent
//! magnitude and written before the change was measured. The check passes
//! when every field is within its bound of the parent and the new values hash
//! to the new golden, so the next change is gated bit for bit again.

/// FNV-1a offset basis: the hash of nothing.
const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Fold `bytes` into an FNV-1a hash.
fn fnv1a_bytes(hash: &mut u64, bytes: &[u8]) {
    for &byte in bytes {
        *hash ^= u64::from(byte);
        *hash = hash.wrapping_mul(FNV_PRIME);
    }
}

/// Fold the bit patterns of `values` (little-endian) into an FNV-1a hash:
/// the one hash every golden is.
fn fnv1a(hash: &mut u64, values: &[f64]) {
    for v in values {
        fnv1a_bytes(hash, &v.to_bits().to_le_bytes());
    }
}

/// One field's movement against its parent.
#[derive(Debug, Clone)]
struct Movement {
    name: String,
    /// Largest |got − parent| over the field (NaN if any value is).
    worst: f64,
    /// The unit `bound` is a multiple of.
    scale: f64,
    bound: f64,
    /// Where `worst` is; a length mismatch is reported instead.
    at: Result<usize, (usize, usize)>,
}

impl Movement {
    fn holds(&self) -> bool {
        self.at.is_ok() && self.worst <= self.bound * self.scale
    }
}

/// A golden under re-recording: fields bounded against their parent values,
/// and the hash of everything folded in.
#[derive(Debug, Clone)]
pub struct Golden {
    hash: u64,
    fields: Vec<Movement>,
}

impl Default for Golden {
    fn default() -> Self {
        Self::new()
    }
}

impl Golden {
    pub fn new() -> Self {
        Golden {
            hash: FNV_OFFSET,
            fields: Vec::new(),
        }
    }

    /// `got` must be within `bound` × the largest |parent| of `parent`, value
    /// by value; `got` is folded into the hash.
    pub fn field(&mut self, name: &str, got: &[f64], parent: &[f64], bound: f64) -> &mut Self {
        let scale = parent.iter().fold(0.0f64, |m, p| m.max(p.abs()));
        self.field_at(name, got, parent, bound, scale)
    }

    /// [`Golden::field`] with the unit of the bound given: for a field that
    /// is itself a round-off residual (a conservation drift, a mean anomaly),
    /// whose own magnitude is no scale for its movement.
    pub fn field_at(
        &mut self,
        name: &str,
        got: &[f64],
        parent: &[f64],
        bound: f64,
        scale: f64,
    ) -> &mut Self {
        let mut worst = 0.0f64;
        let mut at = 0;
        for (i, (g, p)) in got.iter().zip(parent).enumerate() {
            let d = (g - p).abs();
            if d.is_nan() || d > worst {
                (worst, at) = (d, i);
                if d.is_nan() {
                    break;
                }
            }
        }
        let at = if got.len() == parent.len() {
            Ok(at)
        } else {
            Err((got.len(), parent.len()))
        };
        self.fields.push(Movement {
            name: name.to_string(),
            worst,
            scale,
            bound,
            at,
        });
        self.pin(got)
    }

    /// Fold values that have no parent reference (exact by construction, or
    /// pinned by another test) into the hash.
    pub fn pin(&mut self, values: &[f64]) -> &mut Self {
        fnv1a(&mut self.hash, values);
        self
    }

    /// Fold bytes (a series name) into the hash.
    pub fn pin_bytes(&mut self, bytes: &[u8]) -> &mut Self {
        fnv1a_bytes(&mut self.hash, bytes);
        self
    }

    /// The hash of everything folded in so far.
    pub fn hash(&self) -> u64 {
        self.hash
    }

    /// One line per field: its largest movement in units of its scale,
    /// against its bound.
    pub fn report(&self) -> String {
        let mut out = String::new();
        for m in &self.fields {
            // An all-zero parent field has no scale: its movement is absolute.
            let moved = if m.scale > 0.0 {
                m.worst / m.scale
            } else {
                m.worst
            };
            let line = match m.at {
                Ok(at) => format!(
                    "{}: moved {moved:.3e} of {:.6e} (at {at}), bound {:.1e}{}\n",
                    m.name,
                    m.scale,
                    m.bound,
                    if m.holds() { "" } else { "  <-- over" }
                ),
                Err((got, parent)) => {
                    format!(
                        "{}: {got} values against the parent's {parent}  <-- over\n",
                        m.name
                    )
                }
            };
            out.push_str(&line);
        }
        out
    }

    /// `Ok` when every field holds its bound and the hash is `want`; else
    /// the report and the hash got.
    pub fn check(&self, want: u64) -> Result<(), String> {
        if self.fields.iter().all(Movement::holds) && self.hash == want {
            Ok(())
        } else {
            Err(format!(
                "{}hash {:#018x}, golden {want:#018x}",
                self.report(),
                self.hash
            ))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hash_of(values: &[f64]) -> u64 {
        let mut hash = FNV_OFFSET;
        fnv1a(&mut hash, values);
        hash
    }

    #[test]
    fn fnv1a_of_known_input() {
        // FNV-1a of the empty input is the offset; of one zero byte, the
        // published 0xaf63bd4c8601b7df.
        assert_eq!(hash_of(&[]), FNV_OFFSET);
        let mut hash = FNV_OFFSET;
        fnv1a_bytes(&mut hash, &[0]);
        assert_eq!(hash, 0xaf63_bd4c_8601_b7df);
    }

    #[test]
    fn bounded_movement_passes_with_the_new_hash_only() {
        let parent = [10.0, -20.0, 5.0];
        let got = [10.0, -20.0 + 1e-11, 5.0];
        let mut golden = Golden::new();
        golden.field("x", &got, &parent, 1e-12);
        assert_eq!(golden.hash(), hash_of(&got));
        assert!(golden.check(hash_of(&got)).is_ok(), "{}", golden.report());
        assert!(golden.check(hash_of(&parent)).is_err());
    }

    #[test]
    fn movement_over_the_bound_fails_and_names_the_field() {
        let mut golden = Golden::new();
        golden.field("theta", &[1.0, 2.0 + 1e-9], &[1.0, 2.0], 1e-12);
        let err = golden.check(golden.hash()).unwrap_err();
        assert!(
            err.contains("theta") && err.contains("(at 1)") && err.contains("over"),
            "{err}"
        );
    }

    #[test]
    fn nan_length_and_zero_scale() {
        let mut golden = Golden::new();
        golden.field("nan", &[1.0, f64::NAN, 1.0], &[1.0, 1.0, 1.0], 1.0);
        assert!(golden.check(golden.hash()).is_err());
        let mut golden = Golden::new();
        golden.field("short", &[1.0], &[1.0, 1.0], 1.0);
        assert!(golden.check(golden.hash()).is_err());
        // An all-zero parent field allows no movement at all, unless a
        // scale is given.
        let mut golden = Golden::new();
        golden.field("zero", &[1e-300], &[0.0], 1.0);
        assert!(golden.check(golden.hash()).is_err());
        let mut golden = Golden::new();
        golden.field_at("residual", &[3e-19], &[-6e-19], 1e-12, 1.0);
        assert!(golden.check(golden.hash()).is_ok());
    }
}
