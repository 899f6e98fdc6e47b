//! State-health guards, checkpoint management, and recovery policy for the
//! coupled driver.
//!
//! A kilometer-scale coupled run on a heterogeneous machine has three
//! failure classes this module addresses:
//!
//! 1. **Silent state corruption** — a NaN escaping a kernel, a CFL blow-up,
//!    or a drifting mass budget. [`AtmGuard`] / [`OcnGuard`] scan the
//!    prognostic state each coupling step and classify it as
//!    [`HealthVerdict::Healthy`], `Degraded` (suspicious but integrable) or
//!    `Fatal` (rollback required).
//! 2. **Lost work on rank failure** — [`CheckpointStore`] manages periodic
//!    on-disk checkpoints written through the bit-exact restart path, with
//!    a commit marker protocol (a checkpoint without its `COMMIT` file is
//!    never restored) and bounded retention.
//! 3. **Damaged checkpoints** — every sub-file carries payload and header
//!    CRC-32s (see `ap3esm-io`), so a corrupted checkpoint is detected at
//!    restore time; the store then falls back to the previous committed
//!    checkpoint ([`CheckpointStore::invalidate`]).
//!
//! [`RecoveryConfig`] bounds the whole loop: how often to checkpoint and how
//! many rollbacks to attempt before declaring a [`RecoveryFailure`]. What no
//! caller ever set is a constant here: the guard envelopes, the shrink
//! budget, and the retry schedule of transient checkpoint I/O
//! ([`with_retry`]).

use std::fmt;
use std::path::{Path, PathBuf};
use std::time::Duration;

use ap3esm_atm::state::AtmState;
use ap3esm_io::subfile::subfile_path;
use ap3esm_io::IoError;
use ap3esm_ocn::state::OcnState;

use crate::restart::ocn_fields;

/// Classification of one component's state at a coupling boundary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum HealthVerdict {
    /// All checks passed.
    Healthy,
    /// Suspicious (soft bound exceeded) but still integrable; logged, no
    /// rollback.
    Degraded(String),
    /// Non-finite values or hard bound violation; the trajectory is lost
    /// and must be rolled back.
    Fatal(String),
}

impl HealthVerdict {
    /// Severity as an ordinal for cross-rank max-reduction: every rank
    /// contributes its verdict and the reduced maximum decides the global
    /// action (any Fatal anywhere → global rollback).
    pub fn severity(&self) -> f64 {
        match self {
            HealthVerdict::Healthy => 0.0,
            HealthVerdict::Degraded(_) => 1.0,
            HealthVerdict::Fatal(_) => 2.0,
        }
    }

    /// Is this verdict fatal (rollback required)?
    pub fn is_fatal(&self) -> bool {
        matches!(self, HealthVerdict::Fatal(_))
    }

    /// The worse of two verdicts (keeps the message of the worse one).
    pub fn worst(self, other: HealthVerdict) -> HealthVerdict {
        if other.severity() > self.severity() {
            other
        } else {
            self
        }
    }
}

impl fmt::Display for HealthVerdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthVerdict::Healthy => write!(f, "healthy"),
            HealthVerdict::Degraded(m) => write!(f, "degraded: {m}"),
            HealthVerdict::Fatal(m) => write!(f, "fatal: {m}"),
        }
    }
}

// Bounds used by the state-health guards: generous physical envelopes —
// anything outside them is unphysical at any resolution, not a tuning
// choice, so they are constants and not options.

/// Hard potential-temperature bounds (K).
const THETA_BOUNDS: (f64, f64) = (150.0, 600.0);
/// Hard surface-pressure bounds (Pa).
const PS_BOUNDS: (f64, f64) = (30_000.0, 120_000.0);
/// Advective CFL number above which the atmosphere is fatal.
const ATM_CFL_FATAL: f64 = 2.0;
/// CFL number above which the atmosphere is degraded.
const ATM_CFL_SOFT: f64 = 1.0;
/// Relative dry-mass drift (vs. the guard's reference) beyond which the
/// budget is degraded — mass is conserved analytically, so drift is an
/// integration-error alarm.
const MASS_DRIFT_SOFT: f64 = 1e-9;
/// Relative dry-mass drift beyond which the budget is fatal.
const MASS_DRIFT_FATAL: f64 = 1e-3;
/// Hard sea-surface-height bound (m).
const ETA_LIMIT: f64 = 20.0;
/// Hard ocean temperature bounds (°C).
const SST_BOUNDS: (f64, f64) = (-5.0, 60.0);
/// Barotropic CFL number above which the ocean is fatal.
const OCN_CFL_FATAL: f64 = 2.0;
/// CFL number above which the ocean is degraded.
const OCN_CFL_SOFT: f64 = 1.0;

/// Returns the index and value of the first non-finite entry, if any.
fn first_nonfinite(data: &[f64]) -> Option<(usize, f64)> {
    data.iter()
        .enumerate()
        .find(|(_, v)| !v.is_finite())
        .map(|(i, v)| (i, *v))
}

/// Where flat index `i` of a field of `len` entries sits: `[i]` in a
/// one-level field of `slab` entries, `[level][i]` in a level-major one.
fn at(i: usize, slab: usize, len: usize) -> String {
    if len == slab {
        format!("[{i}]")
    } else {
        format!("[{}][{}]", i / slab, i % slab)
    }
}

/// Atmosphere state-health guard. Captures the dry-mass reference at
/// construction so the energy/mass-budget check measures drift, not an
/// absolute threshold.
#[derive(Debug, Clone)]
pub struct AtmGuard {
    /// Reference dry mass (∝ Σ ps·area) at guard creation.
    mass0: f64,
    /// Dynamics substep (s) for the CFL number.
    dt_dyn: f64,
    /// Representative grid spacing (m) for the CFL number.
    dx_m: f64,
}

impl AtmGuard {
    pub fn new(state: &AtmState, dt_dyn: f64) -> Self {
        let dx_m = state.grid.mean_spacing_km() * 1000.0;
        AtmGuard {
            mass0: state.total_mass(),
            dt_dyn,
            dx_m,
        }
    }

    /// Re-capture the mass reference (after an accepted rollback the
    /// restored state becomes the new budget baseline).
    pub fn rebase(&mut self, state: &AtmState) {
        self.mass0 = state.total_mass();
    }

    /// Scan the full prognostic state: non-finite values, hard physical
    /// bounds, advective CFL, and dry-mass budget drift.
    /// Messages name a 3-D entry `[level][cell]` (`[level][edge]` for `un`).
    pub fn check(&self, state: &AtmState) -> HealthVerdict {
        let (n, ne) = (state.ncells(), state.nedges());
        for (name, field, slab) in [
            ("ps", &state.ps, n),
            ("theta", &state.theta, n),
            ("q", &state.q, n),
            ("un", &state.un, ne),
            ("precip_accum", &state.precip_accum, n),
        ] {
            if let Some((i, v)) = first_nonfinite(field) {
                return HealthVerdict::Fatal(format!(
                    "atm {name}{} = {v}",
                    at(i, slab, field.len())
                ));
            }
        }
        for (i, &ps) in state.ps.iter().enumerate() {
            if !(PS_BOUNDS.0..=PS_BOUNDS.1).contains(&ps) {
                return HealthVerdict::Fatal(format!("atm ps[{i}] = {ps} Pa out of bounds"));
            }
        }
        for (i, &th) in state.theta.iter().enumerate() {
            if !(THETA_BOUNDS.0..=THETA_BOUNDS.1).contains(&th) {
                return HealthVerdict::Fatal(format!(
                    "atm theta{} = {th} K out of bounds",
                    at(i, n, state.theta.len())
                ));
            }
        }
        let cfl = state.max_wind() * self.dt_dyn / self.dx_m;
        if cfl > ATM_CFL_FATAL {
            return HealthVerdict::Fatal(format!("atm CFL {cfl:.3} > {ATM_CFL_FATAL}"));
        }
        let drift = ((state.total_mass() - self.mass0) / self.mass0).abs();
        if drift > MASS_DRIFT_FATAL {
            return HealthVerdict::Fatal(format!("atm dry-mass drift {drift:.3e}"));
        }
        let mut verdict = HealthVerdict::Healthy;
        if cfl > ATM_CFL_SOFT {
            verdict = verdict.worst(HealthVerdict::Degraded(format!("atm CFL {cfl:.3}")));
        }
        if drift > MASS_DRIFT_SOFT {
            verdict = verdict.worst(HealthVerdict::Degraded(format!(
                "atm dry-mass drift {drift:.3e}"
            )));
        }
        verdict
    }
}

/// Ocean state-health guard for one rank's slab.
#[derive(Debug, Clone)]
pub struct OcnGuard {
    /// Barotropic substep (s) for the CFL number.
    dt_barotropic: f64,
    /// Smallest zonal spacing (m) on this slab.
    dx_min: f64,
}

impl OcnGuard {
    pub fn new(state: &OcnState, dt_barotropic: f64) -> Self {
        let dx_min = state
            .dx
            .iter()
            .copied()
            .filter(|d| *d > 0.0)
            .fold(f64::INFINITY, f64::min)
            .min(state.dy);
        OcnGuard {
            dt_barotropic,
            dx_min,
        }
    }

    /// Scan this rank's slab: non-finite values anywhere, sea-surface
    /// height and temperature envelopes, barotropic CFL.
    pub fn check(&self, state: &OcnState) -> HealthVerdict {
        let slab = state.eta.len();
        for (name, field) in ocn_fields(state) {
            if let Some((i, v)) = first_nonfinite(field) {
                return HealthVerdict::Fatal(format!(
                    "ocn {name}{} = {v}",
                    at(i, slab, field.len())
                ));
            }
        }
        for (i, &eta) in state.eta.iter().enumerate() {
            if eta.abs() > ETA_LIMIT {
                return HealthVerdict::Fatal(format!("ocn eta[{i}] = {eta} m out of bounds"));
            }
        }
        for &(i, j) in &state.active_columns() {
            let t = state.t[state.at(i, j)];
            if !(SST_BOUNDS.0..=SST_BOUNDS.1).contains(&t) {
                return HealthVerdict::Fatal(format!("ocn sst({i},{j}) = {t} °C out of bounds"));
            }
        }
        let vmax = state
            .surface_speed()
            .into_iter()
            .fold(0.0f64, f64::max);
        let cfl = vmax * self.dt_barotropic / self.dx_min;
        if cfl > OCN_CFL_FATAL {
            return HealthVerdict::Fatal(format!("ocn CFL {cfl:.3} > {OCN_CFL_FATAL}"));
        }
        if cfl > OCN_CFL_SOFT {
            return HealthVerdict::Degraded(format!("ocn CFL {cfl:.3}"));
        }
        HealthVerdict::Healthy
    }
}

/// Policy knobs for checkpointing and automatic recovery.
#[derive(Debug, Clone)]
pub struct RecoveryConfig {
    /// Write a checkpoint every this many ocean coupling events.
    pub checkpoint_interval: usize,
    /// How many checkpoints to retain (older ones are pruned; > 1 gives a
    /// fallback when the latest checkpoint is itself damaged).
    pub keep_checkpoints: usize,
    /// Rollbacks allowed before the run fails with [`RecoveryFailure`].
    pub max_recoveries: usize,
}

impl Default for RecoveryConfig {
    fn default() -> Self {
        RecoveryConfig {
            checkpoint_interval: 2,
            keep_checkpoints: 2,
            max_recoveries: 3,
        }
    }
}

/// The run exhausted `max_recoveries` (or had no checkpoint to roll back
/// to) — the structured "clean failure" the driver returns instead of a
/// panic or a hang.
#[derive(Debug, Clone)]
pub struct RecoveryFailure {
    /// Rollbacks attempted before giving up.
    pub recoveries_attempted: usize,
    /// The condition that exhausted the budget.
    pub reason: String,
}

impl fmt::Display for RecoveryFailure {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "recovery budget exhausted after {} rollback(s): {}",
            self.recoveries_attempted, self.reason
        )
    }
}

impl std::error::Error for RecoveryFailure {}

/// Shrink-to-fit world reconstructions allowed after permanent rank loss
/// before the run fails with [`RecoveryFailure`] (each shrink loses
/// resolution of the process mesh; at some point continuing degrades the
/// science more than stopping does).
pub(crate) const MAX_SHRINKS: usize = 1;

/// Retries the driver gives a transient checkpoint-I/O operation.
pub(crate) const IO_RETRIES: u32 = 3;

/// Base backoff between those retries (grows exponentially with the
/// attempt, capped, with deterministic seeded jitter — see [`retry_delay`]).
pub(crate) const IO_BACKOFF: Duration = Duration::from_millis(20);

/// Exponential growth cap: backoff never exceeds `base × 2^RETRY_CAP_DOUBLINGS`.
const RETRY_CAP_DOUBLINGS: u32 = 4;

/// splitmix64: a tiny, statistically solid mixer — the standard trick for
/// turning a seed into decorrelated per-draw values without carrying RNG
/// state around. The one copy: retry jitter, the θ perturbation
/// ([`Perturbation::noise`](crate::coupled::Perturbation::noise)) and the
/// scenario catalog's derived seeds all draw from it.
pub fn splitmix64(x: u64) -> u64 {
    let mut z = x.wrapping_add(SPLITMIX64_GAMMA);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The stream increment of splitmix64.
const SPLITMIX64_GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;

/// Draw `i` (0-based) of the splitmix64 stream seeded `seed`.
pub fn splitmix64_draw(seed: u64, i: u64) -> u64 {
    splitmix64(seed.wrapping_add(SPLITMIX64_GAMMA.wrapping_mul(i)))
}

/// FNV-1a of the retry label: a stable (cross-version, cross-run) seed so
/// jitter is reproducible for a given label without changing the
/// [`with_retry`] signature.
fn label_seed(label: &str) -> u64 {
    let mut h = 0xCBF2_9CE4_8422_2325u64;
    for b in label.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Backoff before retry `attempt` (1-based): capped exponential
/// `base × 2^(attempt−1)` (cap at `2^RETRY_CAP_DOUBLINGS` doublings) plus
/// deterministic jitter of up to half that span, drawn from
/// `splitmix64(seed, attempt)`. Distinct seeds (labels, ranks) spread
/// retry storms apart — thundering-herd safe — while the same seed
/// reproduces the exact schedule in tests.
pub fn retry_delay(base: Duration, attempt: u32, seed: u64) -> Duration {
    let doublings = attempt.saturating_sub(1).min(RETRY_CAP_DOUBLINGS);
    let exp = base * (1u32 << doublings);
    let frac = (splitmix64(seed.wrapping_add(attempt as u64)) >> 11) as f64
        / (1u64 << 53) as f64;
    exp + Duration::from_secs_f64(exp.as_secs_f64() * 0.5 * frac)
}

/// Retry `f` up to `retries` extra times with capped exponential backoff
/// and deterministic label-seeded jitter ([`retry_delay`]). Each retry is
/// recorded on the `resilience.retries` counter. Callers retrying the
/// same operation on many ranks should put the rank in the label so their
/// jitter decorrelates.
pub fn with_retry<T, E: fmt::Display>(
    label: &str,
    retries: u32,
    backoff: Duration,
    mut f: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let seed = label_seed(label);
    let mut attempt = 0u32;
    loop {
        match f() {
            Ok(v) => return Ok(v),
            Err(e) if attempt < retries => {
                attempt += 1;
                ap3esm_obs::counter_add("resilience.retries", 1);
                eprintln!("[resilience] retry {attempt}/{retries} of {label}: {e}");
                std::thread::sleep(retry_delay(backoff, attempt, seed));
            }
            Err(e) => return Err(e),
        }
    }
}

/// On-disk checkpoint directory manager with a commit-marker protocol.
///
/// Layout: `root/ckpt_<id>/` holds the restart sub-files of checkpoint
/// `id`; `root/ckpt_<id>/COMMIT` exists only once every rank's fields are
/// fully written. Restore only ever reads committed checkpoints, so a
/// crash mid-checkpoint can at worst waste one interval of work, never
/// restore a half-written state.
#[derive(Debug, Clone)]
pub struct CheckpointStore {
    root: PathBuf,
    keep: usize,
}

const COMMIT_MARKER: &str = "COMMIT";

impl CheckpointStore {
    pub fn new(root: impl Into<PathBuf>, keep: usize) -> Self {
        CheckpointStore {
            root: root.into(),
            keep: keep.max(1),
        }
    }

    /// Directory of checkpoint `id` (not necessarily existing/committed).
    pub fn dir(&self, id: u64) -> PathBuf {
        self.root.join(format!("ckpt_{id:08}"))
    }

    /// Remove every checkpoint — committed or partial — under the root.
    /// The driver calls this once on rank 0 at startup: checkpoint ids are
    /// ocean-coupling indices of *this* run, so state left behind by a
    /// previous run sharing the directory must never be restored (it would
    /// silently shadow this run's checkpoints and break the id ↔ time
    /// correspondence).
    pub fn reset(&self) -> Result<(), IoError> {
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return Ok(()); // nothing there yet
        };
        for entry in entries.flatten() {
            let stale = entry
                .file_name()
                .to_str()
                .is_some_and(|n| n.starts_with("ckpt_"));
            if stale {
                std::fs::remove_dir_all(entry.path())?;
            }
        }
        Ok(())
    }

    /// Start (or restart) checkpoint `id`: clears any partial previous
    /// attempt and returns the directory to write restart fields into.
    pub fn begin(&self, id: u64) -> Result<PathBuf, IoError> {
        let dir = self.dir(id);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(dir)
    }

    /// Mark checkpoint `id` complete and prune old checkpoints beyond the
    /// retention window.
    pub fn commit(&self, id: u64) -> Result<(), IoError> {
        std::fs::write(self.dir(id).join(COMMIT_MARKER), format!("{id}\n"))?;
        self.prune()?;
        Ok(())
    }

    /// Ascending ids of all committed checkpoints.
    pub fn committed(&self) -> Vec<u64> {
        let mut ids = Vec::new();
        let Ok(entries) = std::fs::read_dir(&self.root) else {
            return ids;
        };
        for entry in entries.flatten() {
            let name = entry.file_name();
            let Some(id) = name
                .to_str()
                .and_then(|n| n.strip_prefix("ckpt_"))
                .and_then(|n| n.parse::<u64>().ok())
            else {
                continue;
            };
            if entry.path().join(COMMIT_MARKER).exists() {
                ids.push(id);
            }
        }
        ids.sort_unstable();
        ids
    }

    /// Newest committed checkpoint, if any.
    pub fn latest(&self) -> Option<u64> {
        self.committed().into_iter().next_back()
    }

    /// Withdraw a checkpoint found damaged at restore time, so the next
    /// [`CheckpointStore::latest`] falls back to the previous one.
    pub fn invalidate(&self, id: u64) -> Result<(), IoError> {
        let marker = self.dir(id).join(COMMIT_MARKER);
        if marker.exists() {
            std::fs::remove_file(marker)?;
        }
        Ok(())
    }

    /// Delete all but the newest `keep` committed checkpoints.
    pub fn prune(&self) -> Result<(), IoError> {
        let ids = self.committed();
        if ids.len() > self.keep {
            for &id in &ids[..ids.len() - self.keep] {
                std::fs::remove_dir_all(self.dir(id))?;
            }
        }
        Ok(())
    }

    /// XOR `0xFF` into one byte of one sub-file of checkpoint `id` — the
    /// on-disk application of a `corrupt` fault-plan event. Returns
    /// `Ok(false)` if the target file or offset does not exist.
    pub fn corrupt_subfile_byte(
        &self,
        id: u64,
        field: &str,
        subfile: u32,
        byte: u64,
    ) -> Result<bool, IoError> {
        let path = subfile_path(&self.dir(id), field, subfile as usize);
        if !path.exists() {
            return Ok(false);
        }
        let mut bytes = std::fs::read(&path)?;
        let Some(slot) = bytes.get_mut(byte as usize) else {
            return Ok(false);
        };
        *slot ^= 0xFF;
        std::fs::write(&path, bytes)?;
        Ok(true)
    }

    /// Checkpoint root (for reporting).
    pub fn root(&self) -> &Path {
        &self.root
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_grid::GeodesicGrid;
    use ap3esm_io::subfile::{SubfileReader, SubfileWriter};
    use std::sync::Arc;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("ap3esm-resil-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn atm_state() -> AtmState {
        let grid = Arc::new(GeodesicGrid::new(2));
        AtmState::isothermal(grid, 3, 287.0)
    }

    #[test]
    fn healthy_state_passes_all_guards() {
        let state = atm_state();
        let guard = AtmGuard::new(&state, 30.0);
        assert_eq!(guard.check(&state), HealthVerdict::Healthy);
    }

    #[test]
    fn nan_poison_is_fatal() {
        let state = atm_state();
        let guard = AtmGuard::new(&state, 30.0);
        let mut poisoned = state.clone();
        poisoned.theta[7] = f64::NAN;
        assert!(guard.check(&poisoned).is_fatal());
        let mut inf = state.clone();
        inf.un[0] = f64::INFINITY;
        assert!(guard.check(&inf).is_fatal());
    }

    #[test]
    fn atm_guard_names_the_level_and_the_cell() {
        let state = atm_state();
        let guard = AtmGuard::new(&state, 30.0);
        let (n, ne) = (state.ncells(), state.nedges());
        let fatal = |s: &AtmState| match guard.check(s) {
            HealthVerdict::Fatal(m) => m,
            v => panic!("want fatal, got {v}"),
        };
        let mut nan = state.clone();
        nan.theta[2 * n + 17] = f64::NAN;
        assert_eq!(fatal(&nan), "atm theta[2][17] = NaN");
        let mut hot = state.clone();
        hot.theta[2 * n + 17] = 1.0e4;
        assert_eq!(fatal(&hot), "atm theta[2][17] = 10000 K out of bounds");
        let mut inf = state.clone();
        inf.un[ne + 5] = f64::INFINITY;
        assert_eq!(fatal(&inf), "atm un[1][5] = inf");
        let mut ps = state.clone();
        ps.ps[17] = f64::NAN;
        assert_eq!(fatal(&ps), "atm ps[17] = NaN");
    }

    #[test]
    fn mass_drift_degrades_then_kills() {
        let state = atm_state();
        let guard = AtmGuard::new(&state, 30.0);
        let mut drifted = state.clone();
        for ps in &mut drifted.ps {
            *ps *= 1.0 + 1e-6; // above soft (1e-9), below fatal (1e-3)
        }
        assert!(matches!(
            guard.check(&drifted),
            HealthVerdict::Degraded(_)
        ));
        let mut gone = state.clone();
        for ps in &mut gone.ps {
            *ps *= 1.01;
        }
        assert!(guard.check(&gone).is_fatal());
    }

    #[test]
    fn severity_orders_and_reduces() {
        let h = HealthVerdict::Healthy;
        let d = HealthVerdict::Degraded("x".into());
        let f = HealthVerdict::Fatal("y".into());
        assert!(h.severity() < d.severity() && d.severity() < f.severity());
        assert_eq!(h.clone().worst(f.clone()), f);
        assert_eq!(d.clone().worst(h), d);
    }

    #[test]
    fn checkpoint_commit_protocol_and_retention() {
        let root = tmpdir("store");
        let store = CheckpointStore::new(&root, 2);
        for id in [1u64, 2, 3] {
            let dir = store.begin(id).unwrap();
            std::fs::write(dir.join("payload"), b"x").unwrap();
            store.commit(id).unwrap();
        }
        // An uncommitted checkpoint is invisible.
        store.begin(4).unwrap();
        assert_eq!(store.committed(), vec![2, 3]); // 1 pruned (keep = 2)
        assert_eq!(store.latest(), Some(3));
        // Invalidation falls back to the previous committed checkpoint.
        store.invalidate(3).unwrap();
        assert_eq!(store.latest(), Some(2));
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn reset_clears_stale_checkpoints_from_previous_runs() {
        let root = tmpdir("reset");
        let store = CheckpointStore::new(&root, 2);
        store.begin(7).unwrap();
        store.commit(7).unwrap();
        store.begin(8).unwrap(); // partial, uncommitted
        std::fs::write(root.join("unrelated"), b"keep me").unwrap();
        store.reset().unwrap();
        assert_eq!(store.committed(), Vec::<u64>::new());
        assert!(!store.dir(7).exists());
        assert!(!store.dir(8).exists());
        assert!(root.join("unrelated").exists());
        // Resetting a not-yet-created root is fine.
        CheckpointStore::new(root.join("missing"), 2).reset().unwrap();
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn corruption_is_caught_by_subfile_crc() {
        let root = tmpdir("corrupt");
        let store = CheckpointStore::new(&root, 2);
        let dir = store.begin(5).unwrap();
        let data: Vec<f64> = (0..64).map(|i| i as f64 * 0.5).collect();
        SubfileWriter::new(&dir, "atm_theta", &[64], 4)
            .write_all(&data)
            .unwrap();
        store.commit(5).unwrap();
        assert!(SubfileReader::new(&dir, "atm_theta").verify().is_ok());
        // Flip one payload byte in sub-file 2.
        assert!(store
            .corrupt_subfile_byte(5, "atm_theta", 2, 80)
            .unwrap());
        assert!(SubfileReader::new(&dir, "atm_theta").verify().is_err());
        // Targeting a missing field is a no-op, not an error.
        assert!(!store.corrupt_subfile_byte(5, "nope", 0, 0).unwrap());
        std::fs::remove_dir_all(&root).unwrap();
    }

    #[test]
    fn retry_succeeds_after_transient_failures() {
        let mut calls = 0;
        let out = with_retry("test-op", 3, Duration::from_millis(1), || {
            calls += 1;
            if calls < 3 {
                Err("transient")
            } else {
                Ok(calls)
            }
        });
        assert_eq!(out, Ok(3));
        let out: Result<(), _> =
            with_retry("always-fails", 2, Duration::from_millis(1), || Err("nope"));
        assert_eq!(out, Err("nope"));
    }

    #[test]
    fn retry_delay_is_capped_exponential_with_deterministic_jitter() {
        let base = Duration::from_millis(20);
        // Reproducible: the same (base, attempt, seed) gives the same delay.
        assert_eq!(retry_delay(base, 1, 7), retry_delay(base, 1, 7));
        // Exponential envelope with ≤ 50% jitter on top.
        for attempt in 1..=8u32 {
            let d = retry_delay(base, attempt, 7);
            let doublings = (attempt - 1).min(RETRY_CAP_DOUBLINGS);
            let exp = base * (1 << doublings);
            assert!(d >= exp, "attempt {attempt}: {d:?} < envelope {exp:?}");
            assert!(
                d <= exp + exp / 2 + Duration::from_nanos(1),
                "attempt {attempt}: {d:?} beyond jitter span"
            );
        }
        // The cap holds: far attempts stop doubling.
        assert!(retry_delay(base, 30, 7) <= base * (1 << RETRY_CAP_DOUBLINGS) * 3 / 2);
        // Thundering-herd safety: different seeds give different jitter.
        assert_ne!(retry_delay(base, 2, 1), retry_delay(base, 2, 2));
        // And attempts draw fresh jitter, not a repeated offset.
        let j1 = retry_delay(base, 1, 9) - base;
        let j2 = retry_delay(base, 2, 9) - base * 2;
        assert_ne!(j1 * 2, j2);
    }
}
