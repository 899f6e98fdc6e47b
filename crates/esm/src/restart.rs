//! Restart files through the sub-file parallel I/O layer (`ap3esm-io`).
//!
//! Km-scale state is exactly where the paper's I/O strategy matters;
//! restart write/read is the model-level exercise of it. Restarts are
//! **bit-exact**: a run that stops, writes, reloads, and continues
//! reproduces the uninterrupted run bitwise (tested).

use std::path::Path;

use ap3esm_atm::state::AtmState;
use ap3esm_grid::decomp::BlockDecomp2d;
use ap3esm_grid::tripolar::TripolarGrid;
use ap3esm_io::subfile::{SubfileReader, SubfileWriter};
use ap3esm_io::IoError;
use ap3esm_ocn::state::OcnState;

/// Number of sub-files per restart field (the §5.2.5 partitioning knob).
const RESTART_SUBFILES: usize = 4;

/// Read one named field and require its header dims to match `want`
/// exactly (trailing dims of 1 allowed) — a truncated or wrong-resolution
/// field is rejected as [`IoError::Inconsistent`] instead of silently
/// loaded.
fn read_checked(dir: &Path, name: &str, want: &[usize]) -> Result<Vec<f64>, IoError> {
    let (h, data) = SubfileReader::new(dir, name).read_all()?;
    let mut want3 = [1u64; 3];
    for (slot, &w) in want3.iter_mut().zip(want) {
        *slot = w as u64;
    }
    if h.dims != want3 {
        return Err(IoError::Inconsistent(format!(
            "{name}: restart dims {:?} do not match model dims {want3:?}",
            h.dims
        )));
    }
    let total: u64 = want3.iter().product();
    if data.len() as u64 != total {
        return Err(IoError::Inconsistent(format!(
            "{name}: {} elements, expected {total}",
            data.len()
        )));
    }
    Ok(data)
}

/// Write one auxiliary checkpoint field (a flat vector outside the
/// atmosphere/ocean restart sets: land, ice and coupler state).
pub(crate) fn write_aux(dir: &Path, name: &str, data: &[f64]) -> Result<(), IoError> {
    SubfileWriter::new(dir, name, &[data.len()], RESTART_SUBFILES).write_all(data)
}

/// Read one auxiliary checkpoint field, validating its length.
pub(crate) fn read_aux(dir: &Path, name: &str, want: usize) -> Result<Vec<f64>, IoError> {
    let (_, data) = SubfileReader::new(dir, name).read_all()?;
    if data.len() != want {
        return Err(IoError::Inconsistent(format!(
            "{name}: {} elements, expected {want}",
            data.len()
        )));
    }
    Ok(data)
}

/// Write an atmosphere restart: the prognostic fields ps, θ, q (cell
/// fields) and uₙ (edge field), plus the auxiliary surface fields
/// (precip_accum, gsw, glw) that feed land forcing and ocean fluxes — a
/// checkpoint that omits them is not trajectory-bit-exact.
pub fn write_atm_restart(dir: &Path, state: &AtmState) -> Result<(), IoError> {
    let n = state.ncells();
    let e = state.nedges();
    let nlev = state.nlev;
    SubfileWriter::new(dir, "atm_ps", &[n], RESTART_SUBFILES).write_all(&state.ps)?;
    SubfileWriter::new(dir, "atm_theta", &[nlev, n], RESTART_SUBFILES).write_all(&state.theta)?;
    SubfileWriter::new(dir, "atm_q", &[nlev, n], RESTART_SUBFILES).write_all(&state.q)?;
    SubfileWriter::new(dir, "atm_un", &[nlev, e], RESTART_SUBFILES).write_all(&state.un)?;
    SubfileWriter::new(dir, "atm_precip", &[n], RESTART_SUBFILES)
        .write_all(&state.precip_accum)?;
    SubfileWriter::new(dir, "atm_gsw", &[n], RESTART_SUBFILES).write_all(&state.gsw)?;
    SubfileWriter::new(dir, "atm_glw", &[n], RESTART_SUBFILES).write_all(&state.glw)?;
    Ok(())
}

/// Read an atmosphere restart back into `state`. Every field's dims are
/// validated against the model's grid (cells, edges, levels); a mismatch
/// on any field returns [`IoError::Inconsistent`].
pub fn read_atm_restart(dir: &Path, state: &mut AtmState) -> Result<(), IoError> {
    let n = state.ncells();
    let e = state.nedges();
    let nlev = state.nlev;
    state.ps = read_checked(dir, "atm_ps", &[n])?;
    state.theta = read_checked(dir, "atm_theta", &[nlev, n])?;
    state.q = read_checked(dir, "atm_q", &[nlev, n])?;
    state.un = read_checked(dir, "atm_un", &[nlev, e])?;
    state.precip_accum = read_checked(dir, "atm_precip", &[n])?;
    state.gsw = read_checked(dir, "atm_gsw", &[n])?;
    state.glw = read_checked(dir, "atm_glw", &[n])?;
    Ok(())
}

/// One ocean rank's checkpoint, field by field: the barotropic `eta ubar
/// vbar`, then the level-major `t s u v` (dims in [`ocn_dims`]).
pub(crate) fn ocn_fields(state: &OcnState) -> [(&'static str, &[f64]); 7] {
    [
        ("eta", &state.eta),
        ("ubar", &state.ubar),
        ("vbar", &state.vbar),
        ("t", &state.t),
        ("s", &state.s),
        ("u", &state.u),
        ("v", &state.v),
    ]
}

/// The checkpoint dims of ocean field `name`: `[slab]` for a barotropic
/// field, `[nlev, slab]` for a level-major one.
fn ocn_dims(name: &str, nlev: usize, slab: usize) -> Vec<usize> {
    match name {
        "eta" | "ubar" | "vbar" => vec![slab],
        _ => vec![nlev, slab],
    }
}

/// Write one rank's ocean restart (interior + halos as stored — halos are
/// re-exchanged on the first post-restart step anyway, but keeping them
/// makes the restart bit-exact without a warm-up exchange).
pub fn write_ocn_restart(dir: &Path, state: &OcnState, rank: usize) -> Result<(), IoError> {
    let slab = state.eta.len();
    for (name, field) in ocn_fields(state) {
        let dims = ocn_dims(name, state.nlev, slab);
        SubfileWriter::new(dir, &format!("ocn_r{rank}_{name}"), &dims, RESTART_SUBFILES)
            .write_all(field)?;
    }
    Ok(())
}

/// Read one rank's ocean restart. Every field's dims are validated against
/// the state's halo-extended shape and level count; a mismatch on any field
/// returns [`IoError::Inconsistent`].
pub fn read_ocn_restart(dir: &Path, state: &mut OcnState, rank: usize) -> Result<(), IoError> {
    let (nlev, slab) = (state.nlev, state.eta.len());
    let read = |name| {
        let dims = ocn_dims(name, nlev, slab);
        read_checked(dir, &format!("ocn_r{rank}_{name}"), &dims)
    };
    state.eta = read("eta")?;
    state.ubar = read("ubar")?;
    state.vbar = read("vbar")?;
    state.t = read("t")?;
    state.s = read("s")?;
    state.u = read("u")?;
    state.v = read("v")?;
    Ok(())
}

/// Reassemble global `nlat × nlon` planes (j-major), one per level of
/// field `name`, from the old decomposition's per-rank fields of a
/// checkpoint directory.
fn assemble_global(
    src: &Path,
    grid: &TripolarGrid,
    old_decomp: &BlockDecomp2d,
    name: &str,
) -> Result<Vec<f64>, IoError> {
    let plane = grid.nlon * grid.nlat;
    let mut global = Vec::new();
    for r in 0..old_decomp.nranks() {
        let b = old_decomp.block(r);
        let stride = b.ni() + 2;
        let slab = (b.nj() + 2) * stride;
        let dims = ocn_dims(name, grid.nlev, slab);
        let data = read_checked(src, &format!("ocn_r{r}_{name}"), &dims)?;
        global.resize(data.len() / slab * plane, 0.0);
        for (level, global) in data.chunks_exact(slab).zip(global.chunks_exact_mut(plane)) {
            for j in 0..b.nj() {
                for i in 0..b.ni() {
                    global[(b.j0 + j) * grid.nlon + (b.i0 + i)] = level[(j + 1) * stride + (i + 1)];
                }
            }
        }
    }
    Ok(global)
}

/// Redistribute an ocean restart written under `old_decomp` (N ocean
/// ranks) into `dst` under `new_decomp` (M < N ocean ranks) — the
/// shrink-to-fit step after permanent rank loss. Interior cells are
/// reassembled globally from the old per-rank slabs and re-sliced along
/// the new block boundaries; ghost cells are refilled with the same
/// periodic/clamped mapping a halo exchange would produce, so the new
/// slabs are self-consistent without a warm-up exchange.
///
/// Every non-ocean file of the checkpoint (atmosphere fields, coupler
/// metadata) is copied verbatim, so `dst` is a complete, self-contained
/// checkpoint: the degraded continuation and a fresh M-rank reference run
/// both restart from these exact bytes — which is what makes their
/// trajectories comparable bitwise.
pub fn redistribute_ocn_restart(
    src: &Path,
    dst: &Path,
    grid: &TripolarGrid,
    old_decomp: &BlockDecomp2d,
    new_decomp: &BlockDecomp2d,
) -> Result<(), IoError> {
    std::fs::create_dir_all(dst)?;

    // Copy everything that is not a per-rank ocean slab verbatim.
    for entry in std::fs::read_dir(src)? {
        let entry = entry?;
        let fname = entry.file_name();
        let fname = fname.to_string_lossy();
        if entry.file_type()?.is_file() && !fname.starts_with("ocn_r") {
            std::fs::copy(entry.path(), dst.join(fname.as_ref()))?;
        }
    }

    // Assemble each field once, then write every new rank's re-sliced
    // field. The base state supplies ghost rows outside the global domain
    // (solid walls a halo exchange never writes).
    let plane = grid.nlon * grid.nlat;
    let bases: Vec<OcnState> = (0..new_decomp.nranks())
        .map(|r| OcnState::new(grid, new_decomp, r))
        .collect();
    for (f, (name, _)) in ocn_fields(&bases[0]).into_iter().enumerate() {
        let global = assemble_global(src, grid, old_decomp, name)?;
        for (r, base) in bases.iter().enumerate() {
            let (b, stride, slab) = (base.block, base.stride, base.eta.len());
            let mut field = ocn_fields(base)[f].1.to_vec();
            for (level, global) in field.chunks_exact_mut(slab).zip(global.chunks_exact(plane)) {
                for jj in 0..base.nj + 2 {
                    let outside =
                        (jj == 0 && b.j0 == 0) || (jj == base.nj + 1 && b.j1 == grid.nlat);
                    if outside {
                        continue;
                    }
                    let gj = (b.j0 + jj).saturating_sub(1).min(grid.nlat - 1);
                    for ii in 0..base.ni + 2 {
                        let gi = (b.i0 + grid.nlon + ii - 1) % grid.nlon;
                        level[jj * stride + ii] = global[gj * grid.nlon + gi];
                    }
                }
            }
            let dims = ocn_dims(name, grid.nlev, slab);
            SubfileWriter::new(dst, &format!("ocn_r{r}_{name}"), &dims, RESTART_SUBFILES)
                .write_all(&field)?;
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_atm::dycore::{Dycore, DycoreConfig};
    use ap3esm_comm::World;
    use ap3esm_grid::decomp::BlockDecomp2d;
    use ap3esm_grid::mask::MaskGenerator;
    use ap3esm_grid::tripolar::TripolarGrid;
    use ap3esm_grid::GeodesicGrid;
    use ap3esm_ocn::model::{OcnConfig, OcnForcing, OcnModel};

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("ap3esm-restart-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn atmosphere_restart_is_bit_exact() {
        let grid = std::sync::Arc::new(GeodesicGrid::new(3));
        let dycore = Dycore::new(
            std::sync::Arc::clone(&grid),
            DycoreConfig::for_spacing_km(grid.mean_spacing_km()),
        );
        let mut a = AtmState::isothermal(std::sync::Arc::clone(&grid), 4, 287.0);
        a.ps[3] += 300.0;
        // Uninterrupted: 6 model steps.
        let mut uninterrupted = a.clone();
        for _ in 0..6 {
            dycore.step_model_dynamics(&mut uninterrupted);
        }
        // Interrupted: 3 steps, write, reload into a fresh state, 3 more.
        let mut first = a.clone();
        for _ in 0..3 {
            dycore.step_model_dynamics(&mut first);
        }
        let dir = tmpdir("atm");
        write_atm_restart(&dir, &first).unwrap();
        let mut resumed = AtmState::isothermal(std::sync::Arc::clone(&grid), 4, 999.0);
        read_atm_restart(&dir, &mut resumed).unwrap();
        for _ in 0..3 {
            dycore.step_model_dynamics(&mut resumed);
        }
        assert_eq!(uninterrupted.ps.len(), resumed.ps.len());
        for (x, y) in uninterrupted
            .ps
            .iter()
            .chain(&uninterrupted.theta)
            .chain(&uninterrupted.un)
            .zip(resumed.ps.iter().chain(&resumed.theta).chain(&resumed.un))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "restart broke bit-exactness");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ocean_restart_is_bit_exact() {
        let grid = TripolarGrid::new(36, 24, 4, MaskGenerator::default());
        let config = OcnConfig::for_grid(36, 24, 4, 1, 1);
        let dir = tmpdir("ocn");
        let world = World::new(1);
        world.run(|rank| {
            let decomp = BlockDecomp2d::new(36, 24, 1, 1);
            let forcing = OcnForcing::climatology(&grid, &decomp, 0);
            // Uninterrupted 6 steps.
            let mut reference = OcnModel::new(&grid, config.clone(), 0);
            for _ in 0..6 {
                reference.step(rank, &forcing);
            }
            // Interrupted at 3.
            let mut first = OcnModel::new(&grid, config.clone(), 0);
            for _ in 0..3 {
                first.step(rank, &forcing);
            }
            write_ocn_restart(&dir, &first.state, 0).unwrap();
            let mut resumed = OcnModel::new(&grid, config.clone(), 0);
            read_ocn_restart(&dir, &mut resumed.state, 0).unwrap();
            for _ in 0..3 {
                resumed.step(rank, &forcing);
            }
            let bits = |st: &OcnState| {
                ocn_fields(st).map(|(_, f)| f.iter().map(|v| v.to_bits()).collect::<Vec<_>>())
            };
            assert_eq!(bits(&reference.state), bits(&resumed.state));
        });
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn aux_surface_fields_round_trip() {
        let grid = std::sync::Arc::new(GeodesicGrid::new(2));
        let mut a = AtmState::isothermal(std::sync::Arc::clone(&grid), 3, 285.0);
        for i in 0..a.ncells() {
            a.precip_accum[i] = i as f64 * 0.25;
            a.gsw[i] = 300.0 + i as f64;
            a.glw[i] = 150.0 - i as f64 * 0.5;
        }
        let dir = tmpdir("aux");
        write_atm_restart(&dir, &a).unwrap();
        let mut b = AtmState::isothermal(std::sync::Arc::clone(&grid), 3, 999.0);
        read_atm_restart(&dir, &mut b).unwrap();
        for (x, y) in a
            .precip_accum
            .iter()
            .chain(&a.gsw)
            .chain(&a.glw)
            .zip(b.precip_accum.iter().chain(&b.gsw).chain(&b.glw))
        {
            assert_eq!(x.to_bits(), y.to_bits(), "aux field lost in restart");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn level_count_mismatch_is_rejected_per_field() {
        // Same horizontal grid, different level count: ps matches but
        // theta's dims do not — the per-field check must catch it.
        let grid = std::sync::Arc::new(GeodesicGrid::new(2));
        let state = AtmState::isothermal(std::sync::Arc::clone(&grid), 3, 280.0);
        let dir = tmpdir("levmismatch");
        write_atm_restart(&dir, &state).unwrap();
        let mut other = AtmState::isothermal(std::sync::Arc::clone(&grid), 5, 280.0);
        match read_atm_restart(&dir, &mut other) {
            Err(IoError::Inconsistent(msg)) => {
                assert!(msg.contains("atm_theta"), "wrong field blamed: {msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ocean_slab_mismatch_is_rejected() {
        let grid = TripolarGrid::new(24, 16, 3, MaskGenerator::default());
        let config = OcnConfig::for_grid(24, 16, 3, 1, 1);
        let dir = tmpdir("ocnmismatch");
        let model = OcnModel::new(&grid, config, 0);
        write_ocn_restart(&dir, &model.state, 0).unwrap();
        let grid2 = TripolarGrid::new(30, 16, 3, MaskGenerator::default());
        let config2 = OcnConfig::for_grid(30, 16, 3, 1, 1);
        let mut other = OcnModel::new(&grid2, config2, 0);
        assert!(matches!(
            read_ocn_restart(&dir, &mut other.state, 0),
            Err(IoError::Inconsistent(_))
        ));
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn ocean_level_count_mismatch_is_rejected() {
        // Same slab, more levels in the checkpoint: eta matches but t's dims
        // do not — the per-field check must catch it.
        let state = |nlev| {
            let grid = TripolarGrid::new(24, 16, nlev, MaskGenerator::default());
            OcnState::new(&grid, &BlockDecomp2d::new(24, 16, 1, 1), 0)
        };
        let dir = tmpdir("ocnlevmismatch");
        write_ocn_restart(&dir, &state(5), 0).unwrap();
        match read_ocn_restart(&dir, &mut state(3), 0) {
            Err(IoError::Inconsistent(msg)) => {
                assert!(msg.contains("ocn_r0_t"), "wrong field blamed: {msg}")
            }
            other => panic!("expected Inconsistent, got {other:?}"),
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn redistribution_preserves_global_fields_bitwise() {
        // 4 ocean ranks (2×2) shrink to 3 (3×1): every interior cell must
        // land bit-exact, ghosts must follow the periodic halo mapping,
        // and non-ocean checkpoint files must ride along verbatim.
        let grid = TripolarGrid::new(36, 24, 3, MaskGenerator::default());
        let old = BlockDecomp2d::new(36, 24, 2, 2);
        let new = BlockDecomp2d::new(36, 24, 3, 1);
        let src = tmpdir("redist-src");
        let dst = tmpdir("redist-dst");
        let gfun = |gi: usize, gj: usize, f: usize| (gi * 1000 + gj * 16 + f) as f64 * 0.125 + 0.5;
        for r in 0..old.nranks() {
            let mut st = OcnState::new(&grid, &old, r);
            for j in 0..st.nj {
                for i in 0..st.ni {
                    let (gi, gj) = (st.block.i0 + i, st.block.j0 + j);
                    let idx = st.at(i, j);
                    st.eta[idx] = gfun(gi, gj, 0);
                    st.ubar[idx] = gfun(gi, gj, 1);
                    st.vbar[idx] = gfun(gi, gj, 2);
                    for k in 0..grid.nlev {
                        let at = k * st.eta.len() + idx;
                        st.t[at] = gfun(gi, gj, 3 + 4 * k);
                        st.s[at] = gfun(gi, gj, 4 + 4 * k);
                        st.u[at] = gfun(gi, gj, 5 + 4 * k);
                        st.v[at] = gfun(gi, gj, 6 + 4 * k);
                    }
                }
            }
            write_ocn_restart(&src, &st, r).unwrap();
        }
        std::fs::write(src.join("cpl_meta.00000.a3f"), b"meta-bytes").unwrap();
        redistribute_ocn_restart(&src, &dst, &grid, &old, &new).unwrap();
        assert_eq!(
            std::fs::read(dst.join("cpl_meta.00000.a3f")).unwrap(),
            b"meta-bytes",
            "non-ocean checkpoint files must be copied verbatim"
        );
        for r in 0..new.nranks() {
            let mut st = OcnState::new(&grid, &new, r);
            read_ocn_restart(&dst, &mut st, r).unwrap();
            for j in 0..st.nj {
                for i in 0..st.ni {
                    let (gi, gj) = (st.block.i0 + i, st.block.j0 + j);
                    let idx = st.at(i, j);
                    assert_eq!(st.eta[idx].to_bits(), gfun(gi, gj, 0).to_bits());
                    assert_eq!(st.vbar[idx].to_bits(), gfun(gi, gj, 2).to_bits());
                    for k in 0..grid.nlev {
                        let at = k * st.eta.len() + idx;
                        assert_eq!(st.t[at].to_bits(), gfun(gi, gj, 3 + 4 * k).to_bits());
                        assert_eq!(st.v[at].to_bits(), gfun(gi, gj, 6 + 4 * k).to_bits());
                    }
                }
            }
            // West ghost column carries the zonally periodic neighbour.
            let gi_w = (st.block.i0 + grid.nlon - 1) % grid.nlon;
            for jj in 1..=st.nj {
                let gj = st.block.j0 + jj - 1;
                assert_eq!(
                    st.eta[jj * st.stride].to_bits(),
                    gfun(gi_w, gj, 0).to_bits(),
                    "ghost fill must match the halo-exchange mapping"
                );
            }
        }
        // Both writers leave seven fields per ocean rank, whatever `nlev`.
        for (dir, decomp) in [(&src, &old), (&dst, &new)] {
            let mut names: Vec<String> = std::fs::read_dir(dir)
                .unwrap()
                .map(|e| e.unwrap().file_name().into_string().unwrap())
                .filter(|f| f.starts_with("ocn_r"))
                .map(|f| f.split('.').next().unwrap().to_owned())
                .collect();
            assert_eq!(names.len(), decomp.nranks() * 7 * RESTART_SUBFILES);
            names.sort();
            names.dedup();
            let mut want: Vec<String> = (0..decomp.nranks())
                .flat_map(|r| {
                    ["eta", "ubar", "vbar", "t", "s", "u", "v"].map(|f| format!("ocn_r{r}_{f}"))
                })
                .collect();
            want.sort();
            assert_eq!(names, want);
        }
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn shape_mismatch_is_rejected() {
        let grid = std::sync::Arc::new(GeodesicGrid::new(2));
        let state = AtmState::isothermal(std::sync::Arc::clone(&grid), 3, 280.0);
        let dir = tmpdir("mismatch");
        write_atm_restart(&dir, &state).unwrap();
        let other_grid = std::sync::Arc::new(GeodesicGrid::new(3));
        let mut other = AtmState::isothermal(other_grid, 3, 280.0);
        assert!(read_atm_restart(&dir, &mut other).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
