//! The §6.4 array-fusion layout, kept for the `fusion_ablation` bench.
//!
//! The paper's MEM-level optimization fuses the co-located arrays so one
//! DMA transfer carries `k` components per point: velocity `(u, v, w)`
//! into 3-vectors and the six stresses into 6-vectors. On a cache-based
//! host the same transformation turns nine strided streams into two
//! unit-stride streams of wide elements, which is the memory-layout
//! experiment the ablation measures. The solver itself runs the scalar
//! layout; these kernels exist only so the ablation compares like with
//! like, and they stay bit-identical to the serial reference (pinned by
//! the tests below) because the arithmetic per point is evaluated in the
//! same order.

use sw_grid::{Vec3Field, Vec6Field};
use swquake_core::staggered::{C1, C2};
use swquake_core::SolverState;

/// The wavefields in the paper's fused layout.
#[derive(Debug, Clone)]
pub struct FusedWavefield {
    /// Velocity (u, v, w) as an AoS vec3 field.
    pub vel: Vec3Field,
    /// Stress (xx, yy, zz, xy, xz, yz) as an AoS vec6 field.
    pub stress: Vec6Field,
}

impl FusedWavefield {
    /// Fuse the scalar wavefields of a state.
    pub fn from_state(s: &SolverState) -> Self {
        Self {
            vel: Vec3Field::fuse([&s.u, &s.v, &s.w]),
            stress: Vec6Field::fuse([&s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz]),
        }
    }
}

/// Stress component indices inside the vec6.
const XX: usize = 0;
const YY: usize = 1;
const ZZ: usize = 2;
const XY: usize = 3;
const XZ: usize = 4;
const YZ: usize = 5;

#[inline(always)]
fn d_plus(
    f: &Vec6Field,
    c: usize,
    x: isize,
    y: isize,
    z: isize,
    axis: (isize, isize, isize),
) -> f32 {
    let (dx, dy, dz) = axis;
    C1 * (f.comp_i(c, x + dx, y + dy, z + dz) - f.comp_i(c, x, y, z))
        + C2 * (f.comp_i(c, x + 2 * dx, y + 2 * dy, z + 2 * dz)
            - f.comp_i(c, x - dx, y - dy, z - dz))
}

#[inline(always)]
fn d_minus(
    f: &Vec6Field,
    c: usize,
    x: isize,
    y: isize,
    z: isize,
    axis: (isize, isize, isize),
) -> f32 {
    let (dx, dy, dz) = axis;
    C1 * (f.comp_i(c, x, y, z) - f.comp_i(c, x - dx, y - dy, z - dz))
        + C2 * (f.comp_i(c, x + dx, y + dy, z + dz)
            - f.comp_i(c, x - 2 * dx, y - 2 * dy, z - 2 * dz))
}

#[inline(always)]
fn v_plus(f: &Vec3Field, c: usize, x: isize, y: isize, z: isize, a: (isize, isize, isize)) -> f32 {
    C1 * (f.comp_i(c, x + a.0, y + a.1, z + a.2) - f.comp_i(c, x, y, z))
        + C2 * (f.comp_i(c, x + 2 * a.0, y + 2 * a.1, z + 2 * a.2)
            - f.comp_i(c, x - a.0, y - a.1, z - a.2))
}

#[inline(always)]
fn v_minus(f: &Vec3Field, c: usize, x: isize, y: isize, z: isize, a: (isize, isize, isize)) -> f32 {
    C1 * (f.comp_i(c, x, y, z) - f.comp_i(c, x - a.0, y - a.1, z - a.2))
        + C2 * (f.comp_i(c, x + a.0, y + a.1, z + a.2)
            - f.comp_i(c, x - 2 * a.0, y - 2 * a.1, z - 2 * a.2))
}

const AX: (isize, isize, isize) = (1, 0, 0);
const AY: (isize, isize, isize) = (0, 1, 0);
const AZ: (isize, isize, isize) = (0, 0, 1);

/// Velocity update on the fused layout (the whole domain, like
/// `dvelcx` + `dvelcy`).
pub fn dvelc_fused(w: &mut FusedWavefield, s: &SolverState) {
    let d = s.dims;
    let dt_dx = (s.dt / s.dx) as f32;
    let stress = &w.stress;
    for x in 0..d.nx {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let b = dt_dx * s.buoyancy.get(x, y, z);
                let du = d_plus(stress, XX, xi, yi, zi, AX)
                    + d_minus(stress, XY, xi, yi, zi, AY)
                    + d_minus(stress, XZ, xi, yi, zi, AZ);
                let dv = d_minus(stress, XY, xi, yi, zi, AX)
                    + d_plus(stress, YY, xi, yi, zi, AY)
                    + d_minus(stress, YZ, xi, yi, zi, AZ);
                let dw = d_minus(stress, XZ, xi, yi, zi, AX)
                    + d_minus(stress, YZ, xi, yi, zi, AY)
                    + d_plus(stress, ZZ, xi, yi, zi, AZ);
                let mut v = w.vel.get(x, y, z);
                v[0] += b * du;
                v[1] += b * dv;
                v[2] += b * dw;
                w.vel.set(x, y, z, v);
            }
        }
    }
}

/// Elastic stress update on the fused layout (no attenuation term — the
/// ablation compares layouts on the elastic update).
pub fn dstrqc_fused(w: &mut FusedWavefield, s: &SolverState) {
    let d = s.dims;
    let inv_dx = (1.0 / s.dx) as f32;
    let dt = s.dt as f32;
    let vel = &w.vel;
    for x in 0..d.nx {
        for y in 0..d.ny {
            for z in 0..d.nz {
                let (xi, yi, zi) = (x as isize, y as isize, z as isize);
                let lam = s.lam.get(x, y, z);
                let mu = s.mu.get(x, y, z);
                let exx = v_minus(vel, 0, xi, yi, zi, AX) * inv_dx;
                let eyy = v_minus(vel, 1, xi, yi, zi, AY) * inv_dx;
                let ezz = v_minus(vel, 2, xi, yi, zi, AZ) * inv_dx;
                let div = exx + eyy + ezz;
                let exy =
                    (v_plus(vel, 0, xi, yi, zi, AY) + v_plus(vel, 1, xi, yi, zi, AX)) * inv_dx;
                let exz =
                    (v_plus(vel, 0, xi, yi, zi, AZ) + v_plus(vel, 2, xi, yi, zi, AX)) * inv_dx;
                let eyz =
                    (v_plus(vel, 1, xi, yi, zi, AZ) + v_plus(vel, 2, xi, yi, zi, AY)) * inv_dx;
                let mut t = w.stress.get(x, y, z);
                t[XX] += dt * (lam * div + 2.0 * mu * exx);
                t[YY] += dt * (lam * div + 2.0 * mu * eyy);
                t[ZZ] += dt * (lam * div + 2.0 * mu * ezz);
                t[XY] += dt * (mu * exy);
                t[XZ] += dt * (mu * exz);
                t[YZ] += dt * (mu * eyz);
                w.stress.set(x, y, z, t);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;
    use swquake_core::kernels::{dstrqc, dvelcx, dvelcy};
    use swquake_core::state::StateOptions;

    fn noisy_state() -> SolverState {
        let opts = StateOptions { sponge_width: 0, attenuation: false, ..Default::default() };
        let mut s = SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(10, 12, 14),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        );
        for (x, y, z) in s.dims.iter() {
            let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
            s.xx.set(x, y, z, v * 1e4);
            s.yy.set(x, y, z, v * 0.7e4);
            s.xy.set(x, y, z, -v * 5e3);
            s.yz.set(x, y, z, v * 3e3);
            s.u.set(x, y, z, v * 0.01);
            s.v.set(x, y, z, -v * 0.02);
            s.w.set(x, y, z, v * 0.005);
        }
        s
    }

    fn assert_matches(scalar: &SolverState, fused: &FusedWavefield) {
        let vel = [&scalar.u, &scalar.v, &scalar.w];
        for (a, b) in vel.iter().zip(fused.vel.split().iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        for (a, b) in scalar.stress().iter().zip(fused.stress.split().iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn fused_velocity_matches_scalar_bitwise() {
        let mut scalar = noisy_state();
        dvelcx(&mut scalar);
        dvelcy(&mut scalar);
        let reference = noisy_state();
        let mut fused = FusedWavefield::from_state(&reference);
        dvelc_fused(&mut fused, &reference);
        assert_matches(&scalar, &fused);
    }

    #[test]
    fn fused_stress_matches_scalar_bitwise() {
        let mut scalar = noisy_state();
        dstrqc(&mut scalar);
        let reference = noisy_state();
        let mut fused = FusedWavefield::from_state(&reference);
        dstrqc_fused(&mut fused, &reference);
        assert_matches(&scalar, &fused);
    }

    #[test]
    fn multiple_fused_steps_stay_identical() {
        let mut scalar = noisy_state();
        let reference = noisy_state();
        let mut fused = FusedWavefield::from_state(&reference);
        for _ in 0..4 {
            dvelcx(&mut scalar);
            dvelcy(&mut scalar);
            dstrqc(&mut scalar);
            dvelc_fused(&mut fused, &reference);
            dstrqc_fused(&mut fused, &reference);
        }
        assert_matches(&scalar, &fused);
    }
}
