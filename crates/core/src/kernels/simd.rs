//! The fast path: SIMD-vectorized, cache-tiled kernel variants.
//!
//! Every kernel hands disjoint x planes to the Rayon pool (the host
//! analogue of the paper's CPE pool: each plane's writes stay inside
//! that plane, so the split is race-free), processes the innermost
//! contiguous z axis in [`F32x8`] lanes and cache-blocks the z–y loop
//! nest. This is the host-side version of the paper's register-level
//! vectorization inside each CPE's LDM window (§6.3): z is the fastest
//! memory axis, so a z row is the unit-stride run every stencil streams
//! over, and a z–y tile is the working set that stays cache-resident
//! while its x-plane taps are reused.
//!
//! ## Bit-compat contract
//!
//! Every kernel here is **bit-identical** to its serial counterpart
//! (pinned by the tests below and by `tests/exec_equivalence.rs`): the
//! lane structs evaluate the same expression tree per element, in the
//! same order, and never contract into fused multiply-adds. Tiling and
//! lane width change only *which order cells are visited*, never the
//! arithmetic within a cell — and every cell's update is independent
//! within a kernel pass. Reductions that cross cells (the plasticity
//! yield count) are integer-only and therefore order-free.
//!
//! ## Kernel coverage
//!
//! * [`dvelc_simd`] — velocity update, vector lanes + z–y tiles;
//! * [`dstrqc_simd`] — stress + attenuation memory update, vector
//!   lanes + z–y tiles;
//! * [`drprecpc_calc_simd`] / [`drprecpc_app_simd`] — plasticity as
//!   slice-based row loops (branch + `sqrt` per point resist lane
//!   structs without per-lane selects; contiguous-row indexing removes
//!   the per-point offset arithmetic and lets the compiler if-convert);
//! * [`apply_sponge_simd`] — damping multiply in vector lanes;
//! * [`fstr_simd`] — free surface; it touches a few z cells per column,
//!   so there is no contiguous run to vectorize (the paper's Fig. 7 makes
//!   the same observation for the CPEs: 4–5× instead of ~30×). It is the
//!   scalar stress imaging with the x planes handed to the pool.

use crate::staggered::{dxm, dxp, dym, dyp, dzm, dzp, C1, C2};
use crate::state::SolverState;
use rayon::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};
use sw_grid::simd::{F32x8, LANES};
use sw_grid::tile::blocks;
use sw_grid::{Field3, HALO_WIDTH};

/// z extent of a cache tile. A tile's hot set is ~30 rows (taps across
/// nine fields) × `TILE_Z` × 4 B ≈ 60 KB at 512 — sized to sit in L2
/// with room for the write streams.
pub const TILE_Z: usize = 512;

/// y extent of a cache tile: bounds how far apart in memory the y-tap
/// rows of one tile pass can be.
pub const TILE_Y: usize = 32;

/// `C1*(a[i] − b[i]) + C2*(c[i] − d[i])` over one lane — the shape of
/// every x/y stencil tap, whose four operands live in four different
/// (contiguous) rows at the same z index.
#[inline(always)]
fn lane4(a: &[f32], b: &[f32], c: &[f32], d: &[f32], i: usize) -> F32x8 {
    C1 * (F32x8::load(&a[i..]) - F32x8::load(&b[i..]))
        + C2 * (F32x8::load(&c[i..]) - F32x8::load(&d[i..]))
}

/// `dzp` on one halo-extended row at local index `i`: the z taps are
/// shifted loads from the *same* row.
#[inline(always)]
fn lane_dzp(r: &[f32], i: usize) -> F32x8 {
    C1 * (F32x8::load(&r[i + 1..]) - F32x8::load(&r[i..]))
        + C2 * (F32x8::load(&r[i + 2..]) - F32x8::load(&r[i - 1..]))
}

/// `dzm` on one halo-extended row at local index `i`.
#[inline(always)]
fn lane_dzm(r: &[f32], i: usize) -> F32x8 {
    C1 * (F32x8::load(&r[i..]) - F32x8::load(&r[i - 1..]))
        + C2 * (F32x8::load(&r[i + 1..]) - F32x8::load(&r[i - 2..]))
}

/// The halo-extended tile row of `f` at plane offset `(ox, oy)` from
/// the output column `(x, y)` — the tap rows every vector stencil
/// combines elementwise.
#[inline(always)]
fn trow(f: &Field3, x: isize, ox: isize, y: isize, oy: isize, z0: usize, len: usize) -> &[f32] {
    f.row_tile(x + ox, y + oy, z0, len)
}

/// SIMD velocity update over the whole domain (`dvelcx` + `dvelcy`).
pub fn dvelc_simd(s: &mut SolverState) {
    dvelc_simd_tiled(s, TILE_Y, TILE_Z);
}

/// Tile-parametrized body of [`dvelc_simd`] (exposed so tests can force
/// tile boundaries through small meshes).
#[doc(hidden)]
pub fn dvelc_simd_tiled(s: &mut SolverState, tile_y: usize, tile_z: usize) {
    let d = s.dims;
    let p = s.u.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let dt_dx = (s.dt / s.dx) as f32;
    let (xx, yy, zz) = (&s.xx, &s.yy, &s.zz);
    let (xy, xz, yz) = (&s.xy, &s.xz, &s.yz);
    let buoyancy = &s.buoyancy;
    let u_planes = s.u.raw_mut().par_chunks_mut(stride);
    let v_planes = s.v.raw_mut().par_chunks_mut(stride);
    let w_planes = s.w.raw_mut().par_chunks_mut(stride);
    u_planes.zip(v_planes).zip(w_planes).enumerate().skip(h).take(d.nx).for_each(
        |(px, ((up, vp), wp))| {
            let x = px - h;
            let xi = x as isize;
            for (z0, zlen) in blocks(d.nz, tile_z) {
                for (y0, ylen) in blocks(d.ny, tile_y) {
                    for y in y0..y0 + ylen {
                        let yi = y as isize;
                        // du = dxp(xx) + dym(xy) + dzm(xz)
                        let xx_c = trow(xx, xi, 0, yi, 0, z0, zlen);
                        let xx_xm1 = trow(xx, xi, -1, yi, 0, z0, zlen);
                        let xx_xp1 = trow(xx, xi, 1, yi, 0, z0, zlen);
                        let xx_xp2 = trow(xx, xi, 2, yi, 0, z0, zlen);
                        let xy_c = trow(xy, xi, 0, yi, 0, z0, zlen);
                        let xy_ym1 = trow(xy, xi, 0, yi, -1, z0, zlen);
                        let xy_yp1 = trow(xy, xi, 0, yi, 1, z0, zlen);
                        let xy_ym2 = trow(xy, xi, 0, yi, -2, z0, zlen);
                        let xz_c = trow(xz, xi, 0, yi, 0, z0, zlen);
                        // dv = dxm(xy) + dyp(yy) + dzm(yz)
                        let xy_xm1 = trow(xy, xi, -1, yi, 0, z0, zlen);
                        let xy_xp1 = trow(xy, xi, 1, yi, 0, z0, zlen);
                        let xy_xm2 = trow(xy, xi, -2, yi, 0, z0, zlen);
                        let yy_c = trow(yy, xi, 0, yi, 0, z0, zlen);
                        let yy_ym1 = trow(yy, xi, 0, yi, -1, z0, zlen);
                        let yy_yp1 = trow(yy, xi, 0, yi, 1, z0, zlen);
                        let yy_yp2 = trow(yy, xi, 0, yi, 2, z0, zlen);
                        let yz_c = trow(yz, xi, 0, yi, 0, z0, zlen);
                        // dw = dxm(xz) + dym(yz) + dzp(zz)
                        let xz_xm1 = trow(xz, xi, -1, yi, 0, z0, zlen);
                        let xz_xp1 = trow(xz, xi, 1, yi, 0, z0, zlen);
                        let xz_xm2 = trow(xz, xi, -2, yi, 0, z0, zlen);
                        let yz_ym1 = trow(yz, xi, 0, yi, -1, z0, zlen);
                        let yz_yp1 = trow(yz, xi, 0, yi, 1, z0, zlen);
                        let yz_ym2 = trow(yz, xi, 0, yi, -2, z0, zlen);
                        let zz_c = trow(zz, xi, 0, yi, 0, z0, zlen);
                        let b_row = trow(buoyancy, xi, 0, yi, 0, z0, zlen);
                        let obase = (y + h) * p.nz + h + z0;
                        let mut t = 0usize;
                        while t + LANES <= zlen {
                            let li = t + h;
                            let vb = F32x8::splat(dt_dx) * F32x8::load(&b_row[li..]);
                            let du = lane4(xx_xp1, xx_c, xx_xp2, xx_xm1, li)
                                + lane4(xy_c, xy_ym1, xy_yp1, xy_ym2, li)
                                + lane_dzm(xz_c, li);
                            let dv = lane4(xy_c, xy_xm1, xy_xp1, xy_xm2, li)
                                + lane4(yy_yp1, yy_c, yy_yp2, yy_ym1, li)
                                + lane_dzm(yz_c, li);
                            let dw = lane4(xz_c, xz_xm1, xz_xp1, xz_xm2, li)
                                + lane4(yz_c, yz_ym1, yz_yp1, yz_ym2, li)
                                + lane_dzp(zz_c, li);
                            let o = obase + t;
                            (F32x8::load(&up[o..]) + vb * du).store(&mut up[o..]);
                            (F32x8::load(&vp[o..]) + vb * dv).store(&mut vp[o..]);
                            (F32x8::load(&wp[o..]) + vb * dw).store(&mut wp[o..]);
                            t += LANES;
                        }
                        // scalar tail: identical formulas via the shared
                        // staggered operators
                        for z in z0 + t..z0 + zlen {
                            let o = (y + h) * p.nz + (z + h);
                            let b = dt_dx * buoyancy.get(x, y, z);
                            let du = dxp(xx, x, y, z) + dym(xy, x, y, z) + dzm(xz, x, y, z);
                            let dv = dxm(xy, x, y, z) + dyp(yy, x, y, z) + dzm(yz, x, y, z);
                            let dw = dxm(xz, x, y, z) + dym(yz, x, y, z) + dzp(zz, x, y, z);
                            up[o] += b * du;
                            vp[o] += b * dv;
                            wp[o] += b * dw;
                        }
                    }
                }
            }
        },
    );
}

/// SIMD stress update (`dstrqc`) with the attenuation memory variables.
pub fn dstrqc_simd(s: &mut SolverState) {
    dstrqc_simd_tiled(s, TILE_Y, TILE_Z);
}

/// Tile-parametrized body of [`dstrqc_simd`].
#[doc(hidden)]
pub fn dstrqc_simd_tiled(s: &mut SolverState, tile_y: usize, tile_z: usize) {
    let d = s.dims;
    let p = s.xx.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let inv_dx = (1.0 / s.dx) as f32;
    let dt = s.dt as f32;
    let atten = s.options.attenuation;
    let tau = s.tau as f32;
    let (a_coef, b_coef) = if atten {
        ((2.0 * tau - dt) / (2.0 * tau + dt), 2.0 * dt / (2.0 * tau + dt))
    } else {
        (1.0, 0.0)
    };
    let (u, v, w) = (&s.u, &s.v, &s.w);
    let (lam, mu, wp_f, ws_f) = (&s.lam, &s.mu, &s.wp, &s.ws);
    let [r0, r1, r2, r3, r4, r5] = &mut s.r;
    let planes =
        s.xx.raw_mut()
            .par_chunks_mut(stride)
            .zip(s.yy.raw_mut().par_chunks_mut(stride))
            .zip(s.zz.raw_mut().par_chunks_mut(stride))
            .zip(s.xy.raw_mut().par_chunks_mut(stride))
            .zip(s.xz.raw_mut().par_chunks_mut(stride))
            .zip(s.yz.raw_mut().par_chunks_mut(stride))
            .zip(r0.raw_mut().par_chunks_mut(stride))
            .zip(r1.raw_mut().par_chunks_mut(stride))
            .zip(r2.raw_mut().par_chunks_mut(stride))
            .zip(r3.raw_mut().par_chunks_mut(stride))
            .zip(r4.raw_mut().par_chunks_mut(stride))
            .zip(r5.raw_mut().par_chunks_mut(stride));
    planes.enumerate().skip(h).take(d.nx).for_each(
        |(px, (((((((((((pxx, pyy), pzz), pxy), pxz), pyz), pr0), pr1), pr2), pr3), pr4), pr5))| {
            let x = px - h;
            let xi = x as isize;
            let stress: [&mut [f32]; 6] = [pxx, pyy, pzz, pxy, pxz, pyz];
            let mem: [&mut [f32]; 6] = [pr0, pr1, pr2, pr3, pr4, pr5];
            for (z0, zlen) in blocks(d.nz, tile_z) {
                for (y0, ylen) in blocks(d.ny, tile_y) {
                    for y in y0..y0 + ylen {
                        let yi = y as isize;
                        let u_c = trow(u, xi, 0, yi, 0, z0, zlen);
                        let u_xm1 = trow(u, xi, -1, yi, 0, z0, zlen);
                        let u_xp1 = trow(u, xi, 1, yi, 0, z0, zlen);
                        let u_xm2 = trow(u, xi, -2, yi, 0, z0, zlen);
                        let u_yp1 = trow(u, xi, 0, yi, 1, z0, zlen);
                        let u_yp2 = trow(u, xi, 0, yi, 2, z0, zlen);
                        let u_ym1 = trow(u, xi, 0, yi, -1, z0, zlen);
                        let v_c = trow(v, xi, 0, yi, 0, z0, zlen);
                        let v_xp1 = trow(v, xi, 1, yi, 0, z0, zlen);
                        let v_xp2 = trow(v, xi, 2, yi, 0, z0, zlen);
                        let v_xm1 = trow(v, xi, -1, yi, 0, z0, zlen);
                        let v_ym1 = trow(v, xi, 0, yi, -1, z0, zlen);
                        let v_yp1 = trow(v, xi, 0, yi, 1, z0, zlen);
                        let v_ym2 = trow(v, xi, 0, yi, -2, z0, zlen);
                        let w_c = trow(w, xi, 0, yi, 0, z0, zlen);
                        let w_xp1 = trow(w, xi, 1, yi, 0, z0, zlen);
                        let w_xp2 = trow(w, xi, 2, yi, 0, z0, zlen);
                        let w_xm1 = trow(w, xi, -1, yi, 0, z0, zlen);
                        let w_yp1 = trow(w, xi, 0, yi, 1, z0, zlen);
                        let w_yp2 = trow(w, xi, 0, yi, 2, z0, zlen);
                        let w_ym1 = trow(w, xi, 0, yi, -1, z0, zlen);
                        let lam_r = trow(lam, xi, 0, yi, 0, z0, zlen);
                        let mu_r = trow(mu, xi, 0, yi, 0, z0, zlen);
                        let wp_r = trow(wp_f, xi, 0, yi, 0, z0, zlen);
                        let ws_r = trow(ws_f, xi, 0, yi, 0, z0, zlen);
                        let obase = (y + h) * p.nz + h + z0;
                        let vinv = F32x8::splat(inv_dx);
                        let mut t = 0usize;
                        while t + LANES <= zlen {
                            let li = t + h;
                            let o = obase + t;
                            let vl = F32x8::load(&lam_r[li..]);
                            let vm = F32x8::load(&mu_r[li..]);
                            let exx = lane4(u_c, u_xm1, u_xp1, u_xm2, li) * vinv;
                            let eyy = lane4(v_c, v_ym1, v_yp1, v_ym2, li) * vinv;
                            let ezz = lane_dzm(w_c, li) * vinv;
                            let div = exx + eyy + ezz;
                            let exy = (lane4(u_yp1, u_c, u_yp2, u_ym1, li)
                                + lane4(v_xp1, v_c, v_xp2, v_xm1, li))
                                * vinv;
                            let exz =
                                (lane_dzp(u_c, li) + lane4(w_xp1, w_c, w_xp2, w_xm1, li)) * vinv;
                            let eyz =
                                (lane_dzp(v_c, li) + lane4(w_yp1, w_c, w_yp2, w_ym1, li)) * vinv;
                            let rates = [
                                vl * div + 2.0 * vm * exx,
                                vl * div + 2.0 * vm * eyy,
                                vl * div + 2.0 * vm * ezz,
                                vm * exy,
                                vm * exz,
                                vm * eyz,
                            ];
                            if atten {
                                let vwp = F32x8::load(&wp_r[li..]);
                                let vws = F32x8::load(&ws_r[li..]);
                                let weights = [vwp, vwp, vwp, vws, vws, vws];
                                for c in 0..6 {
                                    let e = rates[c];
                                    let r_old = F32x8::load(&mem[c][o..]);
                                    let rn = a_coef * r_old + b_coef * weights[c] * e;
                                    let r_bar = 0.5 * (rn + r_old);
                                    (F32x8::load(&stress[c][o..]) + dt * (e - r_bar))
                                        .store(&mut stress[c][o..]);
                                    rn.store(&mut mem[c][o..]);
                                }
                            } else {
                                let zero = F32x8::splat(0.0);
                                for c in 0..6 {
                                    let e = rates[c];
                                    (F32x8::load(&stress[c][o..]) + dt * (e - zero))
                                        .store(&mut stress[c][o..]);
                                }
                            }
                            t += LANES;
                        }
                        // scalar tail via the shared staggered operators
                        for z in z0 + t..z0 + zlen {
                            let o = (y + h) * p.nz + (z + h);
                            let l = lam.get(x, y, z);
                            let m = mu.get(x, y, z);
                            let exx = dxm(u, x, y, z) * inv_dx;
                            let eyy = dym(v, x, y, z) * inv_dx;
                            let ezz = dzm(w, x, y, z) * inv_dx;
                            let div = exx + eyy + ezz;
                            let exy = (dyp(u, x, y, z) + dxp(v, x, y, z)) * inv_dx;
                            let exz = (dzp(u, x, y, z) + dxp(w, x, y, z)) * inv_dx;
                            let eyz = (dzp(v, x, y, z) + dyp(w, x, y, z)) * inv_dx;
                            let rates = [
                                l * div + 2.0 * m * exx,
                                l * div + 2.0 * m * eyy,
                                l * div + 2.0 * m * ezz,
                                m * exy,
                                m * exz,
                                m * eyz,
                            ];
                            let wpv = wp_f.get(x, y, z);
                            let wsv = ws_f.get(x, y, z);
                            let weights = [wpv, wpv, wpv, wsv, wsv, wsv];
                            for c in 0..6 {
                                let e = rates[c];
                                let (r_new, r_bar) = if atten {
                                    let rn = a_coef * mem[c][o] + b_coef * weights[c] * e;
                                    (rn, 0.5 * (rn + mem[c][o]))
                                } else {
                                    (0.0, 0.0)
                                };
                                stress[c][o] += dt * (e - r_bar);
                                if atten {
                                    mem[c][o] = r_new;
                                }
                            }
                        }
                    }
                }
            }
        },
    );
}

/// Free surface (`fstr`) with x planes fanned out over the pool: stress
/// imaging per (x, y) column. Every column's reads and writes stay inside
/// its own x plane (surface planes z ∈ {0, 1, 2} and the halo planes
/// z ∈ {−1, −2}), so handing whole planes to the pool is race-free and
/// bit-identical to [`crate::kernels::fstr`].
pub fn fstr_simd(s: &mut SolverState) {
    let d = s.dims;
    let p = s.zz.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let zz_planes = s.zz.raw_mut().par_chunks_mut(stride);
    let xz_planes = s.xz.raw_mut().par_chunks_mut(stride);
    let yz_planes = s.yz.raw_mut().par_chunks_mut(stride);
    let w_planes = s.w.raw_mut().par_chunks_mut(stride);
    zz_planes.zip(xz_planes).zip(yz_planes).zip(w_planes).skip(h).take(d.nx).for_each(
        |(((pzz, pxz), pyz), pw)| {
            for y in 0..d.ny {
                let at = |z_pad: usize| (y + h) * p.nz + z_pad;
                // zz: zero on the surface plane, antisymmetric above.
                pzz[at(h)] = 0.0;
                pzz[at(h - 1)] = -pzz[at(h + 1)];
                pzz[at(h - 2)] = -pzz[at(h + 2)];
                // xz, yz: antisymmetric about the surface (half-staggered).
                pxz[at(h - 1)] = -pxz[at(h)];
                pxz[at(h - 2)] = -pxz[at(h + 1)];
                pyz[at(h - 1)] = -pyz[at(h)];
                pyz[at(h - 2)] = -pyz[at(h + 1)];
                // w: symmetric continuation.
                pw[at(h - 1)] = pw[at(h)];
                pw[at(h - 2)] = pw[at(h + 1)];
            }
        },
    );
}

/// SIMD `drprecpc_calc`: slice-based contiguous-row loops (the branch
/// and per-point `sqrt` keep this one scalar in the lane sense; the row
/// indexing is what the auto-vectorizer needs to if-convert the hot
/// arithmetic). Returns the number of yielding points.
pub fn drprecpc_calc_simd(s: &mut SolverState) -> usize {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let p = s.yldfac.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let (xx, yy, zz) = (&s.xx, &s.yy, &s.zz);
    let (xy, xz, yz) = (&s.xy, &s.xz, &s.yz);
    let (sigma0, cohes, cosphi, sinphi, pf) = (&s.sigma0, &s.cohes, &s.cosphi, &s.sinphi, &s.pf);
    let yielding = AtomicUsize::new(0);
    s.yldfac.raw_mut().par_chunks_mut(stride).enumerate().skip(h).take(d.nx).for_each(
        |(px, pyld)| {
            let x = px - h;
            let mut local = 0usize;
            for y in 0..d.ny {
                let (rxx, ryy, rzz) = (xx.row(x, y), yy.row(x, y), zz.row(x, y));
                let (rxy, rxz, ryz) = (xy.row(x, y), xz.row(x, y), yz.row(x, y));
                let rsig = sigma0.row(x, y);
                let (rc, rcos, rsin, rpf) =
                    (cohes.row(x, y), cosphi.row(x, y), sinphi.row(x, y), pf.row(x, y));
                let base = (y + h) * p.nz + h;
                let out = &mut pyld[base..base + d.nz];
                for z in 0..d.nz {
                    let (sxx, syy, szz) = (rxx[z], ryy[z], rzz[z]);
                    let (sxy, sxz, syz) = (rxy[z], rxz[z], ryz[z]);
                    let mean_dyn = (sxx + syy + szz) / 3.0;
                    let mean_total = mean_dyn + rsig[z];
                    let (dxx, dyy, dzz) = (sxx - mean_dyn, syy - mean_dyn, szz - mean_dyn);
                    let j2 = 0.5 * (dxx * dxx + dyy * dyy + dzz * dzz)
                        + sxy * sxy
                        + sxz * sxz
                        + syz * syz;
                    let tau_bar = j2.sqrt();
                    let c = rc[z];
                    let y_stress = (c * rcos[z] - (mean_total + rpf[z]) * rsin[z]).max(0.0);
                    let r = if tau_bar > y_stress && tau_bar > 0.0 {
                        local += 1;
                        y_stress / tau_bar
                    } else {
                        1.0
                    };
                    out[z] = r;
                }
            }
            yielding.fetch_add(local, Ordering::Relaxed);
        },
    );
    yielding.into_inner()
}

/// SIMD `drprecpc_app`: slice-based contiguous-row return mapping.
pub fn drprecpc_app_simd(s: &mut SolverState) {
    debug_assert!(s.options.nonlinear);
    let d = s.dims;
    let p = s.xx.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let (yldfac, mu) = (&s.yldfac, &s.mu);
    let planes =
        s.xx.raw_mut()
            .par_chunks_mut(stride)
            .zip(s.yy.raw_mut().par_chunks_mut(stride))
            .zip(s.zz.raw_mut().par_chunks_mut(stride))
            .zip(s.xy.raw_mut().par_chunks_mut(stride))
            .zip(s.xz.raw_mut().par_chunks_mut(stride))
            .zip(s.yz.raw_mut().par_chunks_mut(stride))
            .zip(s.eqp.raw_mut().par_chunks_mut(stride));
    planes.enumerate().skip(h).take(d.nx).for_each(
        |(px, ((((((pxx, pyy), pzz), pxy), pxz), pyz), peqp))| {
            let x = px - h;
            for y in 0..d.ny {
                let ryld = yldfac.row(x, y);
                let rmu = mu.row(x, y);
                let base = (y + h) * p.nz + h;
                for z in 0..d.nz {
                    let r = ryld[z];
                    if r >= 1.0 {
                        continue;
                    }
                    let o = base + z;
                    let (sxx, syy, szz) = (pxx[o], pyy[o], pzz[o]);
                    let mean = (sxx + syy + szz) / 3.0;
                    pxx[o] = mean + r * (sxx - mean);
                    pyy[o] = mean + r * (syy - mean);
                    pzz[o] = mean + r * (szz - mean);
                    pxy[o] *= r;
                    pxz[o] *= r;
                    pyz[o] *= r;
                    let m = rmu[z].max(1.0);
                    let tau_rel = (1.0 - r)
                        * ((sxx - mean).powi(2) + (syy - mean).powi(2) + (szz - mean).powi(2))
                            .sqrt();
                    peqp[o] += tau_rel / m;
                }
            }
        },
    );
}

/// SIMD Cerjan sponge: the damping multiply in vector lanes with a
/// scalar tail (each element is scaled independently, so lane width is
/// invisible bitwise).
pub fn apply_sponge_simd(s: &mut SolverState) {
    let d = s.dims;
    if s.options.sponge_width == 0 {
        return;
    }
    let p = s.u.padded_dims();
    let stride = p.ny * p.nz;
    let h = HALO_WIDTH;
    let dcrj = &s.dcrj;
    #[inline(always)]
    fn damp_row(seg: &mut [f32], damp: &[f32]) {
        let n = seg.len();
        let mut t = 0usize;
        while t + LANES <= n {
            (F32x8::load(&seg[t..]) * F32x8::load(&damp[t..])).store(&mut seg[t..]);
            t += LANES;
        }
        for z in t..n {
            seg[z] *= damp[z];
        }
    }
    let planes =
        s.u.raw_mut()
            .par_chunks_mut(stride)
            .zip(s.v.raw_mut().par_chunks_mut(stride))
            .zip(s.w.raw_mut().par_chunks_mut(stride))
            .zip(s.xx.raw_mut().par_chunks_mut(stride))
            .zip(s.yy.raw_mut().par_chunks_mut(stride))
            .zip(s.zz.raw_mut().par_chunks_mut(stride))
            .zip(s.xy.raw_mut().par_chunks_mut(stride))
            .zip(s.xz.raw_mut().par_chunks_mut(stride))
            .zip(s.yz.raw_mut().par_chunks_mut(stride));
    planes.enumerate().skip(h).take(d.nx).for_each(
        |(px, ((((((((pu, pv), pw), pxx), pyy), pzz), pxy), pxz), pyz))| {
            let x = px - h;
            for y in 0..d.ny {
                let damp = dcrj.row(x, y);
                let base = (y + h) * p.nz + h;
                for plane in [&mut *pu, pv, pw, pxx, pyy, pzz, pxy, pxz, pyz] {
                    damp_row(&mut plane[base..base + d.nz], damp);
                }
            }
        },
    );
    if s.options.attenuation {
        let [r0, r1, r2, r3, r4, r5] = &mut s.r;
        let planes = r0
            .raw_mut()
            .par_chunks_mut(stride)
            .zip(r1.raw_mut().par_chunks_mut(stride))
            .zip(r2.raw_mut().par_chunks_mut(stride))
            .zip(r3.raw_mut().par_chunks_mut(stride))
            .zip(r4.raw_mut().par_chunks_mut(stride))
            .zip(r5.raw_mut().par_chunks_mut(stride));
        planes.enumerate().skip(h).take(d.nx).for_each(|(px, (((((p0, p1), p2), p3), p4), p5))| {
            let x = px - h;
            for y in 0..d.ny {
                let damp = dcrj.row(x, y);
                let base = (y + h) * p.nz + h;
                for plane in [&mut *p0, p1, p2, p3, p4, p5] {
                    damp_row(&mut plane[base..base + d.nz], damp);
                }
            }
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::{apply_sponge, drprecpc_app, drprecpc_calc, dstrqc, dvelcx, dvelcy, fstr};
    use crate::state::StateOptions;
    use sw_grid::Dims3;
    use sw_model::HalfspaceModel;

    /// nz = 19 forces a 3-element scalar tail after two full lanes.
    fn noisy_state() -> SolverState {
        let opts = StateOptions { sponge_width: 0, ..Default::default() };
        let mut s = SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(12, 14, 19),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        );
        for (x, y, z) in s.dims.iter() {
            let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
            s.xx.set(x, y, z, v * 1e4);
            s.xy.set(x, y, z, -v * 5e3);
            s.yz.set(x, y, z, v * 3e3);
            s.u.set(x, y, z, v * 0.01);
            s.v.set(x, y, z, -v * 0.02);
            s.w.set(x, y, z, v * 0.005);
        }
        s
    }

    fn noisy_full_state() -> SolverState {
        let opts = StateOptions {
            sponge_width: 3,
            nonlinear: true,
            attenuation: true,
            plasticity: crate::state::PlasticityConfig {
                cohesion_surface: 1.0e5,
                cohesion_gradient: 0.0,
                friction_angle_deg: 30.0,
                fluid_pressure_ratio: 0.0,
            },
            ..Default::default()
        };
        let mut s = SolverState::from_model(
            &HalfspaceModel::hard_rock(),
            Dims3::new(12, 14, 19),
            100.0,
            (0.0, 0.0, 0.0),
            opts,
        );
        for (x, y, z) in s.dims.iter() {
            let v = ((x * 31 + y * 17 + z * 7) % 23) as f32 - 11.0;
            s.xx.set(x, y, z, v * 1e6);
            s.yy.set(x, y, z, -v * 4e5);
            s.zz.set(x, y, z, v * 7e5);
            s.xy.set(x, y, z, -v * 5e5);
            s.xz.set(x, y, z, v * 2e5);
            s.yz.set(x, y, z, v * 3e5);
            s.u.set(x, y, z, v * 0.01);
            s.v.set(x, y, z, -v * 0.02);
            s.w.set(x, y, z, v * 0.005);
            for r in s.r.iter_mut() {
                r.set(x, y, z, v * 1e3);
            }
        }
        s
    }

    #[test]
    fn simd_velocity_matches_serial_bitwise() {
        let mut serial = noisy_state();
        dvelcx(&mut serial);
        dvelcy(&mut serial);
        let mut simd = noisy_state();
        dvelc_simd(&mut simd);
        assert_eq!(serial.u.max_abs_diff(&simd.u), 0.0);
        assert_eq!(serial.v.max_abs_diff(&simd.v), 0.0);
        assert_eq!(serial.w.max_abs_diff(&simd.w), 0.0);
    }

    /// Tiny tiles force tile seams through the middle of the mesh; the
    /// result must not change (tiling only reorders cell visits).
    #[test]
    fn tile_boundaries_are_invisible() {
        let mut whole = noisy_state();
        dvelc_simd_tiled(&mut whole, usize::MAX, usize::MAX);
        let mut tiled = noisy_state();
        dvelc_simd_tiled(&mut tiled, 3, 5);
        assert_eq!(whole.u.max_abs_diff(&tiled.u), 0.0);
        assert_eq!(whole.w.max_abs_diff(&tiled.w), 0.0);
        let mut s_whole = noisy_full_state();
        dstrqc_simd_tiled(&mut s_whole, usize::MAX, usize::MAX);
        let mut s_tiled = noisy_full_state();
        dstrqc_simd_tiled(&mut s_tiled, 3, 5);
        for (a, b) in s_whole.stress().iter().zip(s_tiled.stress().iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
        for (a, b) in s_whole.r.iter().zip(s_tiled.r.iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn simd_stress_matches_serial_bitwise() {
        // attenuation on (full state) and off (noisy state): both paths
        for (mut serial, mut simd) in
            [(noisy_state(), noisy_state()), (noisy_full_state(), noisy_full_state())]
        {
            dstrqc(&mut serial);
            dstrqc_simd(&mut simd);
            for (a, b) in serial.stress().iter().zip(simd.stress().iter()) {
                assert_eq!(a.max_abs_diff(b), 0.0);
            }
            for (a, b) in serial.r.iter().zip(simd.r.iter()) {
                assert_eq!(a.max_abs_diff(b), 0.0);
            }
        }
    }

    #[test]
    fn simd_free_surface_matches_serial_bitwise() {
        let mut serial = noisy_full_state();
        fstr(&mut serial);
        let mut simd = noisy_full_state();
        fstr_simd(&mut simd);
        for (a, b) in [
            (&serial.zz, &simd.zz),
            (&serial.xz, &simd.xz),
            (&serial.yz, &simd.yz),
            (&serial.w, &simd.w),
        ] {
            assert_eq!(a.max_abs_diff(b), 0.0);
            // The mirrored halo planes too (max_abs_diff covers the interior).
            for (x, y) in [(0isize, 0isize), (4, 4), (11, 13)] {
                for z in [-1isize, -2] {
                    assert_eq!(a.at_i(x, y, z), b.at_i(x, y, z));
                }
            }
        }
    }

    #[test]
    fn simd_plasticity_matches_serial_bitwise() {
        let mut serial = noisy_full_state();
        let n_serial = drprecpc_calc(&mut serial);
        drprecpc_app(&mut serial);
        let mut simd = noisy_full_state();
        let n_simd = drprecpc_calc_simd(&mut simd);
        drprecpc_app_simd(&mut simd);
        assert!(n_serial > 0, "the noisy state must actually yield somewhere");
        assert_eq!(n_serial, n_simd);
        assert_eq!(serial.yldfac.max_abs_diff(&simd.yldfac), 0.0);
        assert_eq!(serial.eqp.max_abs_diff(&simd.eqp), 0.0);
        for (a, b) in serial.stress().iter().zip(simd.stress().iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }

    #[test]
    fn simd_sponge_matches_serial_bitwise() {
        let mut serial = noisy_full_state();
        apply_sponge(&mut serial);
        let mut simd = noisy_full_state();
        apply_sponge_simd(&mut simd);
        assert_eq!(serial.u.max_abs_diff(&simd.u), 0.0);
        assert_eq!(serial.xx.max_abs_diff(&simd.xx), 0.0);
        assert_eq!(serial.r[3].max_abs_diff(&simd.r[3]), 0.0);
    }

    #[test]
    fn repeated_simd_steps_stay_identical() {
        let mut serial = noisy_state();
        let mut simd = noisy_state();
        for _ in 0..5 {
            dvelcx(&mut serial);
            dvelcy(&mut serial);
            dstrqc(&mut serial);
            dvelc_simd(&mut simd);
            dstrqc_simd(&mut simd);
        }
        assert_eq!(serial.u.max_abs_diff(&simd.u), 0.0);
        assert_eq!(serial.xx.max_abs_diff(&simd.xx), 0.0);
    }

    /// The whole fast step sequence stays bit-identical to the reference
    /// over repeated steps with plasticity, attenuation and the sponge on.
    #[test]
    fn full_phase_sequence_stays_identical() {
        let mut serial = noisy_full_state();
        let mut simd = noisy_full_state();
        for _ in 0..3 {
            fstr(&mut serial);
            dvelcx(&mut serial);
            dvelcy(&mut serial);
            fstr(&mut serial);
            dstrqc(&mut serial);
            drprecpc_calc(&mut serial);
            drprecpc_app(&mut serial);
            apply_sponge(&mut serial);

            fstr_simd(&mut simd);
            dvelc_simd(&mut simd);
            fstr_simd(&mut simd);
            dstrqc_simd(&mut simd);
            drprecpc_calc_simd(&mut simd);
            drprecpc_app_simd(&mut simd);
            apply_sponge_simd(&mut simd);
        }
        assert_eq!(serial.u.max_abs_diff(&simd.u), 0.0);
        assert_eq!(serial.xx.max_abs_diff(&simd.xx), 0.0);
        assert_eq!(serial.eqp.max_abs_diff(&simd.eqp), 0.0);
        for (a, b) in serial.r.iter().zip(simd.r.iter()) {
            assert_eq!(a.max_abs_diff(b), 0.0);
        }
    }
}
