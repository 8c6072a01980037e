//! The paper's kernel set (§7.2), in two implementations.
//!
//! The **serial reference** kernels are the specification:
//!
//! * [`velocity`] — `dvelcx` / `dvelcy`: the velocity updates (central
//!   region and y-halo strips, split so halo communication overlaps the
//!   central computation);
//! * [`stress`] — `dstrqc`: the stress update with attenuation memory
//!   variables;
//! * [`freesurf`] — `fstr`: the stress-imaging free surface;
//! * [`plastic`] — `drprecpc_calc` / `drprecpc_app`: Drucker–Prager
//!   plasticity (paper eqs. 3–4);
//! * [`source`] — `addsrc`: moment-rate injection;
//! * [`sponge`] — the Cerjan absorbing boundary.
//!
//! The **fast path** is [`simd`]: the same kernels fanned out in x planes
//! over the Rayon pool (the host analogue of the Athread CPE pool), with
//! the stencils, plasticity and sponge vectorized over 8-wide lanes and
//! cache-tiled in z–y, bit-identical to the reference. `addsrc` touches a
//! few source cells, so both paths run the reference version.

pub mod freesurf;
pub mod plastic;
pub mod simd;
pub mod source;
pub mod sponge;
pub mod stress;
pub mod velocity;

pub use freesurf::{fstr, fstr_region};
pub use plastic::{drprecpc_app, drprecpc_app_region, drprecpc_calc, drprecpc_calc_region};
pub use simd::{
    apply_sponge_simd, drprecpc_app_simd, drprecpc_calc_simd, dstrqc_simd, dvelc_simd, fstr_simd,
};
pub use source::addsrc;
pub use sponge::{apply_sponge, apply_sponge_region};
pub use stress::dstrqc;
pub use velocity::{dvelcx, dvelcy};
