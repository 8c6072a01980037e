//! Host calibration: the denominators of the per-kernel roofline.
//!
//! Stream-triad bandwidth over arrays far larger than the last-level
//! cache, and the peak multiply-add rate of a register-resident loop, both
//! on every core the pool uses.

use std::hint::black_box;
use std::time::Instant;

/// Each triad array, MiB. On the reference host (300 MiB shared L3) the
/// three arrays together (1.5 GiB) are over 4x the L3, and each alone
/// exceeds it.
pub const TRIAD_ARRAY_MIB: usize = 512;
/// Triad passes; the best one is reported (the STREAM convention).
const TRIAD_PASSES: usize = 4;
/// Independent multiply-add chains per thread: enough to cover the
/// latency of the vector units, few enough to stay in registers.
const FMA_LANES: usize = 48;
const FMA_ITERS: u64 = 4_000_000;

pub struct Host {
    /// Best triad bandwidth, GB/s (3 f32 streams per element).
    pub stream_gbs: f64,
    /// Multiply-add peak, GFLOP/s (2 flops per pair).
    pub fma_gflops: f64,
    pub threads: usize,
}

pub fn calibrate() -> Host {
    let threads = rayon::current_num_threads().max(1);
    Host { stream_gbs: triad(threads), fma_gflops: fma(threads), threads }
}

fn triad(threads: usize) -> f64 {
    let n = TRIAD_ARRAY_MIB * (1 << 20) / 4;
    let chunk = n.div_ceil(threads);
    let mut a = vec![0.0f32; n];
    let mut b = vec![0.0f32; n];
    let mut c = vec![0.0f32; n];
    // First touch on the threads that later stream the same chunks.
    std::thread::scope(|s| {
        for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks_mut(chunk)).zip(c.chunks_mut(chunk)) {
            s.spawn(move || {
                a.fill(0.0);
                b.fill(1.0);
                c.fill(2.0);
            });
        }
    });
    let scalar = black_box(3.0f32);
    let mut best = 0.0f64;
    for _ in 0..TRIAD_PASSES {
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a.chunks_mut(chunk).zip(b.chunks(chunk)).zip(c.chunks(chunk)) {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + scalar * c;
                    }
                });
            }
        });
        let secs = t.elapsed().as_secs_f64();
        black_box(&a);
        best = best.max((3 * 4 * n) as f64 / secs / 1e9);
    }
    best
}

fn fma(threads: usize) -> f64 {
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| {
                let mut acc = [1.0f32; FMA_LANES];
                let m = black_box(0.999_999f32);
                let add = black_box(1.0e-7f32);
                for _ in 0..FMA_ITERS {
                    for x in acc.iter_mut() {
                        *x = *x * m + add;
                    }
                }
                black_box(acc);
            });
        }
    });
    let flops = 2.0 * (FMA_LANES as u64 * FMA_ITERS * threads as u64) as f64;
    flops / t.elapsed().as_secs_f64() / 1e9
}
