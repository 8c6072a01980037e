//! Order statistics over measured samples.

/// Linear-interpolated quantile `q` in `[0, 1]`; NaN when empty.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    let mut v: Vec<f64> = values.iter().copied().filter(|x| !x.is_nan()).collect();
    if v.is_empty() {
        return f64::NAN;
    }
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

/// `struct rusage` on 64-bit Linux: two timevals, then 14 longs.
#[repr(C)]
struct Rusage {
    times: [i64; 4],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
}

/// Peak resident set of this process so far, MB.
pub fn peak_rss_mb() -> f64 {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = Rusage { times: [0; 4], maxrss_kb: 0, rest: [0; 13] };
    // SAFETY: `ru` is a valid, writable `struct rusage` with the C layout
    // of 64-bit Linux; the call writes only through that pointer.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut ru) };
    if rc != 0 {
        return f64::NAN;
    }
    ru.maxrss_kb as f64 * 1024.0 / 1e6
}

fn clock_s(clock: i32) -> f64 {
    let mut ts = Timespec { tv_sec: 0, tv_nsec: 0 };
    // SAFETY: `ts` is a valid, writable timespec with the C layout
    // `clock_gettime` expects; the call writes only through that pointer.
    let rc = unsafe { clock_gettime(clock, &mut ts) };
    if rc != 0 {
        return f64::NAN;
    }
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// CPU seconds consumed so far by every thread of this process, exited
/// threads included (Linux `CLOCK_PROCESS_CPUTIME_ID`).
pub fn process_cpu_s() -> f64 {
    clock_s(2)
}

/// CPU seconds consumed so far by the calling thread alone (Linux
/// `CLOCK_THREAD_CPUTIME_ID`).
pub fn thread_cpu_s() -> f64 {
    clock_s(3)
}
