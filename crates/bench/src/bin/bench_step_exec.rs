//! `step_exec` — serial reference vs fast path, full production step.
//!
//! Times the complete per-step pipeline (free surface, velocity, stress +
//! attenuation, source injection, plasticity, sponge, and the §6.5
//! compression round trip) on a 64³ mesh under `ExecMode::Serial` and
//! the fast path, on a **one-thread** pool: the ratio then measures what
//! vectorization and tiling buy, not how many cores the runner has.
//!
//! The two modes run in interleaved rounds that alternate which one goes
//! first, so a slow spell on a shared host lands on both sides instead
//! of biasing one. Each round yields one fast/serial ratio of per-step
//! medians; the spread of those ratios is printed and stored.
//!
//! Records of the schema-v2 [`BenchReport`]:
//!
//! * `step_exec/serial`, `step_exec/fast` — absolute seconds per step
//!   over every timed step of every round. They carry the host
//!   fingerprint (a diff against a baseline from another machine skips
//!   them) and a generous per-record tolerance for same-host reruns;
//! * `step_exec/fast_over_serial` — the **dimensionless ratio** (unit
//!   `ratio`): median over rounds in `median_s`, the round ratios'
//!   spread in `min_s`/`max_s`. The committed baseline
//!   `BENCH_step_exec.json` pins it, so `swquake bench-diff
//!   BENCH_step_exec.json <this output> --tolerance 0` fails when the
//!   fast path stops paying for itself on one core;
//! * `step_exec/kernel/<name>` — absolute per-kernel wall seconds per
//!   step from the fast path's perf ledger (host-stamped, throughput in
//!   `cells`).
//!
//! Usage: `bench_step_exec [out.json]` (default
//! `BENCH_step_exec_new.json`).

use std::sync::Arc;
use std::time::Instant;

use sw_grid::Dims3;
use sw_model::LayeredModel;
use sw_source::{MomentTensor, PointSource, SourceTimeFunction};
use sw_telemetry::bench::{BenchRecord, BenchReport};
use sw_telemetry::perf::{HostFingerprint, PerfLedger, PerfRecorder};
use swquake_core::{ExecMode, ExecPath, SimConfig, Simulation};

const SIDE: usize = 64;
const WARMUP_STEPS: usize = 3;
const TIMED_STEPS: usize = 8;
/// Interleaved rounds per run; each contributes one fast/serial ratio.
const ROUNDS: usize = 6;

/// Fractional slowdown same-host reruns of the absolute records are
/// allowed before gating (absolute wall times on a shared CI box are
/// noisy; the ratio record is the tight gate).
const ABSOLUTE_TOLERANCE: f64 = 10.0;

/// The production step shape: nonlinear + attenuation + sponge +
/// self-calibrating compression, with a real source so the wavefield is
/// non-trivial by the time the timed steps run.
fn bench_config() -> SimConfig {
    let mut cfg = SimConfig::new(Dims3::cube(SIDE), 100.0, WARMUP_STEPS + TIMED_STEPS);
    cfg.options.sponge_width = 8;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    cfg.sources = vec![PointSource {
        ix: SIDE / 2,
        iy: SIDE / 2,
        iz: SIDE / 3,
        moment: MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14),
        stf: SourceTimeFunction::Triangle { onset: 0.02, duration: 0.3 },
    }];
    cfg.with_compression(true)
}

/// Per-step wall times plus the perf ledger for one run of one mode.
/// Both modes run with the recorder armed so its (tiny) overhead
/// cancels out of the ratio.
fn time_mode(exec: ExecMode) -> (Vec<f64>, PerfLedger) {
    let model = LayeredModel::north_china();
    let recorder = Arc::new(PerfRecorder::new());
    let cfg = bench_config().with_exec(exec).with_perf(Arc::clone(&recorder));
    let mut sim = Simulation::new(&model, &cfg).expect("valid bench config");
    sim.run(WARMUP_STEPS);
    let samples = (0..TIMED_STEPS)
        .map(|_| {
            let t0 = Instant::now();
            sim.step();
            t0.elapsed().as_secs_f64()
        })
        .collect();
    let ledger = sim.perf_ledger().expect("recorder is armed");
    (samples, ledger)
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

fn median(samples: &[f64]) -> f64 {
    let s = sorted(samples);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

fn record(name: &str, samples: &[f64], host: &str) -> BenchRecord {
    let s = sorted(samples);
    let n = s.len();
    BenchRecord {
        name: name.to_string(),
        samples: n as u64,
        median_s: median(&s),
        mean_s: s.iter().sum::<f64>() / n as f64,
        min_s: s[0],
        max_s: s[n - 1],
        throughput: (SIDE * SIDE * SIDE) as f64,
        throughput_unit: "elements".to_string(),
        tolerance: Some(ABSOLUTE_TOLERANCE),
        host: Some(host.to_string()),
    }
}

fn main() {
    let path = std::env::args().nth(1).unwrap_or_else(|| "BENCH_step_exec_new.json".to_string());
    rayon::ThreadPoolBuilder::new()
        .num_threads(1)
        .build_global()
        .expect("the vendored pool accepts reconfiguration");
    // The fast side runs the default mode, which must pick the fast path.
    assert_eq!(ExecMode::Auto.resolve_path(SIDE.pow(3)), ExecPath::Fast);
    println!(
        "step_exec: {SIDE}^3 mesh, {ROUNDS} interleaved rounds of {TIMED_STEPS} timed steps \
         per mode, 1 worker thread"
    );

    let host = HostFingerprint::detect(1).id();
    let (mut serial_all, mut fast_all, mut ratios) = (Vec::new(), Vec::new(), Vec::new());
    let mut fast_ledger = None;
    for round in 0..ROUNDS {
        // Alternate the order so drift in host load hits both modes.
        let order = if round % 2 == 0 {
            [ExecMode::Serial, ExecMode::Auto]
        } else {
            [ExecMode::Auto, ExecMode::Serial]
        };
        let (mut serial, mut fast) = (Vec::new(), Vec::new());
        for exec in order {
            let (samples, ledger) = time_mode(exec);
            if exec == ExecMode::Serial {
                serial = samples;
            } else {
                fast = samples;
                fast_ledger = Some(ledger);
            }
        }
        let ratio = median(&fast) / median(&serial);
        println!(
            "  round {round}: serial {:.4} s/step, fast {:.4} s/step, ratio {ratio:.3}",
            median(&serial),
            median(&fast)
        );
        ratios.push(ratio);
        serial_all.extend(serial);
        fast_all.extend(fast);
    }

    let serial = record("step_exec/serial", &serial_all, &host);
    let fast = record("step_exec/fast", &fast_all, &host);
    let r = sorted(&ratios);
    let ratio = BenchRecord {
        name: "step_exec/fast_over_serial".to_string(),
        samples: r.len() as u64,
        median_s: median(&r),
        mean_s: r.iter().sum::<f64>() / r.len() as f64,
        min_s: r[0],
        max_s: r[r.len() - 1],
        throughput: 1.0,
        throughput_unit: "ratio".to_string(),
        tolerance: None,
        host: None,
    };
    println!(
        "serial {:.4} s/step, fast {:.4} s/step; fast/serial median {:.3} \
         (rounds {:.3}..{:.3}, {:.2}x)",
        serial.median_s,
        fast.median_s,
        ratio.median_s,
        ratio.min_s,
        ratio.max_s,
        1.0 / ratio.median_s,
    );

    let mut report = BenchReport::new();
    report.records = vec![serial, fast, ratio];
    // Per-kernel absolute throughput records from the last fast run's
    // ledger (host-stamped; diffs against a foreign baseline skip them).
    let ledger = fast_ledger.expect("at least one round ran");
    let mut kernel_report = ledger.to_bench_report("step_exec/kernel");
    for r in &mut kernel_report.records {
        r.tolerance = Some(ABSOLUTE_TOLERANCE);
    }
    report.records.extend(kernel_report.records);
    let n = report.records.len();
    report.write_file(std::path::Path::new(&path)).expect("failed to write bench JSON");
    println!("wrote {path} ({n} records)");
}
