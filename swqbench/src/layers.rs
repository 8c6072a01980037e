//! The traced run: per-layer metrics.
//!
//! Layers are timed from this file, around calls into each layer's public
//! functions, on the workload's own data: a clone of the final state of the
//! serial reference run. Where a phase runs only inside the step, the
//! solver's existing hooks (`SimConfig::with_perf`, `with_timeline`,
//! `with_telemetry`) attribute the step's wall time to layers. Untraced and
//! traced solves alternate, so the tracing overhead is measured under the
//! same host conditions as the traced numbers.

use crate::host::{self, Host};
use crate::solve::{self, Solve, Variant};
use crate::stats::{median, quantile};
use crate::workload::{Workload, STRONG_MW};
use crate::{metric, Metric, Window};
use rayon::prelude::*;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;
use swquake::compress::{
    calibrated_codec, max_abs_bucket, Codec, EncodeStats, FieldStats, ResidentField3,
};
use swquake::core::flops::{
    DRPRECPC_APP_FLOPS, DRPRECPC_CALC_FLOPS, DSTRQC_FLOPS, DVELC_FLOPS, FSTR_FLOPS, SPONGE_FLOPS,
};
use swquake::core::resident::{tile_width_for_cap, RESIDENT_FIELDS};
use swquake::core::{kernels, ResidentMode, Simulation, SolverState};
use swquake::grid::{Field3, HALO_WIDTH};
use swquake::parallel::{HaloExchanger, RankGrid};
use swquake::source::PointSource;
use swquake::telemetry::perf::{KernelCounts, PerfRecorder};
use swquake::telemetry::timeline::{phase, TimelineRecorder};
use swquake::telemetry::Telemetry;
use swquake::Scenario;

/// Steps the fast-path kernel probe runs on the cloned state.
const KERNEL_STEPS: usize = 4;
/// Calls per serial reference kernel on the cloned state.
const REF_CALLS: usize = 2;
const ADDSRC_CALLS: usize = 1000;
/// Repetitions of the standalone codec and halo probes.
const PROBE_REPS: usize = 3;
/// Halo exchanges (one step's stress + velocity pair each) per probe.
const HALO_STEPS: usize = 10;
/// Empty parallel regions timed for the pool probe.
const POOL_REGIONS: usize = 2000;

/// The kernels of the step, in step order.
const KERNELS: [&str; 6] = ["fstr", "dvelc", "dstrqc", "drprecpc", "sponge", "addsrc"];

pub fn run(w: &Workload, text: &str, seed: u64, seconds: f64) -> (Vec<Metric>, Window) {
    let mut m = Vec::new();
    let host = host::calibrate();
    m.push(metric("host.stream_gbs", host.stream_gbs, "GB/s"));
    m.push(metric("host.fma_gflops", host.fma_gflops, "GFLOP/s"));
    m.push(metric("host.stream_array_mb", (host::TRIAD_ARRAY_MIB << 20) as f64 / 1e6, "MB"));

    let mut window = Window::default();
    crate::top_up_setups(w, seed, &mut window);
    let setup = crate::setup_medians(&window);
    for (name, v) in ["parse_s", "model_s", "config_s", "sim_new_s"].iter().zip(setup) {
        m.push(metric(format!("setup.{name}"), v, "s"));
    }

    // Untraced and traced solves alternate; the resident workload also
    // alternates the same scenario in full f32.
    let perf = Arc::new(PerfRecorder::new());
    let timeline = Arc::new(TimelineRecorder::new());
    let traced = Variant {
        perf: Some(Arc::clone(&perf)),
        timeline: Some(Arc::clone(&timeline)),
        ..Default::default()
    };
    let full_text = w.resident_cap.map(|_| {
        let mut s = Scenario::from_json(text).expect("generated scenario parses");
        s.resident = None;
        s.memory_cap_bytes = None;
        s.to_json()
    });
    let plain = Variant::default();
    let run_one = |window: &mut Window, sink: &mut Vec<Solve>, text: &str, v: &Variant| {
        sink.extend(crate::attempt(w, text, v, window));
    };
    // One unmeasured solve first, as in the end-to-end run.
    let mut warm = Vec::new();
    run_one(&mut window, &mut warm, text, &plain);
    let (mut untraced, mut traced_solves, mut full) = (Vec::new(), Vec::new(), Vec::new());
    let t0 = Instant::now();
    while window.failed == 0 && (traced_solves.is_empty() || t0.elapsed().as_secs_f64() < seconds) {
        run_one(&mut window, &mut untraced, text, &plain);
        run_one(&mut window, &mut traced_solves, text, &traced);
        if let Some(ft) = &full_text {
            run_one(&mut window, &mut full, ft, &plain);
        }
    }
    // The §6.5 codec-rebuild counters are reported only through telemetry,
    // which also reroutes the round trip; so they come from a separate solve.
    let mut rebuild_ratio = 0.0;
    let mut telemetered = Vec::new();
    if w.compression {
        let tel = Telemetry::enabled();
        run_one(
            &mut window,
            &mut telemetered,
            text,
            &Variant { telemetry: Some(tel.clone()), ..Default::default() },
        );
        let report = tel.report();
        let rebuilds = report.counter("compress.codec_rebuilds").unwrap_or(0) as f64;
        let reuses = report.counter("compress.codec_reuses").unwrap_or(0) as f64;
        if rebuilds + reuses > 0.0 {
            rebuild_ratio = rebuilds / (rebuilds + reuses);
        }
    }

    // Every solve is checked; the full-f32 twin must match bit for bit.
    let reference = match crate::reference(w, text) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("reference run failed: {e}");
            window.failed += 1;
            None
        }
    };
    let mut accuracy = Vec::new();
    if let Some(r) = &reference {
        for solves in [&warm, &untraced, &traced_solves, &telemetered] {
            accuracy.extend(solves.iter().map(|s| solve::check(r, s, w.bitwise())));
        }
        for set in [&mut warm, &mut untraced, &mut traced_solves, &mut telemetered] {
            window.failed += crate::keep_correct(r, set, w.bitwise());
        }
        window.failed += crate::keep_correct(r, &mut full, true);
    }
    m.push(metric(
        "seis_misfit",
        accuracy.iter().map(|c| c.seis_misfit).fold(0.0, f64::max),
        "ratio",
    ));
    m.push(metric("pgv_err", accuracy.iter().map(|c| c.pgv_err).fold(0.0, f64::max), "ratio"));
    m.push(metric("failed_frac", window.failed as f64 / window.attempted.max(1) as f64, "ratio"));
    let untraced: Vec<&Solve> = untraced.iter().collect();

    // Step coverage from the perf hook.
    let counts = perf.counts();
    let wall = |name: &str| counts.iter().find(|c| c.name == name).map_or(0.0, |c| c.wall_s);
    let ranks = (w.ranks.0 * w.ranks.1) as f64;
    // The hook notes one wall time per step (rank 0 only when multi-rank).
    let steps = traced_solves.iter().map(|s| s.steps).sum::<usize>().max(1) as f64;
    let step_total = perf.total_step_wall();
    let resident_s = wall("resident_decode") + wall("resident_encode");
    let kernels_s = ["fstr", "dvelc", "dstrqc", "drprecpc", "sponge", "attenuation"]
        .iter()
        .map(|k| wall(k))
        .sum::<f64>()
        / ranks
        - resident_s;
    let compression_s = wall("compression") / ranks;
    let halo_s = wall("halo") / ranks;
    let attributed = kernels_s + compression_s + resident_s + halo_s;
    let frac = |s: f64| if step_total > 0.0 { s / step_total } else { 0.0 };
    let traced_refs: Vec<&Solve> = traced_solves.iter().collect();
    let wall_steps =
        |solves: &[&Solve]| crate::per_step_ms(w, solves, |s| &s.step_walls, |s| s.stepping_s);
    let traced_p50 = median(&wall_steps(&traced_refs));
    m.extend(crate::wall_metrics(w, &untraced));
    m.push(metric("step.traced_ms_p50", traced_p50, "ms"));
    m.push(metric("step.attributed_frac", frac(attributed), "ratio"));
    m.push(metric("step.unattributed_ms", (step_total - attributed) / steps * 1e3, "ms"));
    m.push(metric(
        "trace.overhead_frac",
        traced_p50 / median(&wall_steps(&untraced)) - 1.0,
        "ratio",
    ));
    m.push(metric("kernels.step_frac", frac(kernels_s), "ratio"));
    m.push(metric("compression.step_frac", frac(compression_s), "ratio"));
    m.push(metric("resident.step_frac", frac(resident_s), "ratio"));
    m.push(metric("halo.step_frac", frac(halo_s), "ratio"));

    // Standalone layer probes on the reference run's final state.
    let scenario = Scenario::from_json(text).expect("generated scenario parses");
    let model = scenario.build_model();
    let cfg = scenario.to_config(model.as_ref()).expect("generated scenario lowers");
    let state = reference.and_then(|r| r.state).unwrap_or_else(|| {
        SolverState::from_model(model.as_ref(), cfg.dims, cfg.dx, cfg.origin, cfg.options)
    });
    kernel_metrics(&mut m, &state, &cfg, &host);
    compression_metrics(&mut m, &state, rebuild_ratio);
    resident_metrics(&mut m, w, &state, &untraced, &full);
    let (misfit, pgv_err) = strong_source_probe(w, text, &mut window);
    m.push(metric("resident.strong_seis_misfit", misfit, "ratio"));
    m.push(metric("resident.strong_pgv_err", pgv_err, "ratio"));
    halo_metrics(&mut m, w, &state, &timeline);
    pool_metrics(&mut m, &host);
    let io: Vec<f64> = untraced.iter().map(|s| s.io_s).collect();
    m.push(metric("io.write_s", median(&io), "s"));
    m.push(metric("io.mb", untraced.first().map_or(0.0, |s| s.io_bytes as f64 / 1e6), "MB"));
    window.solves = traced_solves;
    (m, window)
}

/// Per-cell cost model of one kernel, as computed from its source: flops
/// (the §7.1 convention of `core::flops`) and f32 streams read + written.
struct Cost {
    cells: f64,
    flops: f64,
    streams: f64,
}

fn cost(k: &str, s: &SolverState, sources: usize) -> Cost {
    let n = s.dims.len() as f64;
    let surface = (s.dims.nx * s.dims.ny) as f64;
    let atten = s.options.attenuation;
    match k {
        // Two calls per step; 8 reads + 9 writes per surface column.
        "fstr" => Cost { cells: 2.0 * surface, flops: FSTR_FLOPS, streams: 17.0 },
        // 6 stresses, 3 velocities, buoyancy read; 3 velocities written.
        "dvelc" => Cost { cells: n, flops: DVELC_FLOPS, streams: 13.0 },
        // Velocities, lam, mu, wp, ws, 6 stresses (+6 memory variables)
        // read; stresses (+ memory variables) written.
        "dstrqc" => Cost {
            cells: n,
            flops: if atten { DSTRQC_FLOPS } else { DSTRQC_FLOPS - 36.0 },
            streams: if atten { 31.0 } else { 19.0 },
        },
        // calc: 6 stresses + 5 material arrays read, yldfac written;
        // app: yldfac read (the stress rewrite touches yielding cells only).
        "drprecpc" => {
            Cost { cells: n, flops: DRPRECPC_CALC_FLOPS + DRPRECPC_APP_FLOPS, streams: 13.0 }
        }
        // dcrj + 9 wavefields (+6 memory variables) read and written.
        "sponge" => {
            Cost { cells: n, flops: SPONGE_FLOPS, streams: if atten { 31.0 } else { 19.0 } }
        }
        // Six stress cells read and written per source, one add each.
        _ => Cost { cells: sources as f64, flops: 6.0, streams: 12.0 },
    }
}

/// Seconds per step of the serial reference kernels on `s`.
fn reference_seconds(k: &str, s: &mut SolverState, sources: &[PointSource]) -> f64 {
    // A source injection touches a few cells: repeat it until the clock
    // resolves it.
    let calls = if k == "addsrc" { ADDSRC_CALLS } else { REF_CALLS };
    let t = Instant::now();
    for _ in 0..calls {
        match k {
            "fstr" => {
                kernels::fstr(s);
                kernels::fstr(s);
            }
            "dvelc" => {
                kernels::dvelcx(s);
                kernels::dvelcy(s);
            }
            "dstrqc" => kernels::dstrqc(s),
            "drprecpc" => {
                kernels::drprecpc_calc(s);
                kernels::drprecpc_app(s);
            }
            "sponge" => kernels::apply_sponge(s),
            _ => kernels::addsrc(s, sources, 0.1),
        }
        black_box(&*s);
    }
    t.elapsed().as_secs_f64() / calls as f64
}

fn kernel_metrics(
    m: &mut Vec<Metric>,
    state: &SolverState,
    cfg: &swquake::core::SimConfig,
    host: &Host,
) {
    // The fast path is whatever `Simulation` resolves for this mesh: step a
    // simulation built on a clone of the state with the perf hook armed.
    // The plasticity kernels run even on a linear workload, so their
    // standalone cost on this mesh is always measured.
    let mut fast_cfg = cfg.clone().with_resident(ResidentMode::Full).with_compression(false);
    fast_cfg.options.nonlinear = true;
    fast_cfg.stations.clear();
    let mut clone = state.clone();
    clone.options.nonlinear = true;
    let perf = Arc::new(PerfRecorder::new());
    let mut sim = Simulation::new_with_state(clone, &fast_cfg.with_perf(Arc::clone(&perf)))
        .expect("probe config is the validated scenario config");
    sim.run(KERNEL_STEPS);
    drop(sim);
    let counts: Vec<KernelCounts> = perf.counts();
    let fast_wall = |k: &str| -> f64 {
        let w = |n: &str| counts.iter().find(|c| c.name == n).map_or(0.0, |c| c.wall_s);
        match k {
            "dstrqc" => w("dstrqc") + w("attenuation"),
            _ => w(k),
        }
    };
    let mut reference = state.clone();
    reference.options.nonlinear = true;
    for k in KERNELS {
        let c = cost(k, state, cfg.sources.len());
        let ref_s = reference_seconds(k, &mut reference, &cfg.sources);
        // `addsrc` has one implementation, which serves every path.
        let fast_s = if k == "addsrc" { ref_s } else { fast_wall(k) / KERNEL_STEPS as f64 };
        let bytes = c.streams * 4.0 * c.cells;
        let flops = c.flops * c.cells;
        let bound =
            (host.fma_gflops * 1e9).min(host.stream_gbs * 1e9 * c.flops / (c.streams * 4.0));
        m.push(metric(format!("kernels.{k}.ms"), fast_s * 1e3, "ms"));
        m.push(metric(format!("kernels.{k}.ref_ms"), ref_s * 1e3, "ms"));
        m.push(metric(format!("kernels.{k}.mcells_s"), c.cells / fast_s / 1e6, "Mcells/s"));
        m.push(metric(format!("kernels.{k}.gbs_computed"), bytes / fast_s / 1e9, "GB/s"));
        m.push(metric(format!("kernels.{k}.roof_frac"), flops / fast_s / bound, "ratio"));
    }
}

const WAVEFIELDS: [&str; 9] = ["u", "v", "w", "xx", "yy", "zz", "xy", "xz", "yz"];

fn wavefields(s: &SolverState) -> [&Field3; 9] {
    [&s.u, &s.v, &s.w, &s.xx, &s.yy, &s.zz, &s.xy, &s.xz, &s.yz]
}

/// The §6.5 round trip on the nine wavefields, in its two stages: the
/// self-calibration max-abs scan and the 16-bit encode/decode.
fn compression_metrics(m: &mut Vec<Metric>, state: &SolverState, rebuild_ratio: f64) {
    let mut scan = Vec::new();
    let mut codec = Vec::new();
    let values: usize = wavefields(state).iter().map(|f| f.raw().len()).sum();
    for _ in 0..PROBE_REPS {
        let mut fields = wavefields(state).map(Field3::clone);
        let t = Instant::now();
        let maxes = fields.each_ref().map(swquake::compress::par::field_max_abs_par);
        scan.push(t.elapsed().as_secs_f64());
        let t = Instant::now();
        for ((f, name), max) in fields.iter_mut().zip(WAVEFIELDS).zip(maxes) {
            let base = Codec::paper_assignment(name, &FieldStats::empty());
            let c = calibrated_codec(&base, max_abs_bucket(max));
            swquake::compress::par::roundtrip_par(&c, f.raw_mut());
        }
        codec.push(t.elapsed().as_secs_f64());
    }
    let (scan_s, codec_s) = (median(&scan), median(&codec));
    // Computed bytes: the scan reads each f32 once; the in-place round
    // trip reads and writes it.
    let bytes = 12.0 * values as f64;
    m.push(metric("compression.ms", (scan_s + codec_s) * 1e3, "ms"));
    m.push(metric("compression.scan_ms", scan_s * 1e3, "ms"));
    m.push(metric("compression.codec_ms", codec_s * 1e3, "ms"));
    m.push(metric("compression.gbs_computed", bytes / (scan_s + codec_s) / 1e9, "GB/s"));
    m.push(metric("compression.rebuild_ratio", rebuild_ratio, "ratio"));
}

/// The compressed16 plane stores: encode and decode the 15 resident
/// fields of this state plane by plane, as the resident engine does.
fn resident_metrics(
    m: &mut Vec<Metric>,
    w: &Workload,
    state: &SolverState,
    untraced: &[&Solve],
    full: &[Solve],
) {
    let fields: Vec<&Field3> = wavefields(state).into_iter().chain(state.r.iter()).collect();
    let f32_bytes: usize = fields.iter().map(|f| f.raw().len() * 4).sum();
    let mut enc = Vec::new();
    let mut dec = Vec::new();
    let mut stored = 0usize;
    let mut rel_err = 0.0f32;
    for _ in 0..PROBE_REPS {
        let mut stores: Vec<ResidentField3> = fields
            .iter()
            .zip(RESIDENT_FIELDS)
            .map(|(f, name)| {
                ResidentField3::new(
                    f.dims(),
                    f.halo(),
                    Codec::paper_assignment(name, &FieldStats::empty()),
                )
            })
            .collect();
        let t = Instant::now();
        for (store, f) in stores.iter_mut().zip(&fields) {
            let mut stats = EncodeStats::empty();
            for p in 0..store.plane_count() {
                stats.merge(&store.encode_plane(p, f.plane(p)));
            }
            rel_err = rel_err.max(stats.rel_err());
        }
        enc.push(t.elapsed().as_secs_f64());
        let mut buf = Vec::new();
        let t = Instant::now();
        for store in &stores {
            buf.resize(store.plane_len(), 0.0);
            for p in 0..store.plane_count() {
                store.decode_plane_into(p, &mut buf);
            }
            black_box(&buf);
        }
        dec.push(t.elapsed().as_secs_f64());
        stored = stores.iter().map(|s| s.stored_bytes()).sum();
    }
    let (enc_s, dec_s) = (median(&enc), median(&dec));
    let tile_w = tile_width_for_cap(state.dims, w.resident_cap);
    let p50 = |walls: Vec<f64>| median(&walls);
    let vs_full = if full.is_empty() {
        0.0
    } else {
        p50(untraced.iter().flat_map(|s| s.step_walls.clone()).collect())
            / p50(full.iter().flat_map(|s| s.step_walls.clone()).collect())
    };
    let slab = untraced.first().and_then(|s| s.slab_bytes).unwrap_or(0);
    m.push(metric("resident.decode_ms", dec_s * 1e3, "ms"));
    m.push(metric("resident.encode_ms", enc_s * 1e3, "ms"));
    // Computed bytes: 4 read + 2 written per encoded f32 value.
    m.push(metric("resident.encode_gbs", 1.5 * f32_bytes as f64 / enc_s / 1e9, "GB/s"));
    m.push(metric("resident.tile_w", tile_w as f64, "count"));
    m.push(metric("resident.stored_mb", stored as f64 / 1e6, "MB"));
    m.push(metric("resident.slab_mb", slab as f64 / 1e6, "MB"));
    m.push(metric("resident.bytes_ratio", stored as f64 / f32_bytes as f64, "ratio"));
    m.push(metric("resident.rel_err_max", rel_err as f64, "ratio"));
    m.push(metric("resident.vs_full_ratio", vs_full, "ratio"));
}

/// The resident workload's scenario with the source raised to
/// `STRONG_MW`, solved once and compared with its own reference. Strong
/// yielding amplifies the 16-bit representation error, and at this
/// magnitude the seismogram misfit exceeds the gate's tier on some seeds
/// (see README.md), so it is reported here rather than gated. A solve
/// error still counts as failed. Zeros on workloads without a resident
/// mode.
fn strong_source_probe(w: &Workload, text: &str, window: &mut Window) -> (f64, f64) {
    if w.resident_cap.is_none() {
        return (0.0, 0.0);
    }
    let mut s = Scenario::from_json(text).expect("generated scenario parses");
    for src in &mut s.sources {
        src.mw = STRONG_MW;
    }
    let strong = s.to_json();
    let Some(got) = crate::attempt(w, &strong, &Variant::default(), window) else {
        return (f64::INFINITY, f64::INFINITY);
    };
    match crate::reference(w, &strong) {
        Ok(r) => {
            let c = solve::check(&r, &got, false);
            (c.seis_misfit, c.pgv_err)
        }
        Err(e) => {
            eprintln!("strong-source reference run failed: {e}");
            window.failed += 1;
            (f64::INFINITY, f64::INFINITY)
        }
    }
}

/// Halo exchange of this mesh on the workload's rank grid (a 2x1 split
/// for single-rank workloads), plus the rank skew seen in the traced run.
fn halo_metrics(
    m: &mut Vec<Metric>,
    w: &Workload,
    state: &SolverState,
    timeline: &TimelineRecorder,
) {
    let grid =
        if w.multirank() { RankGrid::new(w.ranks.0, w.ranks.1) } else { RankGrid::new(2, 1) };
    let global = state.dims;
    let mut exchange = Vec::new();
    let mut wait = Vec::new();
    let mut bytes = 0u64;
    let mut msgs = 0usize;
    for _ in 0..PROBE_REPS {
        let tel = Telemetry::enabled();
        let ex = HaloExchanger::standard().with_telemetry(tel.clone());
        let per_rank: Vec<(f64, usize)> = swquake::parallel::run_ranks(grid, |comm| {
            let (_, _, local) = grid.local_span(comm.rank, global);
            let mut f: Vec<Field3> = (0..9).map(|_| Field3::new(local, HALO_WIDTH)).collect();
            let (vel, stress) = f.split_at_mut(3);
            let faces =
                swquake::grid::halo::Face::ALL.iter().filter(|f| comm.has_neighbor(**f)).count();
            let t = Instant::now();
            for _ in 0..HALO_STEPS {
                let mut s: Vec<&mut Field3> = stress.iter_mut().collect();
                ex.exchange(comm, &mut s);
                let mut v: Vec<&mut Field3> = vel.iter_mut().collect();
                ex.exchange(comm, &mut v);
            }
            (t.elapsed().as_secs_f64(), 2 * faces)
        });
        let report = tel.report();
        let ranks = per_rank.len() as f64;
        exchange.push(per_rank.iter().map(|r| r.0).sum::<f64>() / ranks / HALO_STEPS as f64);
        let wait_s: f64 = (0..per_rank.len())
            .filter_map(|r| report.timer(&format!("halo.wait.rank{r}")).map(|t| t.total_s))
            .sum();
        wait.push(wait_s / ranks / HALO_STEPS as f64);
        bytes = report.counter("halo.bytes_sent").unwrap_or(0) / HALO_STEPS as u64;
        msgs = per_rank.iter().map(|r| r.1).sum();
    }
    // Rank skew of the traced run: spread of per-rank busy (non-wait) time.
    let report = timeline.report();
    let mut busy = vec![0.0f64; report.ranks];
    for p in report.phases.iter().filter(|p| p.name != phase::HALO_WAIT) {
        for (b, s) in busy.iter_mut().zip(&p.per_rank_s) {
            *b += s;
        }
    }
    let mean = busy.iter().sum::<f64>() / busy.len().max(1) as f64;
    let skew = if busy.len() > 1 && mean > 0.0 {
        (busy.iter().copied().fold(f64::MIN, f64::max)
            - busy.iter().copied().fold(f64::MAX, f64::min))
            / mean
    } else {
        0.0
    };
    m.push(metric("halo.exchange_ms", median(&exchange) * 1e3, "ms"));
    m.push(metric("halo.wait_ms", median(&wait) * 1e3, "ms"));
    m.push(metric("halo.msgs_per_step", msgs as f64, "count"));
    m.push(metric("halo.mb_per_step", bytes as f64 / 1e6, "MB"));
    m.push(metric("ranks.skew", skew, "ratio"));
}

/// Cost of one empty parallel region of `threads` items on the pool.
fn pool_metrics(m: &mut Vec<Metric>, host: &Host) {
    let mut samples = Vec::with_capacity(POOL_REGIONS);
    for _ in 0..POOL_REGIONS {
        let t = Instant::now();
        (0..host.threads).into_par_iter().for_each(|i| {
            black_box(i);
        });
        samples.push(t.elapsed().as_secs_f64());
    }
    m.push(metric("pool.region_us", quantile(&samples, 0.5) * 1e6, "us"));
    m.push(metric("pool.threads", host.threads as f64, "count"));
}
