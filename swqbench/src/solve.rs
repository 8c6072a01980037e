//! One solve through the library path `swquake run` takes, and the
//! correctness check against the serial reference.

use crate::stats::{process_cpu_s, thread_cpu_s};
use crate::workload::Workload;
use std::sync::Arc;
use std::time::Instant;
use swquake::core::driver::run_multirank;
use swquake::core::{ExecMode, ResidentMode, SimConfig, Simulation, SolverState};
use swquake::health::HealthConfig;
use swquake::io::recorder::Seismogram;
use swquake::parallel::RankGrid;
use swquake::telemetry::perf::PerfRecorder;
use swquake::telemetry::timeline::TimelineRecorder;
use swquake::telemetry::Telemetry;
use swquake::Scenario;

/// Seismogram misfit tier for the lossy resident mode (the tier
/// `tests/resident_equivalence.rs` pins).
pub const MISFIT_TIER: f64 = 0.05;
/// PGV tier for the lossy resident mode, as a fraction of peak PGV.
pub const PGV_TIER: f64 = 0.05;

/// How a solve departs from the plain user run.
#[derive(Clone, Default)]
pub struct Variant {
    /// Serial reference kernels, full f32, one rank; keeps the final
    /// state.
    pub reference: bool,
    pub perf: Option<Arc<PerfRecorder>>,
    pub timeline: Option<Arc<TimelineRecorder>>,
    pub telemetry: Option<Telemetry>,
}

/// What one solve measured and produced.
pub struct Solve {
    /// Scenario text to written outputs, s.
    pub run_s: f64,
    /// The stepping phase alone, s.
    pub stepping_s: f64,
    /// Per-step wall seconds (single-rank solves only).
    pub step_walls: Vec<f64>,
    /// Per-step CPU seconds of the whole process (single-rank only).
    pub step_cpu: Vec<f64>,
    /// Per-step CPU seconds of the thread that drives the step
    /// (single-rank only).
    pub step_main_cpu: Vec<f64>,
    /// Process CPU seconds of the whole solve and of its stepping phase.
    pub cpu_s: f64,
    pub stepping_cpu_s: f64,
    pub steps: usize,
    /// Output writing, s, and the bytes written.
    pub io_s: f64,
    pub io_bytes: u64,
    pub seismograms: Vec<Seismogram>,
    pub pgv: Vec<f32>,
    /// Final state of a reference solve.
    pub state: Option<SolverState>,
    /// Decode slab of a compressed16-resident solve.
    pub slab_bytes: Option<u64>,
}

/// The health config the CLI arms by default.
fn health(prefix: &str) -> HealthConfig {
    HealthConfig::default().with_bundle_dir(format!("{prefix}_health_bundle"))
}

/// Wall seconds of the four set-up phases, scenario text to constructed
/// simulation on the full mesh: parse, build the earth model, lower to a
/// validated config, construct.
pub fn setup_phases(text: &str) -> Result<[f64; 4], String> {
    let t = Instant::now();
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    let parse_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let model = scenario.build_model();
    let model_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let cfg = scenario
        .to_config(model.as_ref())
        .map_err(|e| e.to_string())?
        .with_health(health(&scenario.output_prefix));
    let config_s = t.elapsed().as_secs_f64();
    let t = Instant::now();
    let sim = Simulation::new(model.as_ref(), &cfg).map_err(|e| e.to_string())?;
    let new_s = t.elapsed().as_secs_f64();
    drop(std::hint::black_box(sim));
    Ok([parse_s, model_s, config_s, new_s])
}

fn apply_hooks(mut cfg: SimConfig, v: &Variant) -> SimConfig {
    if let Some(t) = &v.telemetry {
        cfg = cfg.with_telemetry(t.clone());
    }
    if let Some(p) = &v.perf {
        cfg = cfg.with_perf(Arc::clone(p));
    }
    if let Some(t) = &v.timeline {
        cfg = cfg.with_timeline(Arc::clone(t));
    }
    cfg
}

/// Run `text` end to end: parse, build the model, lower, construct,
/// step with the health watchdog armed, write the result files.
pub fn solve(w: &Workload, text: &str, v: &Variant) -> Result<Solve, String> {
    let t0 = Instant::now();
    let c0 = process_cpu_s();
    let scenario = Scenario::from_json(text).map_err(|e| e.to_string())?;
    let model = scenario.build_model();
    let mut cfg = scenario.to_config(model.as_ref()).map_err(|e| e.to_string())?;
    let mut prefix = scenario.output_prefix.clone();
    if v.reference {
        cfg = cfg.with_exec(ExecMode::Serial).with_resident(ResidentMode::Full);
        prefix.push_str("_ref");
    }
    cfg = apply_hooks(cfg, v).with_health(health(&prefix));
    let tel = cfg.telemetry.clone();
    let steps = cfg.steps;
    if w.multirank() && !v.reference {
        let ts = Instant::now();
        let cs = process_cpu_s();
        let out = run_multirank(model.as_ref(), &cfg, RankGrid::new(w.ranks.0, w.ranks.1))
            .map_err(|e| e.to_string())?;
        let stepping_s = ts.elapsed().as_secs_f64();
        let stepping_cpu_s = process_cpu_s() - cs;
        let ti = Instant::now();
        let files = swquake::outputs::write_multirank_outputs(&out, &cfg, &prefix, &tel)
            .map_err(|e| e.to_string())?;
        let io_s = ti.elapsed().as_secs_f64();
        return Ok(Solve {
            run_s: t0.elapsed().as_secs_f64(),
            stepping_s,
            step_walls: Vec::new(),
            step_cpu: Vec::new(),
            step_main_cpu: Vec::new(),
            cpu_s: process_cpu_s() - c0,
            stepping_cpu_s,
            steps,
            io_s,
            io_bytes: file_bytes(&[&files.seismograms, &files.hazard]),
            seismograms: out.seismograms,
            pgv: out.pgv.pgv,
            state: None,
            slab_bytes: None,
        });
    }
    let mut sim = Simulation::new(model.as_ref(), &cfg).map_err(|e| e.to_string())?;
    let ts = Instant::now();
    let cs = process_cpu_s();
    let mut step_walls = Vec::with_capacity(steps);
    let mut step_cpu = Vec::with_capacity(steps);
    let mut step_main_cpu = Vec::with_capacity(steps);
    for _ in 0..steps {
        let t = Instant::now();
        let c = process_cpu_s();
        let m = thread_cpu_s();
        sim.step_checked().map_err(|e| e.to_string())?;
        step_walls.push(t.elapsed().as_secs_f64());
        step_main_cpu.push(thread_cpu_s() - m);
        step_cpu.push(process_cpu_s() - c);
    }
    let stepping_s = ts.elapsed().as_secs_f64();
    let stepping_cpu_s = process_cpu_s() - cs;
    if sim.state.has_blown_up() {
        return Err("wavefield blew up without a watchdog verdict".to_string());
    }
    let ti = Instant::now();
    let files =
        swquake::outputs::write_outputs(&sim, &cfg, &prefix, &tel).map_err(|e| e.to_string())?;
    let io_s = ti.elapsed().as_secs_f64();
    let run_s = t0.elapsed().as_secs_f64();
    Ok(Solve {
        cpu_s: process_cpu_s() - c0,
        stepping_cpu_s,
        step_cpu,
        step_main_cpu,
        run_s,
        stepping_s,
        step_walls,
        steps,
        io_s,
        io_bytes: file_bytes(&[&files.seismograms, &files.hazard]),
        seismograms: sim.seismo.seismograms().to_vec(),
        pgv: sim.pgv.pgv.clone(),
        slab_bytes: sim.resident_working_set_bytes(),
        state: v.reference.then_some(sim.state),
    })
}

fn file_bytes(paths: &[&str]) -> u64 {
    paths.iter().map(|p| std::fs::metadata(p).map_or(0, |m| m.len())).sum()
}

/// How far a solve's observables are from the reference.
#[derive(Debug, Clone, Copy)]
pub struct Check {
    /// Largest per-station relative L2 seismogram misfit.
    pub seis_misfit: f64,
    /// Largest PGV difference as a fraction of the reference peak PGV.
    pub pgv_err: f64,
    pub ok: bool,
}

/// Compare `got` with the reference: bit for bit when `bitwise`, else
/// within the resident tier. A reference without surface motion fails,
/// so a zeroed wavefield can never pass as close.
pub fn check(reference: &Solve, got: &Solve, bitwise: bool) -> Check {
    let peak = reference.pgv.iter().copied().fold(0.0f32, f32::max) as f64;
    let same_shape =
        reference.seismograms.len() == got.seismograms.len()
            && reference.pgv.len() == got.pgv.len()
            && reference.seismograms.iter().zip(&got.seismograms).all(|(a, b)| {
                a.station.name == b.station.name && a.samples.len() == b.samples.len()
            });
    if !same_shape || peak <= 0.0 {
        return Check { seis_misfit: f64::INFINITY, pgv_err: f64::INFINITY, ok: false };
    }
    let seis_misfit = reference
        .seismograms
        .iter()
        .zip(&got.seismograms)
        .map(|(r, g)| g.normalized_misfit(r))
        .fold(0.0f64, |a, b| if b.is_nan() { f64::INFINITY } else { a.max(b) });
    let pgv_err = reference
        .pgv
        .iter()
        .zip(&got.pgv)
        .map(|(r, g)| (*r as f64 - *g as f64).abs() / peak)
        .fold(0.0f64, |a, b| if b.is_nan() { f64::INFINITY } else { a.max(b) });
    let ok = if bitwise {
        let bits = |s: &Solve| -> Vec<u32> {
            s.seismograms
                .iter()
                .flat_map(|x| x.samples.iter().flatten().map(|v| v.to_bits()))
                .chain(s.pgv.iter().map(|v| v.to_bits()))
                .collect()
        };
        bits(reference) == bits(got)
    } else {
        seis_misfit < MISFIT_TIER && pgv_err <= PGV_TIER
    };
    Check { seis_misfit, pgv_err, ok }
}
