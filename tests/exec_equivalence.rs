//! The execution-mode contract: the fast path (the vectorized,
//! cache-tiled kernels on the Rayon CPE-pool analogue) must be
//! **bit-identical** to the serial reference on the full production
//! feature set — nonlinear plasticity, attenuation, Cerjan sponge, and the
//! §6.5 compression round trip — on the single-rank path (including a
//! mesh whose z extent leaves a scalar lane tail and whose y extent
//! crosses a cache-tile seam), under the 2×2 rank decomposition, in the
//! health records, and across checkpoint/restore in either direction.
//! That is the property that lets mode be a pure performance choice.

use swquake::core::driver::run_multirank;
use swquake::core::kernels::simd::TILE_Y;
use swquake::core::{ExecMode, ExecPath, SimConfig, Simulation};
use swquake::grid::simd::LANES;
use swquake::grid::Dims3;
use swquake::health::budget::{BudgetTracker, CompressionSample};
use swquake::health::HealthConfig;
use swquake::io::Station;
use swquake::model::LayeredModel;
use swquake::parallel::RankGrid;
use swquake::source::{MomentTensor, PointSource, SourceTimeFunction};

/// The fast path, by one of its accepted spellings (`parallel` and
/// `auto` resolve to the same kernels; `auto` only from 32³ points on).
const FAST: ExecMode = ExecMode::Simd;

/// Pin a real pool so the fast path genuinely fans out (idempotent;
/// shared by every test in this binary).
fn pin_pool() {
    rayon::ThreadPoolBuilder::new().num_threads(4).build_global().unwrap();
}

/// Every production feature on at once, with sources near rank seams.
fn production_config() -> SimConfig {
    let dims = Dims3::new(30, 28, 16);
    let mut cfg = SimConfig::new(dims, 150.0, 60).with_compression(true);
    cfg.options.sponge_width = 5;
    cfg.options.attenuation = true;
    cfg.options.nonlinear = true;
    let moment = MomentTensor::double_couple(30.0, 80.0, 170.0, 3.0e14);
    let stf = SourceTimeFunction::Triangle { onset: 0.05, duration: 0.5 };
    cfg.sources = vec![
        PointSource { ix: 14, iy: 13, iz: 8, moment, stf },
        PointSource { ix: 15, iy: 14, iz: 5, moment, stf },
        PointSource { ix: 1, iy: 26, iz: 10, moment, stf },
    ];
    cfg.stations = vec![
        Station { name: "A".into(), ix: 5, iy: 5 },
        Station { name: "B".into(), ix: 15, iy: 14 }, // on the 2x2 rank seam
        Station { name: "C".into(), ix: 28, iy: 3 },
    ];
    cfg
}

fn run_mode(cfg: &SimConfig, exec: ExecMode) -> Simulation {
    let model = LayeredModel::north_china();
    let mut sim = Simulation::new(&model, &cfg.clone().with_exec(exec)).expect("valid config");
    sim.run(cfg.steps);
    sim
}

fn assert_states_identical(a: &Simulation, b: &Simulation) {
    assert_eq!(a.state.u.max_abs_diff(&b.state.u), 0.0, "u differs");
    assert_eq!(a.state.v.max_abs_diff(&b.state.v), 0.0, "v differs");
    assert_eq!(a.state.w.max_abs_diff(&b.state.w), 0.0, "w differs");
    assert_eq!(a.state.xx.max_abs_diff(&b.state.xx), 0.0, "xx differs");
    assert_eq!(a.state.yz.max_abs_diff(&b.state.yz), 0.0, "yz differs");
    assert_eq!(a.state.eqp.max_abs_diff(&b.state.eqp), 0.0, "eqp differs");
    for (i, (ra, rb)) in a.state.r.iter().zip(b.state.r.iter()).enumerate() {
        assert_eq!(ra.max_abs_diff(rb), 0.0, "r{} differs", i + 1);
    }
    for (sa, sb) in a.seismo.seismograms().iter().zip(b.seismo.seismograms()) {
        assert_eq!(sa.samples, sb.samples, "station {} differs", sa.station.name);
    }
}

/// The production features on a mesh that exercises the fast kernels'
/// edges: `nz` leaves a scalar tail after the last full lane and `ny`
/// crosses a y-tile seam.
fn tail_and_seam_config() -> SimConfig {
    let dims = Dims3::new(18, TILE_Y + 5, 2 * LANES + 5);
    let mut cfg = production_config();
    cfg.dims = dims;
    cfg.steps = 40;
    cfg.sources.retain(|s| s.ix < dims.nx && s.iy < dims.ny && s.iz < dims.nz);
    cfg.stations.retain(|s| s.ix < dims.nx && s.iy < dims.ny);
    cfg.stations.push(Station { name: "seam".into(), ix: 9, iy: TILE_Y });
    cfg
}

/// Single rank: the fast step pipeline (free surface, velocity, stress,
/// plasticity, sponge, compression) run under `exec` bit-matches the
/// serial reference over a nonlinear run, on the base mesh and on the
/// tail-and-seam mesh.
fn assert_fast_matches_serial_single_rank(exec: ExecMode) {
    pin_pool();
    let seam = tail_and_seam_config();
    assert!(!seam.dims.nz.is_multiple_of(LANES) && seam.dims.ny > TILE_Y);
    assert!(!seam.sources.is_empty() && seam.stations.len() >= 2);
    for cfg in [production_config(), seam] {
        let serial = run_mode(&cfg, ExecMode::Serial);
        let fast = run_mode(&cfg, exec);
        assert_eq!(serial.exec_path(), ExecPath::Serial);
        assert_eq!(fast.exec_path(), ExecPath::Fast, "{exec} resolves to the fast path");
        assert!(!serial.state.has_blown_up());
        assert!(serial.state.eqp.max_abs() > 0.0, "plasticity must engage on {}", cfg.dims);
        assert_states_identical(&serial, &fast);
    }
}

#[test]
fn parallel_matches_serial_single_rank() {
    assert_fast_matches_serial_single_rank(ExecMode::Parallel);
}

#[test]
fn simd_matches_serial_single_rank() {
    assert_fast_matches_serial_single_rank(ExecMode::Simd);
}

/// The default mode takes the fast path on a production-sized mesh
/// (set explicitly, so an `SWQUAKE_EXEC` override cannot change it).
#[test]
fn auto_runs_the_fast_path_on_a_64_cube() {
    let cfg = SimConfig::new(Dims3::cube(64), 100.0, 1).with_exec(ExecMode::Auto);
    let sim = Simulation::new(&LayeredModel::north_china(), &cfg).expect("valid config");
    assert_eq!(sim.exec_path(), ExecPath::Fast);
}

/// 2×2 ranks, each rank fanning its kernels out over the shared pool:
/// still bit-identical to the serial single-rank run. Compression uses
/// globally-collected statistics so every rank derives the same codec
/// a single-rank run would (per-rank self-calibration is the one thing
/// that legitimately depends on the decomposition).
#[test]
fn fast_matches_serial_across_2x2_ranks() {
    pin_pool();
    let model = LayeredModel::north_china();
    let mut cfg = production_config();
    let stats = {
        let mut probe = Simulation::new(&model, &cfg).expect("valid config");
        probe.run(20);
        probe.collect_stats()
    };
    cfg.compression_stats = stats;

    let serial_single = run_mode(&cfg, ExecMode::Serial);
    for exec in [ExecMode::Serial, FAST] {
        let multi = run_multirank(&model, &cfg.clone().with_exec(exec), RankGrid::new(2, 2))
            .expect("valid config");
        for s in serial_single.seismo.seismograms() {
            let m = multi
                .seismograms
                .iter()
                .find(|m| m.station.name == s.station.name)
                .expect("station recorded");
            assert_eq!(s.samples, m.samples, "station {} differs under {exec}", s.station.name);
        }
        let d = cfg.dims;
        for x in 0..d.nx {
            for y in 0..d.ny {
                assert_eq!(
                    serial_single.pgv.at(x, y),
                    multi.pgv.at(x, y),
                    "PGV differs at ({x},{y}) under {exec}"
                );
            }
        }
    }
}

/// The kinetic-energy probe is a deterministic reduction: the pool-based
/// variant folds per-x-plane partials in plane order, so it bit-matches
/// the serial sum for any thread count. This is what lets a health
/// record be compared across exec modes (and across reruns) with `==`.
#[test]
fn kinetic_energy_reduction_is_bitwise_deterministic() {
    pin_pool();
    let cfg = production_config();
    let sim = run_mode(&cfg, ExecMode::Serial);
    let serial = sim.state.kinetic_energy();
    let parallel = sim.state.kinetic_energy_par();
    assert!(serial > 0.0, "wavefield carries energy after 60 steps");
    assert_eq!(serial.to_bits(), parallel.to_bits(), "{serial} vs {parallel}");
}

/// Health records — field maxima, NaN/Inf counts, kinetic energy,
/// verdicts, and the compression-budget ledger — are bit-identical
/// between the serial reference and the fast path on the same run.
#[test]
fn health_records_are_identical_across_exec_modes() {
    pin_pool();
    let cfg = production_config().with_health(HealthConfig::default().with_stride(5));
    let serial = run_mode(&cfg, ExecMode::Serial);
    let fast = run_mode(&cfg, FAST);
    assert_states_identical(&serial, &fast);

    let sr = serial.health().expect("monitor attached");
    let pr = fast.health().expect("monitor attached");
    assert_eq!(sr.records.len(), 12, "60 steps / stride 5");
    assert_eq!(sr.records, pr.records);
    assert_eq!(sr.checks, pr.checks);
    assert_eq!(sr.warnings, pr.warnings);
    assert_eq!(sr.budget, pr.budget);
}

/// Checkpoints cross execution modes transparently: a run checkpointed
/// on one path and resumed on the other (the fast path spelled `exec`)
/// bit-matches an uninterrupted serial run, in both directions.
fn assert_checkpoint_restore_crosses_modes(exec: ExecMode) {
    pin_pool();
    let model = LayeredModel::north_china();
    let cfg = production_config();
    let reference = run_mode(&cfg, ExecMode::Serial);

    for (first_exec, second_exec) in [(ExecMode::Serial, exec), (exec, ExecMode::Serial)] {
        let mut first =
            Simulation::new(&model, &cfg.clone().with_exec(first_exec)).expect("valid config");
        first.run(30);
        let ckpt = first.make_checkpoint();

        let mut second =
            Simulation::new(&model, &cfg.clone().with_exec(second_exec)).expect("valid config");
        second.restore(&ckpt).expect("matching checkpoint");
        second.run(30);

        assert_eq!(
            reference.state.u.max_abs_diff(&second.state.u),
            0.0,
            "u differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.xx.max_abs_diff(&second.state.xx),
            0.0,
            "xx differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.eqp.max_abs_diff(&second.state.eqp),
            0.0,
            "eqp differs after {first_exec} -> {second_exec} restore"
        );
        assert_eq!(
            reference.state.r[3].max_abs_diff(&second.state.r[3]),
            0.0,
            "r4 differs after {first_exec} -> {second_exec} restore"
        );
    }
}

#[test]
fn checkpoint_restore_is_mode_agnostic() {
    assert_checkpoint_restore_crosses_modes(ExecMode::Parallel);
}

#[test]
fn simd_checkpoint_restore_is_mode_agnostic() {
    assert_checkpoint_restore_crosses_modes(ExecMode::Simd);
}

/// The equivalence contract, expressed through the sw-health budget
/// machinery: every wavefield's serial-vs-fast deviation, folded into
/// the binade-relative error ledger the compression watchdog uses, must
/// spend exactly zero of an (arbitrarily tight) budget. Where a future
/// kernel variant has to reassociate (and so can only be
/// epsilon-bounded), this is the ledger that bounds it; today's lane
/// layout preserves in-lane order, so the spend is exactly zero.
#[test]
fn exec_mode_deviation_spends_zero_error_budget() {
    pin_pool();
    let cfg = production_config();
    let serial = run_mode(&cfg, ExecMode::Serial);
    let fast = run_mode(&cfg, FAST);
    let mut tracker = BudgetTracker::new(1.0e-12);
    let pairs = [
        ("u", &serial.state.u, &fast.state.u),
        ("w", &serial.state.w, &fast.state.w),
        ("xx", &serial.state.xx, &fast.state.xx),
        ("yz", &serial.state.yz, &fast.state.yz),
    ];
    for (name, a, b) in pairs {
        let sample = CompressionSample {
            max_abs_err: a.max_abs_diff(b) as f64,
            sum_sq_err: 0.0,
            count: a.raw().len() as u64,
            max_abs_value: a.max_abs() as f64,
        };
        assert!(tracker.record(name, sample).is_none(), "{name} over budget");
    }
    assert_eq!(tracker.exceedances(), 0);
    for f in tracker.fields() {
        assert_eq!(f.worst_rel_err, 0.0, "{} spent error budget", f.field);
    }
}
