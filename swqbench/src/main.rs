//! `swqbench`: the repository benchmark.
//!
//! ```text
//! cargo run --release --manifest-path swqbench/Cargo.toml -- \
//!     --workload prod64 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! With `--trace 0` it repeats the workload's scenario end to end, as
//! `swquake run` would, for `--seconds` and reports the end-to-end
//! metrics. With `--trace 1` it makes the per-layer run instead. Either
//! way every solve is checked against the serial full-f32 single-rank
//! reference, and the last stdout line is one JSON result object. See
//! README.md for what each metric means and which change should move it.

mod host;
mod layers;
mod solve;
mod stats;
mod workload;

use solve::{Solve, Variant};
use stats::{median, peak_rss_mb, quantile};
use std::time::Instant;
use workload::Workload;

/// Least set-ups per run (`setup_s` is their median).
const SETUP_REPS: usize = 21;
/// First argument of the child mode that makes one set-up and prints its
/// phase times (see `setup_probe`).
const SETUP_PROBE: &str = "setup-probe";
/// Where the solver writes its result files, relative to the checkout.
const WORK_DIR: &str = ".bench_work";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(value.parse::<f64>().map_err(|e| format!("--seconds: {e}"))?)
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_string()),
                })
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds
            .filter(|s| s.is_finite() && *s > 0.0)
            .ok_or("--seconds must be a positive number")?,
        trace: trace.unwrap_or(false),
    })
}

/// One reported metric.
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: impl Into<String>, value: f64, unit: &'static str) -> Metric {
    Metric { name: name.into(), value, unit }
}

/// Solves and set-ups of the measured window plus their correctness
/// tally.
#[derive(Default)]
pub struct Window {
    pub solves: Vec<Solve>,
    /// Phase times of each set-up: parse, model, config, construct.
    pub setups: Vec<[f64; 4]>,
    pub attempted: u64,
    pub failed: u64,
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some(SETUP_PROBE) {
        setup_probe(&argv[1..]);
    }
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: swqbench --workload <prod64|elastic160_2x1|resident48> --seed <n> \
                 --seconds <s> --trace <0|1>"
            );
            std::process::exit(2);
        }
    };
    // The solver reads these as defaults; the benchmark measures the
    // defaults a user gets, whatever the calling shell exports.
    for var in ["SWQUAKE_EXEC", "SWQUAKE_THREADS", "SWQUAKE_RESIDENT", "SWQUAKE_HEALTH_STRIDE"] {
        std::env::remove_var(var);
    }
    let w = args.workload;
    let dir = work_dir(&w);
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("error: cannot create {dir}: {e}");
        std::process::exit(2);
    }
    let text = scenario_text(&w, args.seed);
    let (metrics, window) = if args.trace {
        layers::run(&w, &text, args.seed, args.seconds)
    } else {
        end_to_end(&w, &text, args.seed, args.seconds)
    };
    let _ = std::fs::remove_dir_all(&dir);
    let correct = window.failed == 0 && !window.solves.is_empty();
    for m in &metrics {
        println!("{:<28} {:>16.6} {}", m.name, m.value, m.unit);
    }
    println!(
        "workload {} seed {} solves {} attempted {} failed {}",
        w.name,
        args.seed,
        window.solves.len(),
        window.attempted,
        window.failed
    );
    println!("{}", result_line(correct, &window, &metrics));
    if !correct {
        std::process::exit(1);
    }
}

fn work_dir(w: &Workload) -> String {
    format!("{WORK_DIR}/{}", w.name)
}

/// The scenario JSON text of `w` for `seed`, writing under the work dir.
fn scenario_text(w: &Workload, seed: u64) -> String {
    w.scenario(seed, &format!("{}/out", work_dir(w))).to_json()
}

/// Child mode `setup-probe <workload> <seed>`: one set-up of the
/// scenario, then the four phase times in seconds on one stdout line.
fn setup_probe(args: &[String]) -> ! {
    let w = args.first().and_then(|n| workload::find(n));
    let seed = args.get(1).and_then(|s| s.parse::<u64>().ok());
    let (Some(w), Some(seed)) = (w, seed) else {
        eprintln!("usage: swqbench {SETUP_PROBE} <workload> <seed>");
        std::process::exit(2);
    };
    match solve::setup_phases(&scenario_text(&w, seed)) {
        Ok(p) => {
            println!("{} {} {} {}", p[0], p[1], p[2], p[3]);
            std::process::exit(0);
        }
        Err(e) => {
            eprintln!("set-up failed: {e}");
            std::process::exit(1);
        }
    }
}

/// One set-up of `w`'s scenario for `seed`, made in a fresh child process
/// of this binary and recorded in `window`. A set-up is the start of a
/// `swquake run` process, whose allocations page-fault fresh memory.
/// Inside this long-lived process they would sometimes reuse the
/// allocator's free lists instead, depending on what ran before, and
/// their time would swing with that.
pub fn setup_sample(w: &Workload, seed: u64, window: &mut Window) {
    let out = std::env::current_exe().and_then(|exe| {
        std::process::Command::new(exe)
            .args([SETUP_PROBE, w.name, &seed.to_string()])
            .stderr(std::process::Stdio::inherit())
            .output()
    });
    let phases = match &out {
        Ok(o) if o.status.success() => {
            let v: Vec<f64> = String::from_utf8_lossy(&o.stdout)
                .split_whitespace()
                .filter_map(|x| x.parse().ok())
                .collect();
            <[f64; 4]>::try_from(v).ok()
        }
        _ => None,
    };
    match phases {
        Some(p) => window.setups.push(p),
        None => {
            eprintln!("set-up probe failed: {:?}", out.map(|o| o.status));
            window.failed += 1;
        }
    }
}

/// Medians over the window's set-ups of each phase and (last) of their
/// total.
pub fn setup_medians(window: &Window) -> [f64; 5] {
    let phase = |i: usize| -> Vec<f64> { window.setups.iter().map(|p| p[i]).collect() };
    let total: Vec<f64> = window.setups.iter().map(|p| p.iter().sum()).collect();
    [median(&phase(0)), median(&phase(1)), median(&phase(2)), median(&phase(3)), median(&total)]
}

/// Set-up samples until the window holds at least `SETUP_REPS`.
pub fn top_up_setups(w: &Workload, seed: u64, window: &mut Window) {
    while window.setups.len() < SETUP_REPS && window.failed == 0 {
        setup_sample(w, seed, window);
    }
}

fn result_line(correct: bool, window: &Window, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let v = if m.value.is_finite() { format!("{:?}", m.value) } else { "null".into() };
            format!("\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}", m.name, m.unit)
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        window.attempted,
        window.failed,
        body.join(", ")
    )
}

/// The serial reference solve of `text`, keeping its final state.
pub fn reference(w: &Workload, text: &str) -> Result<Solve, String> {
    solve::solve(w, text, &Variant { reference: true, ..Default::default() })
}

/// Drop the solves that fail the check against `reference`; returns how
/// many failed.
pub fn keep_correct(reference: &Solve, solves: &mut Vec<Solve>, bitwise: bool) -> u64 {
    let before = solves.len();
    solves.retain(|s| {
        let c = solve::check(reference, s, bitwise);
        if !c.ok {
            eprintln!(
                "check failed: seismogram misfit {:.3e}, PGV error {:.3e} (bitwise {bitwise})",
                c.seis_misfit, c.pgv_err
            );
        }
        c.ok
    });
    (before - solves.len()) as u64
}

/// One solve counted in `window`; `None` when it failed.
pub fn attempt(w: &Workload, text: &str, variant: &Variant, window: &mut Window) -> Option<Solve> {
    window.attempted += 1;
    match solve::solve(w, text, variant) {
        Ok(s) => Some(s),
        Err(e) => {
            eprintln!("solve failed: {e}");
            window.failed += 1;
            None
        }
    }
}

/// Repeat solves until they have taken `seconds` (at least one), stopping
/// at the first failure. `setups_per_solve` set-up samples precede each
/// solve, so the set-ups are spread over the window and see the same host
/// conditions as the solves; their time is not counted in the window.
fn solve_window(
    w: &Workload,
    text: &str,
    seed: u64,
    seconds: f64,
    setups_per_solve: usize,
    window: &mut Window,
) {
    let mut solving_s = 0.0;
    loop {
        for _ in 0..setups_per_solve {
            setup_sample(w, seed, window);
        }
        if window.failed > 0 {
            return;
        }
        let t = Instant::now();
        match attempt(w, text, &Variant::default(), window) {
            Some(s) => window.solves.push(s),
            None => return,
        }
        solving_s += t.elapsed().as_secs_f64();
        if solving_s >= seconds {
            return;
        }
    }
}

/// Per-step milliseconds pooled over all steps of `solves`. One step is
/// not observable from outside the multi-rank driver, so there the
/// distribution is over solves of the mean step.
pub fn per_step_ms(
    w: &Workload,
    solves: &[&Solve],
    steps: impl Fn(&Solve) -> &Vec<f64>,
    total: impl Fn(&Solve) -> f64,
) -> Vec<f64> {
    if w.multirank() {
        solves.iter().map(|s| total(s) / s.steps as f64 * 1e3).collect()
    } else {
        solves.iter().flat_map(|s| steps(s).iter().map(|t| t * 1e3)).collect()
    }
}

/// The wall-clock view of `solves`: time to solution, throughput and
/// per-step wall time.
pub fn wall_metrics(w: &Workload, solves: &[&Solve]) -> Vec<Metric> {
    let run_s: Vec<f64> = solves.iter().map(|s| s.run_s).collect();
    let mcups: Vec<f64> =
        solves.iter().map(|s| (w.cells() * s.steps) as f64 / s.stepping_s / 1e6).collect();
    let steps = per_step_ms(w, solves, |s| &s.step_walls, |s| s.stepping_s);
    vec![
        metric("run_s", median(&run_s), "s"),
        metric("mcups", median(&mcups), "Mcells/s"),
        metric("step_ms_p50", median(&steps), "ms"),
        metric("step_ms_p90", quantile(&steps, 0.9), "ms"),
    ]
}

fn end_to_end(w: &Workload, text: &str, seed: u64, seconds: f64) -> (Vec<Metric>, Window) {
    // One unmeasured solve first: page-faulting the allocator's first
    // arenas and spinning up the pool is a once-per-process cost. Its
    // peak memory is the peak of one cold solve, as one `swquake run`
    // process sees it; later solves only add allocator reuse noise.
    let mut window = Window::default();
    let mut warm: Vec<Solve> =
        attempt(w, text, &Variant::default(), &mut window).into_iter().collect();
    let rss = peak_rss_mb();
    if let Some(first) = warm.first() {
        // Enough set-ups per solve to reach `SETUP_REPS` within the window,
        // judged from the warm-up solve.
        let per_solve = (SETUP_REPS as f64 * first.run_s / seconds).ceil().max(1.0) as usize;
        solve_window(w, text, seed, seconds, per_solve, &mut window);
    }
    top_up_setups(w, seed, &mut window);
    let setup = setup_medians(&window);
    // The warm-up solve is checked but not timed.
    match reference(w, text) {
        Ok(r) => {
            window.failed += keep_correct(&r, &mut warm, w.bitwise());
            window.failed += keep_correct(&r, &mut window.solves, w.bitwise());
        }
        Err(e) => {
            eprintln!("reference run failed: {e}");
            window.failed += 1;
        }
    }
    let timed: Vec<&Solve> = window.solves.iter().collect();
    let run_cpu_s: Vec<f64> = timed.iter().map(|s| s.cpu_s).collect();
    let steps_cpu = per_step_ms(w, &timed, |s| &s.step_cpu, |s| s.stepping_cpu_s);
    // The rank threads of `run_multirank` cannot be clocked from outside,
    // so there the step-driving thread's share is the per-rank mean.
    let ranks = (w.ranks.0 * w.ranks.1) as f64;
    let steps_main = per_step_ms(w, &timed, |s| &s.step_main_cpu, |s| s.stepping_cpu_s / ranks);
    let metrics = vec![
        metric("setup_s", setup[4], "s"),
        metric("run_cpu_s", median(&run_cpu_s), "s"),
        metric("step_cpu_ms_p50", median(&steps_cpu), "ms"),
        metric("step_cpu_ms_p95", quantile(&steps_cpu, 0.95), "ms"),
        metric("step_main_cpu_ms_p50", median(&steps_main), "ms"),
        metric("peak_rss_mb", rss, "MB"),
    ];
    // Wall-clock figures are printed for the reader but not reported:
    // hypervisor steal makes them too unsteady to bound (see README).
    for m in wall_metrics(w, &timed) {
        println!("{:<28} {:>16.6} {} (wall, not bounded)", m.name, m.value, m.unit);
    }
    (metrics, window)
}
