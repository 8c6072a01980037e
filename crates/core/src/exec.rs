//! Execution modes: which implementation of the step kernels runs.
//!
//! The paper's production runs never compute on the management core —
//! every kernel of the step executes on the 64-CPE pool, vectorized over
//! the SIMD lanes (§6.2, §6.4). The host keeps exactly two kernel sets:
//!
//! * the **serial reference** ([`ExecPath::Serial`]) — the plain
//!   kernels in [`crate::kernels`], run on the calling thread; they are
//!   the specification every other path is checked against;
//! * the **fast path** ([`ExecPath::Fast`]) — the vectorized,
//!   cache-tiled kernels of [`crate::kernels::simd`], fanned out over
//!   the Rayon CPE-pool analogue in x planes, together with the
//!   pool-based compression round trip, checkpoint clones and health
//!   scans.
//!
//! [`ExecMode`] picks between them: `serial` forces the reference,
//! `parallel` and `simd` are accepted spellings of the fast path (so
//! older `--exec` / `SWQUAKE_EXEC` scripts keep working), and `auto` —
//! the default — takes the fast path on any grid of at least
//! [`AUTO_PARALLEL_THRESHOLD`] points, whatever the pool width, because
//! the vector lanes pay even on one thread.
//!
//! Both paths are **bit-identical** (pinned by the `exec_equivalence`
//! integration tests): the fast kernels evaluate the same expression
//! tree per cell in the same order and never contract into fused
//! multiply-adds, so mode is purely a performance choice.
//!
//! ## Composing with the rank runtime
//!
//! `run_multirank` spawns one OS thread per rank; each rank's step then
//! fans out over the *shared, bounded* Rayon worker budget (see the
//! vendored `rayon` crate and `sw_parallel::run_ranks`). Helper
//! acquisition never blocks — a rank that finds the budget empty simply
//! runs its planes inline — so ranks × pool composes without deadlock
//! and the process never runs more than `ranks + threads − 1` busy
//! threads. Pin the budget with [`SimConfig::with_threads`]
//! (`--threads` on the CLI, `SWQUAKE_THREADS` in the environment).
//!
//! [`SimConfig::with_threads`]: crate::SimConfig::with_threads

use std::fmt;
use std::str::FromStr;

/// Grid size (interior points) from which `Auto` takes the fast path.
/// Below it, plane fan-out overhead rivals the kernel work itself: a 32³
/// block is roughly where one x plane reaches a few thousand points.
pub const AUTO_PARALLEL_THRESHOLD: usize = 32 * 32 * 32;

/// Which kernel implementations the driver runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ExecMode {
    /// Reference serial kernels on the calling thread.
    Serial,
    /// The fast path (accepted spelling kept for existing scripts).
    Parallel,
    /// The fast path (accepted spelling kept for existing scripts).
    Simd,
    /// The fast path when the grid has at least
    /// [`AUTO_PARALLEL_THRESHOLD`] points, `Serial` otherwise.
    #[default]
    Auto,
}

/// The concrete kernel path a mode resolved to for a given mesh — what
/// the driver actually routes each step phase through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecPath {
    /// Reference serial kernels.
    Serial,
    /// Vectorized, cache-tiled kernels fanned out over the Rayon pool.
    Fast,
}

impl ExecPath {
    /// Whether this path fans work out over the Rayon pool (compression,
    /// checkpoint clones and health scans follow the kernels).
    pub fn is_parallel(self) -> bool {
        self == ExecPath::Fast
    }
}

impl fmt::Display for ExecPath {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecPath::Serial => "serial",
            ExecPath::Fast => "fast",
        })
    }
}

impl ExecMode {
    /// The process-wide default: `SWQUAKE_EXEC` when set (same syntax as
    /// `--exec`; invalid values are ignored), `Auto` otherwise. Explicit
    /// [`crate::SimConfig::with_exec`] always wins over the environment.
    pub fn from_env() -> Self {
        std::env::var("SWQUAKE_EXEC").ok().and_then(|v| v.parse().ok()).unwrap_or_default()
    }

    /// Resolve the mode for a mesh into the concrete kernel path.
    pub fn resolve_path(self, points: usize) -> ExecPath {
        match self {
            ExecMode::Serial => ExecPath::Serial,
            ExecMode::Parallel | ExecMode::Simd => ExecPath::Fast,
            ExecMode::Auto if points >= AUTO_PARALLEL_THRESHOLD => ExecPath::Fast,
            ExecMode::Auto => ExecPath::Serial,
        }
    }
}

impl FromStr for ExecMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.to_ascii_lowercase().as_str() {
            "serial" => Ok(ExecMode::Serial),
            "parallel" => Ok(ExecMode::Parallel),
            "simd" => Ok(ExecMode::Simd),
            "auto" => Ok(ExecMode::Auto),
            other => Err(format!(
                "unknown exec mode `{other}` (expected serial|auto; parallel and simd are \
                 aliases of the fast path)"
            )),
        }
    }
}

impl fmt::Display for ExecMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            ExecMode::Serial => "serial",
            ExecMode::Parallel => "parallel",
            ExecMode::Simd => "simd",
            ExecMode::Auto => "auto",
        })
    }
}

/// Pin the global Rayon worker budget to `threads` (0 = leave the
/// current setting: hardware parallelism unless previously pinned).
/// Idempotent; the last call wins.
pub fn configure_threads(threads: usize) {
    if threads > 0 {
        rayon::ThreadPoolBuilder::new()
            .num_threads(threads)
            .build_global()
            .expect("the vendored pool accepts reconfiguration");
    }
}

/// The thread-count default from `SWQUAKE_THREADS` (0 = unset/invalid).
pub fn threads_from_env() -> usize {
    std::env::var("SWQUAKE_THREADS").ok().and_then(|v| v.parse().ok()).unwrap_or(0)
}

/// The health-probe stride default from `SWQUAKE_HEALTH_STRIDE`
/// (`None` = unset/invalid, fall back to the CLI/config default).
pub fn health_stride_from_env() -> Option<u64> {
    std::env::var("SWQUAKE_HEALTH_STRIDE").ok().and_then(|v| v.parse().ok())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_spelling_parses_and_round_trips() {
        for (text, mode) in [
            ("serial", ExecMode::Serial),
            ("parallel", ExecMode::Parallel),
            ("simd", ExecMode::Simd),
            ("auto", ExecMode::Auto),
        ] {
            assert_eq!(text.parse::<ExecMode>().unwrap(), mode);
            assert_eq!(text.to_ascii_uppercase().parse::<ExecMode>().unwrap(), mode);
            assert_eq!(mode.to_string(), text);
        }
        assert!("cpes".parse::<ExecMode>().is_err());
    }

    #[test]
    fn fixed_modes_ignore_grid_size() {
        for points in [1, AUTO_PARALLEL_THRESHOLD, usize::MAX] {
            assert_eq!(ExecMode::Serial.resolve_path(points), ExecPath::Serial);
            assert_eq!(ExecMode::Parallel.resolve_path(points), ExecPath::Fast);
            assert_eq!(ExecMode::Simd.resolve_path(points), ExecPath::Fast);
        }
    }

    #[test]
    fn auto_takes_the_fast_path_from_the_threshold_on() {
        assert_eq!(ExecMode::Auto.resolve_path(AUTO_PARALLEL_THRESHOLD - 1), ExecPath::Serial);
        assert_eq!(ExecMode::Auto.resolve_path(AUTO_PARALLEL_THRESHOLD), ExecPath::Fast);
        assert_eq!(ExecMode::Auto.resolve_path(64 * 64 * 64), ExecPath::Fast);
        assert_eq!(ExecMode::default(), ExecMode::Auto);
    }

    #[test]
    fn auto_ignores_the_pool_width() {
        // Vectorization pays on one thread, so a one-worker pool still
        // resolves to the fast path.
        configure_threads(1);
        assert_eq!(ExecMode::Auto.resolve_path(AUTO_PARALLEL_THRESHOLD), ExecPath::Fast);
    }

    #[test]
    fn paths_display_and_report_pool_use() {
        assert_eq!(ExecPath::Serial.to_string(), "serial");
        assert_eq!(ExecPath::Fast.to_string(), "fast");
        assert!(ExecPath::Fast.is_parallel());
        assert!(!ExecPath::Serial.is_parallel());
    }
}
