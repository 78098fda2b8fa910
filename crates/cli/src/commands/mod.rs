//! Subcommand implementations.

pub mod aut;
pub mod net;
pub mod serve;
pub mod solve;
pub mod sweep;

use std::time::Instant;

use langeq_bdd::BddManager;
use langeq_core::{SolveConfig, SolverKind};

use crate::cliargs::Parsed;

/// CLI failure modes, mapped to exit codes in `main`.
#[derive(Debug)]
pub enum CliError {
    /// Bad invocation (exit 2).
    Usage(String),
    /// Valid invocation that failed while running (exit 3).
    Run(String),
}

/// `local` value-taking options followed by the config keys
/// ([`SolveConfig::KEYS`]), each taken as `--KEY value`.
pub fn with_config_keys<'a>(local: &[&'a str]) -> Vec<&'a str> {
    local.iter().copied().chain(SolveConfig::KEYS).collect()
}

/// Fills a [`SolveConfig`] from the `--KEY value` options through its
/// codec; `--mono` is an alias for `--flow monolithic`.
pub fn solve_config(p: &Parsed) -> Result<SolveConfig, CliError> {
    let mut config = SolveConfig::default();
    for key in SolveConfig::KEYS {
        if let Some(value) = p.value(key) {
            config
                .set(key, value)
                .map_err(|e| CliError::Usage(format!("--{key}: {e}")))?;
        }
    }
    if p.flag("mono") {
        if p.value("flow").is_some() {
            return Err(CliError::Usage(
                "--mono and --flow are mutually exclusive".into(),
            ));
        }
        config.flow = SolverKind::Monolithic;
    }
    Ok(config)
}

/// Arms Ctrl-C cancellation on a manager for the duration of a command:
/// SIGINT makes every BDD operation short-circuit cooperatively, and
/// [`check_cancelled`] turns that into a clean error. The guard disarms the
/// hook (and clears any pending abort) on drop.
pub struct CancelGuard {
    mgr: BddManager,
    prev_hook: Option<Box<dyn Fn() -> bool>>,
}

impl CancelGuard {
    /// Installs the SIGINT handler and the manager's abort hook.
    pub fn arm(mgr: &BddManager) -> Self {
        let token = crate::sigint::install();
        let prev_hook = mgr.set_abort_hook(Some(Box::new(move || token.is_cancelled())));
        CancelGuard {
            mgr: mgr.clone(),
            prev_hook,
        }
    }
}

impl Drop for CancelGuard {
    fn drop(&mut self) {
        self.mgr.set_abort_hook(self.prev_hook.take());
        let _ = self.mgr.take_abort();
    }
}

/// Errors out (exit 3) if the engine recorded an abort — i.e. the user hit
/// Ctrl-C while the preceding operations ran.
pub fn check_cancelled(mgr: &BddManager) -> Result<(), CliError> {
    if mgr.abort_reason().is_some() {
        return Err(CliError::Run("cancelled".into()));
    }
    Ok(())
}

/// Runs one pipeline stage, printing timing and engine-size statistics to
/// stderr when `--progress` was given.
pub fn stage<T>(progress: bool, mgr: &BddManager, name: &str, f: impl FnOnce() -> T) -> T {
    let t0 = Instant::now();
    let out = f();
    if progress {
        let stats = mgr.stats();
        eprintln!(
            "[{name}] {:.2}s  live nodes {} (peak {})",
            t0.elapsed().as_secs_f64(),
            stats.live_nodes,
            stats.peak_live_nodes
        );
    }
    out
}
