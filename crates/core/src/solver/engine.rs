//! The [`SolveRequest`] builder: a [`SolveConfig`] plus run control
//! (cancellation, deadline, progress) and image tuning, run in one call.
//!
//! ```
//! use langeq_core::{LatchSplitProblem, SolveRequest};
//! use langeq_logic::gen;
//!
//! let network = gen::figure3();
//! let problem = LatchSplitProblem::new(&network, &[1]).unwrap();
//! let outcome = SolveRequest::partitioned()
//!     .trim_dcn(true)
//!     .node_limit(1_000_000)
//!     .run(&problem.equation);
//! let solution = outcome.into_result().expect("figure 3 solves");
//! assert!(solution.csf.initial().is_some());
//! ```

use std::time::{Duration, Instant};

use langeq_bdd::ReorderPolicy;
use langeq_image::ImageOptions;

use crate::equation::LanguageEquation;
use crate::solver::control::{BoxedObserver, CancelToken, Control, SolveEvent};
use crate::solver::{Outcome, SolveConfig, SolverKind, SolverLimits};

/// Builder for a configured solve: pick the flow, tune it, attach control,
/// and [`run`](Self::run).
///
/// ```
/// use langeq_core::{LatchSplitProblem, SolveRequest};
/// use langeq_logic::gen;
/// use std::time::Duration;
///
/// let problem = LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap();
/// let outcome = SolveRequest::partitioned()
///     .trim_dcn(false)              // ablation: untrimmed subset construction
///     .node_limit(500_000)
///     .time_limit(Duration::from_secs(30))
///     .on_progress(|event| { let _ = event; })
///     .run(&problem.equation);
/// assert!(outcome.into_result().is_ok());
/// ```
pub struct SolveRequest {
    config: SolveConfig,
    image: ImageOptions,
    token: CancelToken,
    deadline: Option<Instant>,
    observer: Option<BoxedObserver>,
}

impl std::fmt::Debug for SolveRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolveRequest")
            .field("config", &self.config)
            .field("image", &self.image)
            .field("deadline", &self.deadline)
            .field("observer", &self.observer.is_some())
            .finish()
    }
}

impl SolveRequest {
    /// A request for the given flow with default options.
    pub fn new(flow: SolverKind) -> Self {
        SolveRequest {
            config: SolveConfig {
                flow,
                ..SolveConfig::default()
            },
            image: ImageOptions::default(),
            token: CancelToken::new(),
            deadline: None,
            observer: None,
        }
    }

    /// The paper's partitioned flow (§3.2).
    pub fn partitioned() -> Self {
        Self::new(SolverKind::Partitioned)
    }

    /// The monolithic baseline (§4).
    pub fn monolithic() -> Self {
        Self::new(SolverKind::Monolithic)
    }

    // ----- flow options -----------------------------------------------------

    /// Enables/disables the §3.2 prefix-closed DCN trimming (see
    /// [`SolveConfig::trim_dcn`]).
    pub fn trim_dcn(mut self, on: bool) -> Self {
        self.config.trim_dcn = on;
        self
    }

    /// Image-computation tuning (partitioned flow only). It changes the
    /// evaluation order, never the result.
    pub fn image_options(mut self, options: ImageOptions) -> Self {
        self.image = options;
        self
    }

    /// Dynamic variable reordering for the run (see
    /// [`SolveConfig::reorder`]).
    pub fn reorder(mut self, policy: ReorderPolicy) -> Self {
        self.config.reorder = policy;
        self
    }

    /// Replaces all resource limits at once.
    pub fn limits(mut self, limits: SolverLimits) -> Self {
        self.config.limits = limits;
        self
    }

    /// Live-BDD-node ceiling (`None` clears it).
    pub fn node_limit(mut self, limit: impl Into<Option<usize>>) -> Self {
        self.config.limits.node_limit = limit.into();
        self
    }

    /// Wall-clock ceiling relative to the start of the run (`None` clears
    /// it).
    pub fn time_limit(mut self, limit: impl Into<Option<Duration>>) -> Self {
        self.config.limits.time_limit = limit.into();
        self
    }

    /// Ceiling on discovered subset states (`None` clears it; the default
    /// is [`DEFAULT_MAX_STATES`](crate::solver::DEFAULT_MAX_STATES)).
    pub fn max_states(mut self, limit: impl Into<Option<usize>>) -> Self {
        self.config.limits.max_states = limit.into();
        self
    }

    // ----- control ----------------------------------------------------------

    /// Attaches a cancellation token shared with other threads / handlers.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.token = token;
        self
    }

    /// Sets an absolute deadline (in addition to
    /// [`time_limit`](Self::time_limit), whichever fires first).
    pub fn deadline(mut self, deadline: Instant) -> Self {
        self.deadline = Some(self.deadline.map_or(deadline, |d| d.min(deadline)));
        self
    }

    /// Registers a progress observer receiving [`SolveEvent`]s.
    pub fn on_progress(mut self, observer: impl FnMut(&SolveEvent) + 'static) -> Self {
        self.observer = Some(Box::new(observer));
        self
    }

    // ----- execution --------------------------------------------------------

    /// Runs the configured solve on `eq`.
    pub fn run(self, eq: &LanguageEquation) -> Outcome {
        let mut ctrl = Control::new().with_token(self.token);
        if let Some(d) = self.deadline {
            ctrl = ctrl.with_deadline(d);
        }
        if let Some(obs) = self.observer {
            ctrl = ctrl.with_boxed_observer(obs);
        }
        self.config.solve_with_image(eq, &ctrl, self.image)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use crate::solver::CncReason;
    use langeq_logic::gen;

    fn figure3_problem() -> LatchSplitProblem {
        LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap()
    }

    #[test]
    fn request_builder_configures_the_flow() {
        let p = figure3_problem();
        let trimmed = SolveRequest::partitioned().run(&p.equation);
        let untrimmed = SolveRequest::partitioned().trim_dcn(false).run(&p.equation);
        let (t, u) = (
            trimmed.into_result().unwrap(),
            untrimmed.into_result().unwrap(),
        );
        assert!(t.csf.equivalent(&u.csf));
        assert!(t.general.is_contained_in(&u.general));
    }

    #[test]
    fn pre_cancelled_token_aborts_immediately() {
        let p = figure3_problem();
        let token = CancelToken::new();
        token.cancel();
        let out = SolveRequest::partitioned()
            .cancel_token(token)
            .run(&p.equation);
        assert!(matches!(out, Outcome::Cnc(CncReason::Cancelled)));
        // The manager is immediately reusable.
        let again = SolveRequest::partitioned().run(&p.equation);
        assert!(again.into_result().is_ok());
    }
}
