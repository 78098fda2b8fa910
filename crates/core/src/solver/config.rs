//! [`SolveConfig`]: the one description of a solver configuration — the
//! flow, the §3.2 DCN trimming, dynamic reordering and the resource limits
//! (the paper's CNC entries) — together with the one `key=value` codec
//! that manifest `config` lines, CLI flags and serve bodies all decode
//! through, and the one dispatch from a configuration to a flow.
//!
//! ```
//! use langeq_core::{LatchSplitProblem, SolveConfig, SolverKind};
//! use langeq_core::solver::Control;
//! use langeq_logic::gen;
//!
//! let mut config = SolveConfig::default();
//! config.set("flow", "monolithic").unwrap();
//! config.set("timeout", "60").unwrap();
//! assert_eq!(config.flow, SolverKind::Monolithic);
//! assert!(config.set("trim", "sideways").is_err());
//!
//! let problem = LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap();
//! let outcome = config.solve(&problem.equation, &Control::default());
//! assert!(outcome.into_result().is_ok());
//! ```

use std::time::Duration;

use langeq_bdd::ReorderPolicy;
use langeq_image::ImageOptions;

use crate::algorithm1;
use crate::equation::LanguageEquation;
use crate::solver::control::Control;
use crate::solver::session::Session;
use crate::solver::{
    monolithic, partitioned, CncReason, Outcome, Solution, SolverKind, SolverLimits,
};

/// Everything that selects a flow and can change its result.
///
/// All flows are **cooperative**: cancellation, deadlines and the
/// [`SolverLimits`] surface as [`Outcome::Cnc`] — never a panic — and the
/// equation's [`BddManager`](langeq_bdd::BddManager) is immediately
/// reusable afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SolveConfig {
    /// Which flow runs.
    pub flow: SolverKind,
    /// Apply the prefix-closed trimming of §3.2 (partitioned flow only):
    /// transitions that can reach the non-conformance state are redirected
    /// to a single trap (`DCN`) instead of exploring subsets containing it.
    /// Disabling this models the untrimmed subset construction (ablation).
    pub trim_dcn: bool,
    /// Dynamic variable reordering, armed on the equation's manager for the
    /// duration of the run and restored afterwards (partitioned and
    /// monolithic flows; the explicit Algorithm-1 pipeline stays static).
    /// The universe's reorder fence keeps the alphabet block above the
    /// state block, so sifting can never break the subset construction's
    /// cofactor-class precondition.
    pub reorder: ReorderPolicy,
    /// Resource limits.
    pub limits: SolverLimits,
}

impl Default for SolveConfig {
    /// The paper's configuration: partitioned flow, DCN trimming, static
    /// variable order, and the default state budget.
    fn default() -> Self {
        SolveConfig {
            flow: SolverKind::Partitioned,
            trim_dcn: true,
            reorder: ReorderPolicy::None,
            limits: SolverLimits::default(),
        }
    }
}

/// A rejected `key=value` setting of [`SolveConfig::set`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConfigError(pub String);

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ConfigError {}

fn number<T: std::str::FromStr>(key: &str, value: &str) -> Result<T, ConfigError> {
    value
        .parse()
        .map_err(|_| ConfigError(format!("bad number `{value}` for {key}=")))
}

impl SolveConfig {
    /// Every key [`set`](Self::set) accepts, in documentation order. Front
    /// ends spell them as manifest `key=value` words, `--key value` CLI
    /// flags, and serve-body fields (with `_` for `-`).
    pub const KEYS: [&'static str; 6] = [
        "flow",
        "trim",
        "reorder",
        "timeout",
        "node-limit",
        "max-states",
    ];

    /// Decodes one setting:
    ///
    /// * `flow=partitioned|monolithic|algorithm1` (or `part|mono|alg1`);
    /// * `trim=on|off` (also `true|false`, `1|0`);
    /// * `reorder=none|sifting|sifting:THRESHOLD`;
    /// * `timeout=SECS`, `node-limit=N`, `max-states=N`.
    pub fn set(&mut self, key: &str, value: &str) -> Result<(), ConfigError> {
        match key {
            "flow" => self.flow = value.parse().map_err(|e| ConfigError(format!("{e}")))?,
            "trim" => {
                self.trim_dcn = match value {
                    "on" | "true" | "1" => true,
                    "off" | "false" | "0" => false,
                    _ => return Err(ConfigError(format!("bad trim value `{value}` (on|off)"))),
                }
            }
            "reorder" => self.reorder = value.parse().map_err(|e| ConfigError(format!("{e}")))?,
            "timeout" => {
                self.limits.time_limit = Some(Duration::from_secs(number(key, value)?));
            }
            "node-limit" => self.limits.node_limit = Some(number(key, value)?),
            "max-states" => self.limits.max_states = Some(number(key, value)?),
            other => return Err(ConfigError(format!("unknown config option `{other}`"))),
        }
        Ok(())
    }

    /// Solves `eq` with this configuration under `ctrl`.
    pub fn solve(&self, eq: &LanguageEquation, ctrl: &Control) -> Outcome {
        self.solve_with_image(eq, ctrl, ImageOptions::default())
    }

    /// [`solve`](Self::solve) with explicit image-computation tuning
    /// (partitioned flow only; it never changes the result).
    pub(crate) fn solve_with_image(
        &self,
        eq: &LanguageEquation,
        ctrl: &Control,
        image: ImageOptions,
    ) -> Outcome {
        let session = || Session::begin(eq.manager(), self.limits, self.reorder, ctrl, self.flow);
        Outcome::from(match self.flow {
            SolverKind::Partitioned if self.trim_dcn => {
                partitioned::run_trimmed(eq, image, &mut session())
            }
            SolverKind::Partitioned => partitioned::run_untrimmed(eq, image, &mut session()),
            SolverKind::Monolithic => monolithic::run(eq, &mut session()),
            SolverKind::Algorithm1 => run_algorithm1(eq, self.limits, ctrl),
        })
    }
}

/// The paper's generic **Algorithm 1** on explicit automata — the reference
/// pipeline used to cross-validate the two symbolic flows on small
/// instances. Instances whose components exceed
/// [`MAX_EXPLICIT_LATCHES`](algorithm1::MAX_EXPLICIT_LATCHES) latches return
/// [`CncReason::StateLimit`] instead of being attempted.
fn run_algorithm1(
    eq: &LanguageEquation,
    limits: SolverLimits,
    ctrl: &Control,
) -> Result<Solution, CncReason> {
    let cap = algorithm1::MAX_EXPLICIT_LATCHES;
    if eq.f.latches.len() > cap || eq.s.latches.len() > cap {
        // Explicit enumeration of 2^latches states is out of reach; the
        // honest report is the explicit-state budget.
        return Err(CncReason::StateLimit(1usize << cap));
    }
    // The explicit pipeline keeps the static order: its per-state BDD
    // work is tiny and a mid-pipeline reorder would only add noise to
    // the cross-validation baseline.
    let mut sess = Session::begin(
        eq.manager(),
        limits,
        ReorderPolicy::None,
        ctrl,
        SolverKind::Algorithm1,
    );
    // Report the largest automaton materialised so far: intermediate
    // pipeline steps (hide, determinize) may shrink, and the event
    // contract promises a non-decreasing `discovered`.
    let mut largest = 0usize;
    let generic = algorithm1::run_pipeline(eq, &mut |aut| {
        largest = largest.max(aut.num_states());
        sess.checkpoint(largest, 0)
    })?;
    sess.ensure_clean()?;
    Ok(sess.solution(generic.general, generic.prefix_closed, generic.csf))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use langeq_logic::gen;

    fn figure3_problem() -> LatchSplitProblem {
        LatchSplitProblem::new(&gen::figure3(), &[1]).unwrap()
    }

    fn with_flow(flow: SolverKind) -> SolveConfig {
        SolveConfig {
            flow,
            ..SolveConfig::default()
        }
    }

    #[test]
    fn all_three_flows_agree() {
        let p = figure3_problem();
        let solutions: Vec<_> = [
            SolverKind::Partitioned,
            SolverKind::Monolithic,
            SolverKind::Algorithm1,
        ]
        .into_iter()
        .map(|flow| {
            with_flow(flow)
                .solve(&p.equation, &Control::default())
                .into_result()
                .unwrap_or_else(|r| panic!("{flow} failed: {r}"))
        })
        .collect();
        for pair in solutions.windows(2) {
            assert!(pair[0].csf.equivalent(&pair[1].csf));
            assert!(pair[0].prefix_closed.equivalent(&pair[1].prefix_closed));
        }
    }

    /// Pins the exact general-solution and CSF snapshot bytes of every
    /// subset-construction flow, with and without sifting. Any change to
    /// the sequence of manager operations shifts GC and reorder timing
    /// and, on the sifting rows, the bytes.
    #[test]
    fn golden_snapshot_bytes_per_flow() {
        use crate::sig::fnv1a64;
        use langeq_automata::snapshot::save;
        let instances = [
            (gen::figure3(), vec![1]),
            (gen::counter("c4", 4), vec![2, 3]),
        ];
        let rows: [(&str, [(u64, u64); 2]); 5] = [
            (
                "flow=partitioned",
                [
                    (0xb1e6_3810_c2e2_d48b, 0xad23_54b3_c070_7152),
                    (0x7cf6_7043_a29f_c3ae, 0x09ac_2cfa_e935_21eb),
                ],
            ),
            (
                "flow=partitioned trim=off",
                [
                    (0xb402_f9e3_56f6_69d0, 0x32e8_281c_9c08_2f79),
                    (0xf962_f809_2c16_51de, 0xadb5_b1f0_7614_7007),
                ],
            ),
            (
                "flow=monolithic",
                [
                    (0xb402_f9e3_56f6_69d0, 0x32e8_281c_9c08_2f79),
                    (0xf962_f809_2c16_51de, 0xadb5_b1f0_7614_7007),
                ],
            ),
            (
                "flow=partitioned reorder=sifting:50",
                [
                    (0x1e61_0729_36ff_03b1, 0xdad4_c462_6eb8_e043),
                    (0x8f45_fd7a_14b9_9ad3, 0x61dd_0607_ddc1_708a),
                ],
            ),
            (
                "flow=monolithic reorder=sifting:50",
                [
                    (0x8868_6f63_6396_242d, 0x6f17_ccfe_2289_5d0e),
                    (0x1eb4_06a5_df81_cffe, 0x3f15_2a70_abbd_eaf0),
                ],
            ),
        ];
        let mut bytes: Vec<Vec<Vec<u8>>> = Vec::new();
        for (words, expected) in rows {
            let mut config = SolveConfig::default();
            for word in words.split(' ') {
                let (key, value) = word.split_once('=').unwrap();
                config.set(key, value).unwrap();
            }
            let mut row = Vec::new();
            for ((net, split), (general, csf)) in instances.iter().zip(expected) {
                let p = LatchSplitProblem::new(net, split).unwrap();
                let s = config
                    .solve(&p.equation, &Control::default())
                    .into_result()
                    .unwrap_or_else(|r| panic!("{words} on {}: {r}", net.name()));
                let got = (fnv1a64(&save(&s.general)), fnv1a64(&save(&s.csf)));
                assert_eq!(
                    got,
                    (general, csf),
                    "{words} on {}: {:016x}/{:016x}",
                    net.name(),
                    got.0,
                    got.1
                );
                if words.contains("sifting") {
                    assert!(
                        s.stats.reorders > 0,
                        "{words} on {} never sifted",
                        net.name()
                    );
                }
                row.push(save(&s.general));
            }
            bytes.push(row);
        }
        assert_eq!(bytes[1], bytes[2], "untrimmed and monolithic bytes differ");
    }

    #[test]
    fn unrepresentable_timeout_is_no_deadline() {
        let p = figure3_problem();
        let mut config = SolveConfig::default();
        config.set("timeout", &u64::MAX.to_string()).unwrap();
        if let Err(r) = config.solve(&p.equation, &Control::default()).into_result() {
            panic!("unexpected CNC: {r}");
        }
    }

    #[test]
    fn algorithm1_refuses_oversized_instances_gracefully() {
        let net = gen::counter("big", 20);
        let p = LatchSplitProblem::new(&net, &[0, 1]).unwrap();
        let out = with_flow(SolverKind::Algorithm1).solve(&p.equation, &Control::default());
        assert!(matches!(out, Outcome::Cnc(CncReason::StateLimit(_))));
    }

    #[test]
    fn set_decodes_every_key() {
        let mut c = SolveConfig::default();
        for (key, value) in [
            ("flow", "mono"),
            ("trim", "off"),
            ("reorder", "sifting:5000"),
            ("timeout", "60"),
            ("node-limit", "1000000"),
            ("max-states", "500000"),
        ] {
            c.set(key, value).unwrap();
        }
        assert_eq!(c.flow, SolverKind::Monolithic);
        assert!(!c.trim_dcn);
        assert_eq!(c.reorder, "sifting:5000".parse().unwrap());
        assert_eq!(
            c.limits,
            SolverLimits {
                node_limit: Some(1_000_000),
                time_limit: Some(Duration::from_secs(60)),
                max_states: Some(500_000),
            }
        );
        assert_eq!(SolveConfig::default().limits, SolverLimits::default());
    }

    #[test]
    fn set_rejects_bad_values_and_unknown_keys() {
        for (key, value, needle) in [
            ("flow", "warp", "unknown flow"),
            ("flow", "3", "unknown flow"),
            ("trim", "sideways", "bad trim value"),
            ("reorder", "warp", "unknown reorder policy"),
            ("timeout", "soon", "bad number"),
            ("node-limit", "-5", "bad number"),
            ("max-states", "1.5", "bad number"),
            ("verbose", "1", "unknown config option `verbose`"),
        ] {
            let mut c = SolveConfig::default();
            let err = c.set(key, value).unwrap_err();
            assert!(err.to_string().contains(needle), "{key}={value}: {err}");
            assert_eq!(
                c,
                SolveConfig::default(),
                "{key}={value} changed the config"
            );
        }
    }
}
