//! The paper's flow (§3.2) over the partitioned representation. This
//! module owns only the compile phase — the partitioned relations, built
//! once and reused for every subset state `ξ(cs)` — and the per-`ξ` step
//! that [`Session::subset_construction`] drives:
//!
//! * the **non-conformance condition**, computed one output at a time,
//!
//!   `Qξ(u,v) = ⋁_j ∃ i,cs . [⋀_k u_k ≡ U_k] ∧ ¬C_j ∧ ξ(cs)`,
//!
//!   whose letters can reach the complemented specification's DC state;
//!   the driver redirects them to the non-accepting trap `DCN`
//!   (prefix-closed trimming);
//! * the **subset successor relation**, one partitioned image,
//!
//!   `Pξ(u,v,ns) = ∃ i,cs . [⋀ u≡U] ∧ [⋀ ns≡T] ∧ ξ(cs)`, restricted to
//!   `¬Qξ`.
//!
//! Every subset state accepts, so the resulting automaton *is* the
//! complement of the determinized product — no complementation pass is
//! needed.
//!
//! ## The untrimmed ablation
//!
//! With [`SolveConfig::trim_dcn`](crate::SolveConfig::trim_dcn) disabled,
//! the step computes no `Qξ`: the specification partition is extended with
//! the completion bit `csd`, exactly as the monolithic flow completes `S`,
//! and subsets containing DC-paired product states are explored (and
//! rejecting) rather than collapsed. This is the *traditional* subset
//! construction — the monolithic flow's language — with partitioned
//! images, isolating the cost of the paper's trimming in the ablations.

use langeq_bdd::Bdd;
use langeq_image::{ImageComputer, ImageOptions};

use crate::equation::LanguageEquation;
use crate::solver::session::Session;
use crate::solver::{CncReason, Solution};

/// The paper's flow: prefix-closed trimming via `Qξ` and the `DCN` trap.
pub(crate) fn run_trimmed(
    eq: &LanguageEquation,
    image: ImageOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let quantify = vars.partitioned_quantify();
    // ξ from-sets range over the product state vars; protect them from
    // compile-time elimination so the fused schedule applies to every call.
    let protect = vars.product_state_vars();

    let mut compile_span = langeq_obs::span!("compile");
    let u_parts = eq.u_parts();
    let mut pt_parts = u_parts.clone();
    pt_parts.extend(eq.product_transition_parts());
    let p_image = ImageComputer::with_protected(&mgr, &pt_parts, &quantify, &protect, image);
    // One image per output: Qξ is accumulated "one output at a time".
    let q_images: Vec<ImageComputer> = eq
        .conformance_parts()
        .iter()
        .map(|c| {
            let mut parts = u_parts.clone();
            parts.push(c.not());
            ImageComputer::with_protected(&mgr, &parts, &quantify, &protect, image)
        })
        .collect();
    compile_span.field("partitions", pt_parts.len());
    drop(compile_span);

    let step = |sess: &mut Session<'_>, xi: &Bdd| {
        // Non-conformance letters, one output at a time with early exit.
        let mut q = mgr.zero();
        for qi in &q_images {
            q = q.or(&qi.image(xi));
            sess.note_image();
            if q.is_one() {
                break;
            }
        }
        let p = p_image.image(xi).and(&q.not());
        sess.note_image();
        (p, Some(q))
    };
    let xi0 = eq.initial_product_cube();
    sess.subset_construction(eq, xi0, &vars.ns_to_cs(), step, |_| true)
}

/// The untrimmed ablation: traditional subset construction over the product
/// with the **completed** specification (extra `csd` bit), still driven by
/// partitioned images. Language-identical to the monolithic flow.
pub(crate) fn run_untrimmed(
    eq: &LanguageEquation,
    image: ImageOptions,
    sess: &mut Session<'_>,
) -> Result<Solution, CncReason> {
    let mgr = eq.manager().clone();
    let vars = &eq.vars;
    let csd = mgr.var(vars.csd);
    let nsd = mgr.var(vars.nsd);

    // Completed-specification partition: while conforming and not in DC the
    // S latches follow T_k; entering or staying in DC forces the all-zero
    // code. The DC successor bit is `nsd ≡ csd ∨ ¬C`.
    let mut compile_span = langeq_obs::span!("compile");
    let conf_all = mgr.and_all(&eq.conformance_parts());
    let alive = csd.not().and(&conf_all);
    let mut parts = eq.u_parts();
    parts.extend(eq.f.transition_parts(&mgr));
    for latch in &eq.s.latches {
        parts.push(mgr.var(latch.ns).xnor(&alive.and(&latch.func)));
    }
    parts.push(nsd.xnor(&csd.or(&conf_all.not())));

    let mut quantify = vars.partitioned_quantify();
    quantify.push(vars.csd);
    // ξ mentions the product state vars and the DC bit: protect both.
    let mut protect = vars.product_state_vars();
    protect.push(vars.csd);
    let p_image = ImageComputer::with_protected(&mgr, &parts, &quantify, &protect, image);
    compile_span.field("partitions", parts.len());
    drop(compile_span);

    let step = |sess: &mut Session<'_>, xi: &Bdd| {
        let p = p_image.image(xi);
        sess.note_image();
        (p, None)
    };
    let xi0 = eq.initial_product_cube().and(&csd.not());
    // Accepting in the complemented answer iff the subset contains no
    // DC-paired product state.
    let accepting = |succ: &Bdd| succ.and(&csd).is_zero();
    sess.subset_construction(eq, xi0, &vars.ns_to_cs_with_dc(), step, accepting)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use crate::solver::{Outcome, SolveRequest};
    use langeq_logic::gen;

    fn solve_figure3_problem(p: &LatchSplitProblem, trim: bool) -> Solution {
        match SolveRequest::partitioned().trim_dcn(trim).run(&p.equation) {
            Outcome::Solved(s) => *s,
            Outcome::Cnc(r) => panic!("unexpected CNC: {r}"),
        }
    }

    fn solve_figure3(unknown: &[usize], trim: bool) -> Solution {
        let net = gen::figure3();
        let p = LatchSplitProblem::new(&net, unknown).unwrap();
        solve_figure3_problem(&p, trim)
    }

    #[test]
    fn figure3_solution_is_well_formed() {
        let sol = solve_figure3(&[1], true);
        // The most general solution is complete and deterministic.
        assert!(sol.general.is_complete());
        assert!(sol.general.is_deterministic());
        // Prefix-closed part: all states accepting.
        for s in sol.prefix_closed.reachable_states() {
            assert!(sol.prefix_closed.is_accepting(s));
        }
        // The CSF is nonempty (X_P exists, so the flexibility cannot be
        // empty) and input-progressive.
        assert!(sol.csf.initial().is_some());
        let eq_vars_u = {
            let net = gen::figure3();
            let p = LatchSplitProblem::new(&net, &[1]).unwrap();
            p.equation.vars.u.clone()
        };
        for s in sol.csf.reachable_states() {
            let other: Vec<_> = sol
                .csf
                .alphabet()
                .iter()
                .copied()
                .filter(|v| !eq_vars_u.contains(v))
                .collect();
            let cover = sol.csf.defined_labels(s).exists(&other);
            assert!(cover.is_one(), "CSF must be input-progressive");
        }
    }

    #[test]
    fn trimming_does_not_change_the_prefix_closed_language() {
        let net = gen::figure3();
        for unknown in [&[0usize][..], &[1], &[0, 1]] {
            // One problem (one manager) so the results are comparable.
            let p = LatchSplitProblem::new(&net, unknown).unwrap();
            let with = solve_figure3_problem(&p, true);
            let without = solve_figure3_problem(&p, false);
            assert!(
                with.csf.equivalent(&without.csf),
                "CSF mismatch for split {unknown:?}"
            );
            assert!(
                with.prefix_closed.equivalent(&without.prefix_closed),
                "prefix-closed mismatch for split {unknown:?}"
            );
            // Trimming can only shrink the general solution's language (it
            // drops words whose prefixes are already dead).
            assert!(with.general.is_contained_in(&without.general));
        }
    }

    #[test]
    fn splitting_all_latches_keeps_spec_behaviour() {
        // With every latch in X, F is purely combinational; the CSF must
        // still accept X_P's behaviour (checked fully in verify.rs tests;
        // here: nonempty).
        let sol = solve_figure3(&[0, 1], true);
        assert!(sol.csf.initial().is_some());
        assert!(sol.stats.subset_states >= 2);
    }
}
