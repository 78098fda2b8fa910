//! The paper's verification step (§4): after computing the CSF `X`, check
//!
//! 1. `X_P ⊆ X` — the particular solution is contained in the flexibility,
//! 2. `F ∘ X ⊆ S` — the flexibility composed with the fixed part satisfies
//!    the specification.
//!
//! Both checks run a **symbolic-explicit product**: each explicit state of
//! `X` is annotated with a BDD over the symbolic state space of the other
//! component, and a worklist grows the annotations edge by edge until they
//! stop changing. The symbolic side is never enumerated, so the checks
//! scale to flexibilities with many thousands of states.
//!
//! Check (2) is **label-indexed**. A CSF has far more edges than distinct
//! labels (`sim_s349`: 99 328 edges, 82 labels), so for each distinct label
//! `ℓ(u, v)` two relations over the product state are computed once, with
//! `ℓ` as the image's from-set and `i ∪ u ∪ v` quantified:
//!
//! * `M_ℓ(cs) = ∃i,u,v. ℓ ∧ ⋀(u ≡ U) ∧ ¬C` — the product states from which
//!   some letter of `ℓ` makes `F`'s output disagree with `S`;
//! * `N_ℓ(cs, ns) = ∃i,u,v. ℓ ∧ ⋀(u ≡ U) ∧ ⋀(ns ≡ T)` — the product moves
//!   under the letters of `ℓ`.
//!
//! An edge with label `ℓ` leaving an annotation `R` fails iff `R ∧ M_ℓ ≠ 0`;
//! otherwise its successors are `(∃cs. R ∧ N_ℓ)[ns → cs]`. `N_ℓ` omits the
//! conformance condition `C`: once the edge's own mismatch test has passed,
//! every move of `R` under `ℓ` conforms, so conjoining `C` would change
//! nothing.

use std::collections::HashMap;

use langeq_automata::{Automaton, StateId};
use langeq_bdd::Bdd;
use langeq_image::{ImageComputer, ImageOptions};

use crate::equation::{LanguageEquation, LatchSplitProblem};

/// The outcome of [`verify_latch_split`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VerificationReport {
    /// Check (1): `X_P ⊆ X`.
    pub xp_contained: bool,
    /// Check (2): `F ∘ X ⊆ S`.
    pub composition_contained: bool,
}

impl VerificationReport {
    /// True if both checks passed.
    pub fn all_passed(&self) -> bool {
        self.xp_contained && self.composition_contained
    }
}

impl std::fmt::Display for VerificationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "X_P ⊆ X: {}; F∘X ⊆ S: {}",
            if self.xp_contained { "ok" } else { "FAILED" },
            if self.composition_contained {
                "ok"
            } else {
                "FAILED"
            }
        )
    }
}

/// Runs both checks of the paper for a latch-split problem and its computed
/// flexibility `x` (usually the CSF).
pub fn verify_latch_split(problem: &LatchSplitProblem, x: &Automaton) -> VerificationReport {
    VerificationReport {
        xp_contained: xp_contained_in(problem, x),
        composition_contained: composition_contained_in_spec(&problem.equation, x),
    }
}

/// Check (1): the particular solution (register bank) is contained in `x`.
///
/// `X_P` is kept symbolic: its state is the value of the `v` variables
/// (output = current state, next state = `u` input). Each explicit state of
/// `x` is annotated with the BDD of `X_P` states that can be paired with it;
/// containment fails iff some reachable pair admits an `X_P` move that `x`
/// does not.
pub fn xp_contained_in(problem: &LatchSplitProblem, x: &Automaton) -> bool {
    let eq = &problem.equation;
    let mgr = eq.manager();
    let vars = &eq.vars;
    let Some(x0) = x.initial() else {
        // X_P always has behaviour (at least the empty word), the empty
        // automaton has none.
        return false;
    };
    let init_lits: Vec<_> = vars
        .v
        .iter()
        .copied()
        .zip(problem.xp.initial_state())
        .collect();
    let v_cube = mgr.positive_cube(&vars.v);
    let u_to_v = vars.u_to_v();

    let mut product = Product::new(x, x0, mgr.cube(&init_lits));
    while let Some((xs, r)) = product.pop() {
        // X_P at state b offers every u with v = b; x must cover all of
        // them: violation iff some (u, v∈R) is undefined in x.
        let dom = x.defined_labels(xs);
        if !r.and(&dom.not()).is_zero() {
            return false;
        }
        for (label, xt) in x.transitions_from(xs) {
            // Successor X_P states: v' = u for any enabled (u, v∈R).
            let next_u = mgr.and_exists(&r, label, &v_cube);
            if !next_u.is_zero() {
                product.merge(*xt, next_u.rename(&u_to_v));
            }
        }
    }
    true
}

/// Check (2): `F ∘ X ⊆ S` for an explicit `x` over `(u, v)`.
///
/// Each explicit state of `x` is annotated with the reachable set
/// `R(cs_f, cs_s)` of symbolic product states. Each distinct label `ℓ` of
/// `x` gets its mismatch set `M_ℓ` and its move relation `N_ℓ` once (see
/// the module docs); an edge then costs one conjunction (the mismatch
/// test `R ∧ M_ℓ`) and one relational product (`∃cs. R ∧ N_ℓ`).
pub fn composition_contained_in_spec(eq: &LanguageEquation, x: &Automaton) -> bool {
    let mgr = eq.manager();
    let vars = &eq.vars;
    let Some(x0) = x.initial() else {
        // Empty X: the composition has no behaviour, trivially contained.
        return true;
    };
    // Both images take a label as from-set: quantify i ∪ u ∪ v, protect the
    // letter variables the label mentions.
    let letters = vars.uv();
    let mut quantify = vars.i.clone();
    quantify.extend(&letters);
    let label_image = |extra: Vec<Bdd>| {
        let mut parts = eq.u_parts();
        parts.extend(extra);
        ImageComputer::with_protected(mgr, &parts, &quantify, &letters, ImageOptions::default())
    };
    let conf_all = mgr.and_all(&eq.conformance_parts());
    let mismatch_img = label_image(vec![conf_all.not()]);
    let move_img = label_image(eq.product_transition_parts());
    let cs_cube = mgr.positive_cube(&vars.product_state_vars());
    let ns_to_cs = vars.ns_to_cs();

    #[allow(clippy::mutable_key_type)] // Bdd hashing is by stable node id
    let mut per_label: HashMap<Bdd, (Bdd, Bdd)> = HashMap::new();
    let mut product = Product::new(x, x0, eq.initial_product_cube());
    while let Some((xs, r)) = product.pop() {
        for (label, xt) in x.transitions_from(xs) {
            let (mismatch, moves) = per_label
                .entry(label.clone())
                .or_insert_with(|| (mismatch_img.image(label), move_img.image(label)));
            if !r.and(mismatch).is_zero() {
                return false;
            }
            let next = mgr.and_exists(&r, moves, &cs_cube);
            if !next.is_zero() {
                product.merge(*xt, next.rename(&ns_to_cs));
            }
        }
    }
    true
}

/// The worklist of a symbolic-explicit product: one annotation per state
/// of `x` (zero until reached) and a LIFO queue of the states whose
/// annotation grew since they were last popped.
struct Product {
    annot: Vec<Bdd>,
    queued: Vec<bool>,
    work: Vec<StateId>,
}

impl Product {
    /// Starts the product at `x0` annotated with `init`.
    fn new(x: &Automaton, x0: StateId, init: Bdd) -> Self {
        let n = x.num_states();
        let mut product = Product {
            annot: vec![x.manager().zero(); n],
            queued: vec![false; n],
            work: Vec::new(),
        };
        product.merge(x0, init);
        product
    }

    /// The next queued state with its current annotation.
    fn pop(&mut self) -> Option<(StateId, Bdd)> {
        let xs = self.work.pop()?;
        self.queued[xs.index()] = false;
        Some((xs, self.annot[xs.index()].clone()))
    }

    /// Adds `next` to the annotation of `xt`, queueing `xt` if it grew.
    fn merge(&mut self, xt: StateId, next: Bdd) {
        let entry = &mut self.annot[xt.index()];
        let merged = entry.or(&next);
        if merged != *entry {
            *entry = merged;
            if !std::mem::replace(&mut self.queued[xt.index()], true) {
                self.work.push(xt);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::solver::SolveRequest;
    use langeq_automata::Automaton;
    use langeq_logic::gen;

    fn solved(
        net: &langeq_logic::Network,
        unknown: &[usize],
    ) -> (LatchSplitProblem, crate::Solution) {
        let p = LatchSplitProblem::new(net, unknown).unwrap();
        let sol = SolveRequest::partitioned()
            .run(&p.equation)
            .into_result()
            .expect("instance solves");
        (p, sol)
    }

    #[test]
    fn figure3_csf_verifies() {
        let net = gen::figure3();
        for unknown in [&[0usize][..], &[1], &[0, 1]] {
            let (p, sol) = solved(&net, unknown);
            let report = verify_latch_split(&p, &sol.csf);
            assert!(report.all_passed(), "split {unknown:?}: {report}");
        }
    }

    #[test]
    fn counter_csf_verifies() {
        let net = gen::counter("c4", 4);
        let (p, sol) = solved(&net, &[1, 3]);
        let report = verify_latch_split(&p, &sol.csf);
        assert!(report.all_passed(), "{report}");
    }

    #[test]
    fn prefix_closed_solution_also_satisfies_spec() {
        // Check (2) must hold not only for the CSF but for the whole
        // prefix-closed most-general solution.
        let net = gen::figure3();
        let (p, sol) = solved(&net, &[1]);
        assert!(composition_contained_in_spec(
            &p.equation,
            &sol.prefix_closed
        ));
    }

    #[test]
    fn broken_x_fails_composition_check() {
        // An X that ignores its inputs and emits everything violates S.
        let net = gen::figure3();
        let (p, sol) = solved(&net, &[1]);
        let eq = &p.equation;
        let mgr = eq.manager();
        let mut bogus = Automaton::new(mgr, &eq.vars.uv());
        let s0 = bogus.add_state(true);
        bogus.set_initial(s0);
        bogus.add_transition(s0, mgr.one(), s0);
        // The universal X must fail (unless the spec is trivially
        // permissive, which Figure 3 is not).
        assert!(!composition_contained_in_spec(eq, &bogus));
        let _ = sol;
    }

    #[test]
    fn too_small_x_fails_xp_containment() {
        // An X accepting only the empty behaviour cannot contain X_P.
        let net = gen::figure3();
        let (p, _) = solved(&net, &[1]);
        let mgr = p.equation.manager();
        let empty = Automaton::new(mgr, &p.equation.vars.uv());
        assert!(!xp_contained_in(&p, &empty));
    }
}
