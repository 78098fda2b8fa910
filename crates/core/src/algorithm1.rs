//! The paper's generic **Algorithm 1**, implemented literally on explicit
//! automata (`langeq-automata` operations):
//!
//! ```text
//! 01 X := Complete(S)            07 X := Determinize(X)
//! 02 X := Determinize(X)         08 X := Complete(X)
//! 03 X := Complement(X)          09 X := Complement(X)
//! 04 X := Support(X,(i,v,u,o))   10 X := PrefixClose(X)
//! 05 X := Product(Complete(F),X) 11 X := Progressive(X,u)
//! 06 X := Support(X,(u,v))       12 return X
//! ```
//!
//! This reference pipeline materialises every intermediate automaton
//! explicitly, so it only scales to small instances — which is exactly its
//! purpose: cross-validating the two symbolic solvers ([`crate::solver`])
//! against an independent implementation.

use langeq_automata::Automaton;
use langeq_bdd::{Bdd, BddManager, VarId};

use crate::equation::LanguageEquation;
use crate::fsm::PartitionedFsm;
use crate::solver::CncReason;

/// Hard cap on explicit state enumeration (2^latches).
pub const MAX_EXPLICIT_LATCHES: usize = 16;

/// Converts a partitioned FSM into an explicit automaton over
/// `inputs ∪ outputs` — the "simple syntactic change" of the paper
/// (inputs and outputs are no longer distinguished, every reachable state
/// accepts).
///
/// # Panics
///
/// Panics if the component has more than [`MAX_EXPLICIT_LATCHES`] latches.
pub fn component_to_automaton(mgr: &BddManager, fsm: &PartitionedFsm) -> Automaton {
    assert!(
        fsm.latches.len() <= MAX_EXPLICIT_LATCHES,
        "too many latches for explicit automaton extraction"
    );
    let mut alphabet: Vec<VarId> = fsm.inputs.clone();
    alphabet.extend(fsm.outputs.iter().map(|o| o.var));
    let mut aut = Automaton::new(mgr, &alphabet);

    // Explicit BFS over latch valuations.
    let init: Vec<bool> = fsm.latches.iter().map(|l| l.init).collect();
    let mut index = std::collections::HashMap::new();
    let name = |bits: &[bool]| -> String {
        if bits.is_empty() {
            "s".to_string()
        } else {
            bits.iter().map(|&b| if b { '1' } else { '0' }).collect()
        }
    };
    let s0 = aut.add_named_state(true, name(&init));
    aut.set_initial(s0);
    index.insert(init.clone(), s0);
    let mut work = vec![init];
    while let Some(state) = work.pop() {
        let from = index[&state];
        // Restrict all functions to this state and build the local relation
        // R_s(alphabet, ns) = ∧_j (o_j ≡ O_j|s) ∧ ∧_k (ns_k ≡ T_k|s).
        let restrict = |f: &Bdd| -> Bdd {
            let mut g = f.clone();
            for (l, &b) in fsm.latches.iter().zip(&state) {
                g = g.cofactor(l.cs, b);
            }
            g
        };
        let mut rel = mgr.one();
        for out in &fsm.outputs {
            rel = rel.and(&mgr.var(out.var).xnor(&restrict(&out.func)));
        }
        for l in &fsm.latches {
            rel = rel.and(&mgr.var(l.ns).xnor(&restrict(&l.func)));
        }
        for (guard, succ) in mgr.cofactor_classes(&rel, &alphabet) {
            // The residual is a complete minterm over the ns variables;
            // an empty class has no successor and contributes nothing.
            let Some(cube) = succ.pick_cube() else {
                continue;
            };
            let mut bits = vec![false; fsm.latches.len()];
            for (v, b) in cube {
                if let Some(k) = fsm.latches.iter().position(|l| l.ns == v) {
                    bits[k] = b;
                }
            }
            let to = match index.get(&bits) {
                Some(&t) => t,
                None => {
                    let t = aut.add_named_state(true, name(&bits));
                    index.insert(bits.clone(), t);
                    work.push(bits);
                    t
                }
            };
            aut.add_transition(from, guard, to);
        }
    }
    aut
}

/// The result of the generic pipeline.
#[derive(Debug, Clone)]
pub struct GenericSolution {
    /// After step 09: the most general solution.
    pub general: Automaton,
    /// After step 10: the most general prefix-closed solution.
    pub prefix_closed: Automaton,
    /// After step 11: the CSF.
    pub csf: Automaton,
}

/// Runs Algorithm 1 on explicit automata. Only suitable for small
/// instances; see the module docs. For a resource-limited, cancellable run,
/// solve with [`SolverKind::Algorithm1`](crate::SolverKind::Algorithm1)
/// instead.
pub fn solve_generic(eq: &LanguageEquation) -> GenericSolution {
    run_pipeline(eq, &mut |_| Ok(())).expect("the no-op observer never aborts the pipeline")
}

/// The pipeline body: `observe` is called with the current intermediate
/// automaton after every step and may abort the run (the
/// [`SolverKind::Algorithm1`](crate::SolverKind::Algorithm1) flow threads
/// its control checkpoints through here).
pub(crate) fn run_pipeline(
    eq: &LanguageEquation,
    observe: &mut dyn FnMut(&Automaton) -> Result<(), CncReason>,
) -> Result<GenericSolution, CncReason> {
    let mgr = eq.manager();
    let vars = &eq.vars;
    let s_aut = component_to_automaton(mgr, &eq.s); // over (i, o)
    observe(&s_aut)?;
    let f_aut = component_to_automaton(mgr, &eq.f); // over (i, v, o, u)
    observe(&f_aut)?;

    // 01-03: Complete, Determinize, Complement the specification. (S is
    // deterministic, so complement() = complete + flip, as in the paper's
    // "Complementation (deterministic case)".)
    let (x, _) = s_aut.complete(false);
    let x = x.determinize();
    let x = x.complement();
    observe(&x)?;
    // 04: expand support to (i, v, u, o).
    let mut extra = vars.v.clone();
    extra.extend(&vars.u);
    let x = x.expand(&extra);
    // 05: product with Complete(F).
    let (fc, _) = f_aut.complete(false);
    let x = fc.product(&x);
    observe(&x)?;
    // 06: hide (i, o).
    let mut io = vars.i.clone();
    io.extend(&vars.o);
    let x = x.hide(&io);
    // 07-09: determinize, complete, complement.
    let x = x.determinize();
    observe(&x)?;
    let general = x.complement(); // completes internally, then flips
                                  // 10-11: prefix-close, progressive.
    let prefix_closed = general.prefix_close();
    let csf = prefix_closed.progressive(&vars.u);
    observe(&csf)?;
    Ok(GenericSolution {
        general,
        prefix_closed,
        csf,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equation::LatchSplitProblem;
    use crate::solver::SolveRequest;
    use langeq_logic::gen;

    #[test]
    fn component_extraction_matches_figure3() {
        let net = gen::figure3();
        let p = LatchSplitProblem::new(&net, &[1]).unwrap();
        let aut = component_to_automaton(p.equation.manager(), &p.equation.s);
        // Figure 3: three reachable circuit states, all accepting.
        assert_eq!(aut.num_states(), 3);
        assert!(aut.reachable_states().iter().all(|&s| aut.is_accepting(s)));
        assert!(aut.is_deterministic());
        // Completion then adds the DC state of the figure.
        let (complete, dc) = aut.complete(false);
        assert_eq!(complete.num_states(), 4);
        assert!(dc.is_some());
    }

    /// The headline cross-validation: three independent implementations
    /// (generic Algorithm 1 on explicit automata, the partitioned solver,
    /// the monolithic solver) must agree on the language of the most
    /// general prefix-closed solution and of the CSF.
    #[test]
    fn three_implementations_agree() {
        let nets = [gen::figure3(), gen::counter("c3", 3)];
        for net in &nets {
            let all: Vec<usize> = (0..net.num_latches()).collect();
            let splits: Vec<Vec<usize>> = vec![vec![0], all[1..].to_vec()];
            for unknown in splits {
                let p = LatchSplitProblem::new(net, &unknown).unwrap();
                let gen_sol = solve_generic(&p.equation);
                let part = SolveRequest::partitioned()
                    .run(&p.equation)
                    .into_result()
                    .expect("partitioned solves");
                let mono = SolveRequest::monolithic()
                    .run(&p.equation)
                    .into_result()
                    .expect("monolithic solves");
                assert!(
                    gen_sol.prefix_closed.equivalent(&part.prefix_closed),
                    "{}: generic vs partitioned prefix-closed ({unknown:?})",
                    net.name()
                );
                assert!(
                    gen_sol.csf.equivalent(&part.csf),
                    "{}: generic vs partitioned CSF ({unknown:?})",
                    net.name()
                );
                assert!(
                    gen_sol.csf.equivalent(&mono.csf),
                    "{}: generic vs monolithic CSF ({unknown:?})",
                    net.name()
                );
            }
        }
    }
}
