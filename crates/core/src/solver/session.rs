//! Per-run plumbing shared by every flow: arming the BDD engine's
//! cooperative-abort guards, enforcing the
//! [`SolverLimits`](crate::SolverLimits) and the
//! [`Control`](crate::Control)'s token/deadline, and emitting
//! [`SolveEvent`](crate::SolveEvent)s — and the one modified subset
//! construction ([`Session::subset_construction`]) that the partitioned,
//! untrimmed and monolithic flows all drive.
//!
//! A [`Session`] is created at the top of a solve and dropped at the end
//! (whatever the outcome); its `Drop` disarms the engine guards, restores
//! the previous node limit, and reclaims any garbage an abort left behind —
//! so the manager is immediately reusable, which the old
//! `catch_unwind`-based machinery could only promise after a panic had
//! propagated through every stack frame.

use std::collections::{HashMap, VecDeque};
use std::time::{Duration, Instant};

use langeq_automata::{Automaton, StateId};
use langeq_bdd::{AbortReason, Bdd, BddManager, ReorderPolicy, VarId};

use crate::equation::LanguageEquation;
use crate::solver::control::{Control, SolveEvent};
use crate::solver::{CncReason, Solution, SolverKind, SolverLimits, SolverStats};

/// State of one solver run. See the module docs.
pub(crate) struct Session<'c> {
    ctrl: &'c Control,
    mgr: BddManager,
    limits: SolverLimits,
    start: Instant,
    /// Effective absolute deadline: the earlier of `limits.time_limit` from
    /// `start` and the control's deadline.
    deadline: Option<Instant>,
    prev_node_limit: Option<usize>,
    /// The abort hook that was installed before this session armed its own;
    /// restored on drop.
    prev_hook: Option<Box<dyn Fn() -> bool>>,
    /// The reorder policy that was active before this session armed the
    /// run's own; restored on drop.
    prev_reorder: ReorderPolicy,
    /// Reorder counters at `begin`, so the stats report this run's share.
    reorders_at_begin: u64,
    reorder_delta_at_begin: i64,
    images: usize,
    last_gc_runs: u64,
}

impl<'c> Session<'c> {
    /// Arms the engine guards — node limit, abort hook, and the run's
    /// dynamic-reorder policy — and emits [`SolveEvent::Started`].
    pub(crate) fn begin(
        mgr: &BddManager,
        limits: SolverLimits,
        reorder: ReorderPolicy,
        ctrl: &'c Control,
        kind: SolverKind,
    ) -> Self {
        let start = Instant::now();
        // A limit too large to represent as an instant is no deadline.
        let from_limit = limits.time_limit.and_then(|d| start.checked_add(d));
        let deadline = match (from_limit, ctrl.deadline()) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, b) => a.or(b),
        };
        let prev_node_limit = mgr.node_limit();
        mgr.set_node_limit(limits.node_limit);
        let token = ctrl.token().clone();
        let prev_hook = mgr.set_abort_hook(Some(Box::new(move || {
            token.is_cancelled() || deadline.is_some_and(|d| Instant::now() >= d)
        })));
        let prev_reorder = mgr.set_reorder_policy(reorder);
        let begin_stats = mgr.stats();
        let last_gc_runs = begin_stats.gc_runs;
        ctrl.emit(SolveEvent::Started { kind });
        Session {
            ctrl,
            mgr: mgr.clone(),
            limits,
            start,
            deadline,
            prev_node_limit,
            prev_hook,
            prev_reorder,
            reorders_at_begin: begin_stats.reorders,
            reorder_delta_at_begin: begin_stats.reorder_node_delta,
            images: 0,
            last_gc_runs,
        }
    }

    /// Wall-clock time since [`begin`](Self::begin).
    pub(crate) fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }

    /// Counts one image computation and notifies the observer.
    pub(crate) fn note_image(&mut self) {
        self.images += 1;
        self.ctrl
            .emit(SolveEvent::ImageComputed { total: self.images });
    }

    /// The per-iteration control point of the subset construction (and of
    /// each Algorithm-1 pipeline step): emits progress events, then checks
    /// (in order) a pending engine abort, the cancellation token, the
    /// deadline, and the state budget.
    pub(crate) fn checkpoint(
        &mut self,
        discovered: usize,
        frontier: usize,
    ) -> Result<(), CncReason> {
        self.ctrl.emit(SolveEvent::SubsetState {
            discovered,
            frontier,
        });
        self.poll()?;
        if let Some(max) = self.limits.max_states {
            if discovered > max {
                return Err(CncReason::StateLimit(max));
            }
        }
        Ok(())
    }

    /// A control point *between* pipeline phases (no worklist entry was
    /// popped, so no [`SolveEvent::SubsetState`] is emitted): samples the
    /// engine and checks abort/cancellation/deadline.
    pub(crate) fn poll(&mut self) -> Result<(), CncReason> {
        self.sample_engine();
        self.ensure_clean()?;
        if self.ctrl.token().is_cancelled() {
            return Err(CncReason::Cancelled);
        }
        if self.deadline.is_some_and(|d| Instant::now() >= d) {
            return Err(CncReason::Timeout(self.effective_time_limit()));
        }
        Ok(())
    }

    /// Converts a pending engine abort into the corresponding
    /// [`CncReason`], reclaiming the aborted computation's garbage. Call
    /// after any BDD-heavy step whose results are about to be trusted.
    pub(crate) fn ensure_clean(&mut self) -> Result<(), CncReason> {
        if let Some(abort) = self.mgr.take_abort() {
            self.mgr.collect_garbage();
            return Err(match abort {
                AbortReason::NodeLimit { limit, .. } => CncReason::NodeLimit(limit),
                AbortReason::Hook => {
                    if self.ctrl.token().is_cancelled() {
                        CncReason::Cancelled
                    } else {
                        CncReason::Timeout(self.effective_time_limit())
                    }
                }
            });
        }
        Ok(())
    }

    /// Shared post-processing: verifies the run ended clean, derives the
    /// prefix-closed solution and the CSF, and assembles the
    /// [`Solution`] with this run's statistics.
    pub(crate) fn finish(
        &mut self,
        eq: &LanguageEquation,
        general: Automaton,
    ) -> Result<Solution, CncReason> {
        self.ensure_clean()?;
        let mut span = langeq_obs::span!("extract");
        let prefix_closed = general.prefix_close();
        let csf = prefix_closed.progressive(&eq.vars.u);
        span.field("csf_states", csf.num_states());
        drop(span);
        // The post-processing itself runs under the engine guards too.
        self.ensure_clean()?;
        Ok(self.solution(general, prefix_closed, csf))
    }

    /// Assembles the [`Solution`] with this run's statistics: images
    /// counted by [`note_image`](Self::note_image), and the reorder
    /// counters' share since [`begin`](Self::begin).
    pub(crate) fn solution(
        &self,
        general: Automaton,
        prefix_closed: Automaton,
        csf: Automaton,
    ) -> Solution {
        let bdd_stats = self.mgr.stats();
        let stats = SolverStats {
            subset_states: general.num_states(),
            transitions: general.num_transitions(),
            images: self.images,
            duration: self.elapsed(),
            peak_live_nodes: bdd_stats.peak_live_nodes,
            cache_hit_rate: bdd_stats.cache_hit_rate(),
            gc_survival_rate: bdd_stats.gc_survival_rate(),
            avg_probe_length: bdd_stats.avg_probe_length(),
            reorders: bdd_stats.reorders - self.reorders_at_begin,
            reorder_node_delta: bdd_stats.reorder_node_delta - self.reorder_delta_at_begin,
        };
        Solution {
            general,
            prefix_closed,
            csf,
            stats,
        }
    }

    /// The modified subset construction of §3.2 and §4, shared by every
    /// symbolic flow, followed by [`finish`](Self::finish).
    ///
    /// From `xi0`, every discovered subset `ξ` is handed to `step`, which
    /// returns the successor relation `P(u,v,ns)` and, for the trimmed
    /// flow, the non-conformance letters `Q(u,v)` (already removed from
    /// `P`). The distinct cofactors of `P` over `(u,v)` renamed by
    /// `ns_to_cs` are the successor subsets; a new one is accepting iff
    /// `accepting` says so. `Q` goes to the non-accepting trap `DCN`, the
    /// uncovered letters to the accepting completion trap `DCA`.
    ///
    /// Every manager operation here is a GC and reorder trigger point, so
    /// the loop performs no operation a flow does not need: without `Q`
    /// the uncovered letters are `¬dom`, not `¬(dom ∨ 0)`.
    #[allow(clippy::mutable_key_type)] // Bdd hashing is by stable node id
    pub(crate) fn subset_construction(
        &mut self,
        eq: &LanguageEquation,
        xi0: Bdd,
        ns_to_cs: &[(VarId, VarId)],
        mut step: impl FnMut(&mut Self, &Bdd) -> (Bdd, Option<Bdd>),
        accepting: impl Fn(&Bdd) -> bool,
    ) -> Result<Solution, CncReason> {
        let mgr = eq.manager();
        let uv = eq.vars.uv();
        let mut aut = Automaton::new(mgr, &uv);
        let mut index: HashMap<Bdd, StateId> = HashMap::new();
        let mut work: VecDeque<Bdd> = VecDeque::new();

        let s0 = aut.add_named_state(true, "xi0");
        index.insert(xi0.clone(), s0);
        aut.set_initial(s0);
        work.push_back(xi0);

        let mut dcn: Option<StateId> = None;
        let mut dca: Option<StateId> = None;

        let mut fixpoint_span = langeq_obs::span!("fixpoint");
        while let Some(xi) = work.pop_front() {
            self.checkpoint(aut.num_states(), work.len() + 1)?;
            let from = index[&xi];
            let (p, q) = step(self, &xi);
            let mut dom = mgr.zero();
            for (guard, succ_ns) in mgr.cofactor_classes(&p, &uv) {
                dom = dom.or(&guard);
                let succ = succ_ns.rename(ns_to_cs);
                let to = match index.get(&succ) {
                    Some(&t) => t,
                    None => {
                        let acc = accepting(&succ);
                        let dc = if acc { "" } else { "+dc" };
                        let t = aut.add_named_state(acc, format!("xi{}{dc}", index.len()));
                        index.insert(succ.clone(), t);
                        work.push_back(succ);
                        t
                    }
                };
                aut.add_transition(from, guard, to);
            }
            let rest = match &q {
                Some(q) => {
                    // Letters that can mis-conform are redirected to the
                    // non-accepting trap (the prefix-closed trimming).
                    if !q.is_zero() {
                        let t = *dcn.get_or_insert_with(|| aut.add_named_state(false, "DCN"));
                        aut.add_transition(from, q.clone(), t);
                    }
                    dom.or(q).not()
                }
                None => dom.not(),
            };
            // Uncovered conforming letters: deferred completion, accepting
            // in the complemented answer.
            if !rest.is_zero() {
                let t = *dca.get_or_insert_with(|| aut.add_named_state(true, "DCA"));
                aut.add_transition(from, rest, t);
            }
        }
        fixpoint_span.field("subset_states", aut.num_states());
        drop(fixpoint_span);
        // Universal self-loops on the traps.
        for t in [dcn, dca].into_iter().flatten() {
            aut.add_transition(t, mgr.one(), t);
        }

        self.finish(eq, aut)
    }

    /// The duration to report in [`CncReason::Timeout`]: the configured
    /// relative limit when one was set, otherwise the elapsed time at the
    /// moment the control deadline fired.
    fn effective_time_limit(&self) -> Duration {
        self.limits.time_limit.unwrap_or_else(|| self.elapsed())
    }

    /// Emits [`SolveEvent::PeakNodes`], a [`SolveEvent::CacheSample`] of the
    /// kernel's cache/table counters, and, when the engine collected since
    /// the last sample, [`SolveEvent::GcPass`].
    fn sample_engine(&mut self) {
        let stats = self.mgr.stats();
        // CacheSample first: consumers that redraw on PeakNodes (the CLI
        // progress line) then render one internally consistent snapshot.
        self.ctrl.emit(SolveEvent::CacheSample {
            cache_lookups: stats.cache_lookups,
            cache_hits: stats.cache_hits,
            cache_survived: stats.cache_surviving_entries,
            cache_swept: stats.cache_swept_entries,
            cache_puts: stats.cache_puts,
            cache_evictions: stats.cache_evictions,
            unique_probes: stats.unique_probes,
            unique_lookups: stats.unique_lookups,
        });
        self.ctrl.emit(SolveEvent::PeakNodes {
            live_nodes: stats.live_nodes,
            peak_live_nodes: stats.peak_live_nodes,
        });
        if stats.gc_runs > self.last_gc_runs {
            self.last_gc_runs = stats.gc_runs;
            self.ctrl.emit(SolveEvent::GcPass {
                gc_runs: stats.gc_runs,
                live_nodes: stats.live_nodes,
            });
        }
    }
}

impl Drop for Session<'_> {
    fn drop(&mut self) {
        self.mgr.set_abort_hook(self.prev_hook.take());
        self.mgr.set_node_limit(self.prev_node_limit);
        self.mgr.set_reorder_policy(self.prev_reorder);
        if self.mgr.take_abort().is_some() {
            // An abort fired after the last `ensure_clean`; reclaim its
            // garbage so the manager hands back clean.
            self.mgr.collect_garbage();
        }
    }
}
