//! The traced run's view of a solve: timestamped `SolveEvent`s kept in
//! memory by a progress observer, split afterwards into the layers of the
//! subset-construction fixpoint.
//!
//! Each solve is cut at its own events:
//!
//! * `compile`: from `Started` to the first `SubsetState` (image-computer
//!   build and fusion, or the monolithic relation build);
//! * per subset state, `q`: from its `SubsetState` to its second-to-last
//!   `ImageComputed` (the non-conformance images Qξ; none in the
//!   monolithic flow);
//! * per subset state, `p`: its last image (Pξ, or the monolithic image);
//! * per subset state, `classes`: from its last image to the next
//!   `SubsetState` (`cofactor_classes`, the `ns→cs` rename and subset-table
//!   bookkeeping);
//! * `extract`: from the last event to the solve's return (the last
//!   state's tail, prefix-close and progressive);
//! * `residual`: solve wall time minus all of the above (the solve's
//!   prelude up to `Started`).

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use langeq_core::SolveEvent;

/// The event kinds the split needs; the others are dropped on arrival.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mark {
    Started,
    State,
    Image,
}

/// Shared in-memory event log of one solve.
#[derive(Clone, Default)]
pub struct Recorder {
    events: Rc<RefCell<Vec<(Mark, Instant)>>>,
}

impl Recorder {
    /// A fresh, empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The observer to attach with `SolveRequest::on_progress`.
    pub fn observer(&self) -> impl FnMut(&SolveEvent) + 'static {
        let events = Rc::clone(&self.events);
        move |event| {
            let now = Instant::now();
            let mark = match event {
                SolveEvent::Started { .. } => Mark::Started,
                SolveEvent::SubsetState { .. } => Mark::State,
                SolveEvent::ImageComputed { .. } => Mark::Image,
                _ => return,
            };
            events.borrow_mut().push((mark, now));
        }
    }

    /// Splits the logged solve, which the caller timed from `begin` to
    /// `end`.
    pub fn split(&self, begin: Instant, end: Instant) -> Split {
        split(&self.events.borrow(), begin, end)
    }
}

/// Seconds per layer of one solve, plus the per-state durations.
#[derive(Debug, Clone, Default)]
pub struct Split {
    pub compile: f64,
    pub q: f64,
    pub p: f64,
    pub classes: f64,
    pub extract: f64,
    pub residual: f64,
    /// Wall time of every subset state that has a successor state, from
    /// its `SubsetState` to the next one.
    pub state_secs: Vec<f64>,
}

fn secs(from: Instant, to: Instant) -> f64 {
    to.saturating_duration_since(from).as_secs_f64()
}

fn split(events: &[(Mark, Instant)], begin: Instant, end: Instant) -> Split {
    let wall = secs(begin, end);
    let mut out = Split::default();
    let Some(started) = events.iter().position(|(m, _)| *m == Mark::Started) else {
        out.residual = wall;
        return out;
    };
    let t_started = events[started].1;
    let states: Vec<usize> = (started..events.len())
        .filter(|&k| events[k].0 == Mark::State)
        .collect();
    let last_event = events.last().map_or(t_started, |e| e.1);
    out.compile = secs(
        t_started,
        states.first().map_or(last_event, |&k| events[k].1),
    );
    for (n, &k) in states.iter().enumerate() {
        let t_state = events[k].1;
        let stop = states.get(n + 1).copied().unwrap_or(events.len());
        let images: Vec<Instant> = events[k + 1..stop]
            .iter()
            .filter(|(m, _)| *m == Mark::Image)
            .map(|e| e.1)
            .collect();
        // The last state's tail (after its last event) belongs to extract.
        let next = states.get(n + 1).map(|&j| events[j].1);
        if let Some(t) = next {
            out.state_secs.push(secs(t_state, t));
        }
        match images.as_slice() {
            [] => {
                // A state with no image (an abort mid-state): charge it to
                // `classes` so the pieces still cover the solve.
                if let Some(t) = next {
                    out.classes += secs(t_state, t);
                }
            }
            [.., before_last, last] => {
                out.q += secs(t_state, *before_last);
                out.p += secs(*before_last, *last);
                if let Some(t) = next {
                    out.classes += secs(*last, t);
                }
            }
            [only] => {
                out.p += secs(t_state, *only);
                if let Some(t) = next {
                    out.classes += secs(*only, t);
                }
            }
        }
    }
    out.extract = secs(last_event, end);
    let covered = out.compile + out.q + out.p + out.classes + out.extract;
    out.residual = wall - covered;
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn pieces_cover_the_solve() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let events = vec![
            (Mark::Started, at(1)),
            (Mark::State, at(11)),
            (Mark::Image, at(13)),
            (Mark::Image, at(16)),
            (Mark::Image, at(20)),
            (Mark::State, at(25)),
            (Mark::Image, at(30)),
            (Mark::Image, at(33)),
        ];
        let s = split(&events, t0, at(40));
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(s.compile, 0.010));
        assert!(close(s.q, 0.005 + 0.005));
        assert!(close(s.p, 0.004 + 0.003));
        assert!(close(s.classes, 0.005));
        assert!(close(s.extract, 0.007));
        assert!(close(s.residual, 0.001));
        assert_eq!(s.state_secs.len(), 1);
        assert!(close(s.state_secs[0], 0.014));
    }

    #[test]
    fn single_image_states_have_no_q() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        let events = vec![
            (Mark::Started, at(0)),
            (Mark::State, at(5)),
            (Mark::Image, at(9)),
            (Mark::State, at(10)),
            (Mark::Image, at(12)),
        ];
        let s = split(&events, t0, at(15));
        assert_eq!(s.q, 0.0);
        assert!((s.p - 0.006).abs() < 1e-9);
        assert!((s.classes - 0.001).abs() < 1e-9);
        assert!((s.extract - 0.003).abs() < 1e-9);
    }
}
