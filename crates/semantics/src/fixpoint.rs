//! The paper's fixpoint construction for recursive definitions — §3.3.
//!
//! "We define `ρ⟦p ⊜ P⟧` as being true iff the value ascribed by ρ to the
//! name `p` is … the least solution to the equation `p = P` … computed as
//! the union of a series of successive approximations `a₀, a₁, a₂, …`:
//! `a₀ = ρ⟦STOP⟧`, `a_{i+1} = (ρ[a_i/p])⟦P⟧`." Process arrays iterate a
//! λ-indexed family the same way.
//!
//! [`fixpoint`] materialises that sequence (depth-bounded so every iterate
//! is finite), reports the iteration at which it converges, and exposes
//! each iterate for inspection — experiment **E5** of `DESIGN.md` prints
//! the growing iterate sizes, and the crate tests confirm the limit equals
//! the unfolding semantics of [`Semantics`]. Each body is read by the
//! same §3.2 walk as [`Semantics::denote`], with names read from `a_i`
//! instead of unfolded; the instances are evaluated in order on the
//! calling thread.

use std::collections::hash_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;

use csp_lang::{called_names, Definitions, Env, EvalError, Process};
use csp_obs::{Collector, Metered, MetricsSnapshot};
use csp_trace::{FxHashMap, TraceSet, Value};

use crate::{Semantics, Universe};

/// Identifies one process instance: a plain name, or an array element
/// with its subscript values.
pub type ProcKey = (String, Vec<Value>);

/// One approximation `a_i`: the trace set ascribed to every process
/// instance at iteration `i`.
pub type Approximation = BTreeMap<ProcKey, TraceSet>;

/// The computed approximation sequence.
#[derive(Debug, Clone)]
pub struct FixpointRun {
    /// `a₀, a₁, …` in order. Always non-empty (`a₀` maps every instance
    /// to `{<>}`).
    pub iterates: Vec<Approximation>,
    /// The first `i` with `a_{i+1} = a_i` (at the requested depth), if
    /// convergence was reached within the iteration budget.
    pub converged_at: Option<usize>,
    /// What the run cost: iteration/instance counts, changed-key and
    /// memo-hit tallies (always populated from cheap local counters),
    /// plus span timings when an enabled [`Collector`] was supplied.
    pub metrics: MetricsSnapshot,
}

impl Metered for FixpointRun {
    fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }
}

impl FixpointRun {
    /// The final approximation — the depth-`d` least fixed point when
    /// [`converged_at`](Self::converged_at) is `Some`.
    pub fn limit(&self) -> &Approximation {
        self.iterates.last().expect("iterates never empty")
    }

    /// The per-iteration sizes of one instance's trace set — the data
    /// series of experiment E5.
    pub fn growth_of(&self, key: &ProcKey) -> Vec<usize> {
        self.iterates
            .iter()
            .map(|a| a.get(key).map_or(1, TraceSet::len))
            .collect()
    }
}

/// Computes the approximation sequence for *all* definitions (the paper's
/// mutual-recursion form of rule 10 iterates all equations jointly),
/// truncating every trace set at `depth` and stopping at the earlier of
/// convergence or `max_iters` additional iterations after `a₀`.
///
/// # Errors
///
/// Fails when instantiating an array index set that cannot be enumerated
/// under `universe`, or on evaluation errors inside a body.
///
/// # Examples
///
/// ```
/// use csp_lang::{examples, Env};
/// use csp_semantics::{fixpoint, Universe};
///
/// let defs = examples::pipeline();
/// let uni = Universe::new(1);
/// let run = fixpoint(&defs, &uni, &Env::new(), 4, 16).unwrap();
/// assert!(run.converged_at.is_some());
/// let growth = run.growth_of(&("copier".to_string(), vec![]));
/// // a₀ ⊆ a₁ ⊆ … : sizes are non-decreasing.
/// assert!(growth.windows(2).all(|w| w[0] <= w[1]));
/// ```
pub fn fixpoint(
    defs: &Definitions,
    universe: &Universe,
    env: &Env,
    depth: usize,
    max_iters: usize,
) -> Result<FixpointRun, EvalError> {
    fixpoint_with(
        defs,
        universe,
        env,
        depth,
        max_iters,
        &Collector::disabled(),
    )
}

/// [`fixpoint`] with an observation stream: records a root `fixpoint`
/// span, one `fixpoint.iter` span per iteration (with changed-key and
/// memo-hit counts), and one `fixpoint.key` child span per instance
/// actually re-evaluated. With `Collector::disabled()` the extra cost is
/// one branch per instrumentation point, and the returned run is
/// identical to [`fixpoint`]'s (the crate proptests pin this down).
///
/// # Errors
///
/// Same conditions as [`fixpoint`].
pub fn fixpoint_with(
    defs: &Definitions,
    universe: &Universe,
    env: &Env,
    depth: usize,
    max_iters: usize,
    collector: &Collector,
) -> Result<FixpointRun, EvalError> {
    let keys = instance_keys(defs, universe, env)?;
    let sem = Semantics::new(defs, universe);

    // Hidden communications do not count toward visible trace length, so
    // iterates are carried at the depth the evaluator reads the body of
    // the deepest `chan L; …` nesting to (`hide_depth` once per level).
    // The reported iterates are truncated back to the requested depth.
    let nesting = keys
        .iter()
        .map(|k| {
            defs.get(&k.0)
                .map_or(0, |d| hide_nesting(d.body(), defs, &mut Vec::new()))
        })
        .max()
        .unwrap_or(0);
    let work_depth = (0..nesting).fold(depth, |d, _| sem.hide_depth(d));

    // a₀ = STOP for every instance.
    let mut current: Approximation = keys
        .iter()
        .cloned()
        .map(|k| (k, TraceSet::stop()))
        .collect();
    let truncate = |a: &Approximation| -> Approximation {
        a.iter()
            .map(|(k, t)| (k.clone(), t.up_to_depth(depth)))
            .collect()
    };
    let mut iterates = vec![truncate(&current)];
    let mut converged_at = None;

    // The direct call-dependencies of each definition: a Call node inside
    // `F_p` reads the *current* approximation of the called name, so
    // `a_{i+1}[p] = F_p(a_i)` can only differ from `a_i[p]` if one of
    // those names changed in the step producing `a_i`. Tracking the
    // changed names lets converged regions of a network drop out of the
    // joint iteration early instead of being re-evaluated to the end.
    let deps: FxHashMap<&str, BTreeSet<String>> = defs
        .iter()
        .map(|def| (def.name(), called_names(def.body())))
        .collect();

    // `None` marks the first iteration, where every instance is dirty.
    let mut changed_names: Option<BTreeSet<String>> = None;

    let mut root = collector.span("fixpoint");
    root.record("instances", keys.len());
    root.record("depth", depth);
    root.record("work_depth", work_depth);
    root.record("max_iters", max_iters);

    // Cross-iteration tallies for the always-populated metrics snapshot.
    let mut total_memo_hits = 0u64;
    let mut total_memo_misses = 0u64;
    let mut total_changed = 0u64;
    let mut total_skipped = 0u64;

    for i in 0..max_iters {
        let mut iter_span = root.child("fixpoint.iter");
        iter_span.record("iter", i);
        let iter_start = collector.is_enabled().then(Instant::now);
        // One memo of Call-site truncations per iteration: every instance
        // evaluated this round reads the same `a_i`, so a (callee, depth)
        // truncation computed once serves all of them.
        let mut memo: FxHashMap<(ProcKey, usize), TraceSet> = FxHashMap::default();
        let (mut hits, mut misses, mut skipped) = (0u64, 0u64, 0u64);
        let mut read = |callee: ProcKey, d: usize| match memo.entry((callee, d)) {
            Entry::Occupied(e) => {
                hits += 1;
                e.get().clone()
            }
            Entry::Vacant(e) => {
                misses += 1;
                // Instances outside the enumerated family (or whose
                // subscript the universe did not cover) default to
                // a₀ = STOP.
                let t = current
                    .get(&e.key().0)
                    .map_or_else(TraceSet::stop, |t| t.up_to_depth(d));
                e.insert(t).clone()
            }
        };
        let mut next = Approximation::new();
        let mut newly_changed = BTreeSet::new();
        for key in &keys {
            let stale = changed_names.as_ref().is_none_or(|changed| {
                deps.get(key.0.as_str())
                    .is_some_and(|d| !d.is_disjoint(changed))
            });
            let t = if stale {
                let mut key_span = iter_span.child("fixpoint.key");
                key_span.record("name", key.0.as_str());
                let (body, scope) = defs.resolve_call(&key.0, &key.1, env)?;
                let t = sem.approximate(body, &scope, work_depth, &mut read)?;
                key_span.record("traces", t.len());
                t
            } else {
                // Early exit: no dependency changed last step, so
                // re-evaluation would reproduce the current value.
                skipped += 1;
                current[key].clone()
            };
            if t != current[key] {
                newly_changed.insert(key.0.clone());
            }
            next.insert(key.clone(), t);
        }
        total_memo_hits += hits;
        total_memo_misses += misses;
        total_changed += newly_changed.len() as u64;
        total_skipped += skipped;
        iter_span.record("changed", newly_changed.len());
        iter_span.record("skipped", skipped);
        iter_span.record("memo_hits", hits);
        iter_span.record("memo_misses", misses);
        if let Some(t0) = iter_start {
            collector.observe_ns(
                "fixpoint.iter_ns",
                u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX),
            );
        }
        let done = newly_changed.is_empty();
        changed_names = Some(newly_changed);
        current = next;
        iterates.push(truncate(&current));
        if done {
            converged_at = Some(i);
            break;
        }
    }

    root.record("converged", converged_at.is_some());
    root.end();

    let mut metrics = MetricsSnapshot::new();
    metrics
        .set_counter("fixpoint.instances", keys.len() as u64)
        .set_counter("fixpoint.iterations", (iterates.len() - 1) as u64)
        .set_counter("fixpoint.changed_keys", total_changed)
        .set_counter("fixpoint.skipped_keys", total_skipped)
        .set_counter("fixpoint.memo_hits", total_memo_hits)
        .set_counter("fixpoint.memo_misses", total_memo_misses)
        .set_counter("fixpoint.converged", u64::from(converged_at.is_some()));
    // Mirror the tallies into the collector so a session aggregating
    // several operations sees them alongside its span stats.
    if collector.is_enabled() {
        for (name, value) in &metrics.counters {
            collector.add(name.clone(), *value);
        }
    }

    Ok(FixpointRun {
        iterates,
        converged_at,
        metrics,
    })
}

/// Maximum nesting depth of `chan L; …` reachable from `p`, following
/// process-name references (cycle-safe).
fn hide_nesting(p: &Process, defs: &Definitions, stack: &mut Vec<String>) -> usize {
    match p {
        Process::Stop | Process::Error(_) => 0,
        Process::Call { name, .. } => {
            if stack.iter().any(|n| n == name) {
                return 0;
            }
            stack.push(name.clone());
            let n = defs
                .get(name)
                .map_or(0, |d| hide_nesting(d.body(), defs, stack));
            stack.pop();
            n
        }
        Process::Output { then, .. } | Process::Input { then, .. } => {
            hide_nesting(then, defs, stack)
        }
        Process::Choice(a, b) => hide_nesting(a, defs, stack).max(hide_nesting(b, defs, stack)),
        Process::Parallel { left, right, .. } => {
            hide_nesting(left, defs, stack).max(hide_nesting(right, defs, stack))
        }
        Process::Hide { body, .. } => 1 + hide_nesting(body, defs, stack),
    }
}

/// All process instances: plain names, and array elements for every
/// subscript value the universe can enumerate from the parameter set.
fn instance_keys(
    defs: &Definitions,
    universe: &Universe,
    env: &Env,
) -> Result<Vec<ProcKey>, EvalError> {
    let mut keys = Vec::new();
    for def in defs.iter() {
        match def.param() {
            None => keys.push((def.name().to_string(), Vec::new())),
            Some((_, set)) => {
                let m = set.eval(env)?;
                for v in universe.enumerate(&m)? {
                    keys.push((def.name().to_string(), vec![v]));
                }
            }
        }
    }
    Ok(keys)
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{examples, parse_definitions, Expr};

    fn key(name: &str) -> ProcKey {
        (name.to_string(), Vec::new())
    }

    #[test]
    fn copier_iterates_grow_and_converge() {
        let defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier").unwrap();
        let uni = Universe::new(1);
        let run = fixpoint(&defs, &uni, &Env::new(), 4, 16).unwrap();
        assert!(run.converged_at.is_some());
        let growth = run.growth_of(&key("copier"));
        assert_eq!(growth[0], 1); // a₀ = {<>}
        assert!(growth.windows(2).all(|w| w[0] <= w[1]), "{growth:?}");
        // One unfolding contributes two events, so depth 4 needs a₂ = limit.
        let limit = run.limit().get(&key("copier")).unwrap();
        assert_eq!(limit.depth(), 4);
    }

    /// Iteration to convergence and depth-bounded unfolding read names
    /// differently; both must give every instance the same traces.
    fn assert_limit_agrees(defs: &Definitions, uni: &Universe, env: &Env, depth: usize) {
        let run = fixpoint(defs, uni, env, depth, 16).unwrap();
        assert!(run.converged_at.is_some());
        let sem = Semantics::new(defs, uni);
        for ((name, sub), via_fix) in run.limit() {
            let call = match sub.as_slice() {
                [] => Process::call(name),
                [v] => Process::call1(name, Expr::Const(v.clone())),
                _ => unreachable!("arrays take one subscript"),
            };
            let via_unfold = sem.denote(&call, env, depth).unwrap();
            assert_eq!(via_fix, &via_unfold, "disagreement on {name}{sub:?}");
        }
    }

    #[test]
    fn limit_agrees_with_unfolding_semantics() {
        assert_limit_agrees(&examples::pipeline(), &Universe::new(1), &Env::new(), 4);
        // Inputs from the named set M.
        let uni = Universe::new(0).with_named("M", [Value::nat(0), Value::nat(1)]);
        assert_limit_agrees(&examples::protocol(), &uni, &Env::new(), 3);
        // Array instances, and a `chan` over an array of channels.
        let defs = parse_definitions(&examples::multiplier_src(2)).unwrap();
        let env = examples::multiplier_env(&[2, 3]);
        assert_limit_agrees(&defs, &Universe::new(5), &env, 2);
    }

    #[test]
    fn a_huge_depth_saturates_the_work_depth() {
        // The pipeline nests one `chan`, so its work depth is 3 × depth,
        // which overflows here; with no iterations the run is a₀ alone.
        let defs = examples::pipeline();
        let run = fixpoint(&defs, &Universe::new(1), &Env::new(), usize::MAX / 2, 0).unwrap();
        assert_eq!(run.iterates.len(), 1);
        assert_eq!(run.converged_at, None);
        assert!(run.limit().values().all(|t| *t == TraceSet::stop()));
    }

    #[test]
    fn unguarded_equation_converges_to_stop_immediately() {
        let defs = parse_definitions("p = p").unwrap();
        let uni = Universe::small();
        let run = fixpoint(&defs, &uni, &Env::new(), 5, 8).unwrap();
        assert_eq!(run.converged_at, Some(0));
        assert_eq!(run.limit().get(&key("p")).unwrap().len(), 1);
    }

    #[test]
    fn array_instances_iterate_jointly() {
        let defs = parse_definitions("q[x:0..1] = wire!x -> q[1-x]").unwrap();
        let uni = Universe::small();
        let run = fixpoint(&defs, &uni, &Env::new(), 3, 16).unwrap();
        assert!(run.converged_at.is_some());
        let q0 = run
            .limit()
            .get(&("q".to_string(), vec![Value::Int(0)]))
            .unwrap();
        // q[0] alternates 0,1,0,…
        let t = csp_trace::Trace::parse_like([
            ("wire", Value::nat(0)),
            ("wire", Value::nat(1)),
            ("wire", Value::nat(0)),
        ]);
        assert!(q0.contains(&t));
    }

    #[test]
    fn mutual_recursion_converges() {
        let defs = parse_definitions(
            "ping = a!0 -> pong
             pong = b!1 -> ping",
        )
        .unwrap();
        let uni = Universe::small();
        let run = fixpoint(&defs, &uni, &Env::new(), 4, 16).unwrap();
        assert!(run.converged_at.is_some());
        let ping = run.limit().get(&key("ping")).unwrap();
        let t = csp_trace::Trace::parse_like([
            ("a", Value::nat(0)),
            ("b", Value::nat(1)),
            ("a", Value::nat(0)),
            ("b", Value::nat(1)),
        ]);
        assert!(ping.contains(&t));
    }

    #[test]
    fn non_convergence_within_budget_is_reported() {
        let defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier").unwrap();
        let uni = Universe::new(1);
        // Depth 10 needs ~5 iterations; budget 2 is insufficient.
        let run = fixpoint(&defs, &uni, &Env::new(), 10, 2).unwrap();
        assert_eq!(run.converged_at, None);
        assert_eq!(run.iterates.len(), 3); // a₀, a₁, a₂
    }
}
