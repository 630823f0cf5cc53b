//! The proof checker: verifies that a [`Proof`] tree derives a goal
//! [`Judgement`] under a [`Context`], discharging every pure premise
//! through the [`decide_valid`](csp_assert::decide_valid) oracle and
//! recording how.

use csp_analysis::{Linter, Severity};
use csp_assert::{
    decide_valid, subst_chan_cons, subst_empty, subst_var, Assertion, DecideConfig, Decision,
    FuncTable, Term,
};
use csp_lang::{channel_alphabet, subst_process_with, Definitions, Env, Expr, Process, SetExpr};
use csp_obs::{Collector, Metered, MetricsSnapshot, Span};
use csp_semantics::Universe;
use csp_trace::ChannelSet;

use crate::{Judgement, Proof};

/// Everything a proof is checked against: the definitions in scope, the
/// sequence functions, and the finite universe backing the bounded
/// validity oracle.
#[derive(Debug, Clone)]
pub struct Context {
    /// The process equations (Δ-lists in the paper's examples).
    pub defs: Definitions,
    /// Sequence functions usable in assertions (e.g. `f`).
    pub funcs: FuncTable,
    /// Finite universe for the bounded oracle and membership checks.
    pub universe: Universe,
    /// Oracle thoroughness.
    pub decide_config: DecideConfig,
    /// Host constants (e.g. the multiplier's vector cells `v[1]`…).
    pub env: Env,
}

impl Context {
    /// A context over the given definitions with default oracle settings.
    pub fn new(defs: Definitions, universe: Universe) -> Self {
        Context {
            defs,
            funcs: FuncTable::with_builtins(),
            universe,
            decide_config: DecideConfig::default(),
            env: Env::new(),
        }
    }
}

/// How a pure obligation was discharged.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Discharge {
    /// By a syntactic law of the sequence theory.
    Syntactic(&'static str),
    /// By the symbolic stage, for every history and every value; names
    /// the rule that carried it.
    Symbolic(&'static str),
    /// By exhaustive bounded evaluation over `n` cases.
    Bounded(usize),
    /// A set-membership obligation `e ∈ M` closed because `e` is the
    /// variable a surrounding binder ranges over `M`.
    Binder,
    /// A membership obligation checked concretely against the universe.
    MembershipChecked,
    /// A membership obligation in an abstract named set, assumed (the
    /// paper's implicit `x ∈ M` hypotheses).
    MembershipAssumed,
}

/// One discharged pure premise.
#[derive(Debug, Clone)]
pub struct Obligation {
    /// Which rule emitted it.
    pub rule: &'static str,
    /// Rendered formula.
    pub formula: String,
    /// How it was discharged.
    pub discharge: Discharge,
}

/// The result of a successful check.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Every rule application, in depth-first order.
    pub steps: Vec<String>,
    /// Every pure premise and how it was discharged.
    pub obligations: Vec<Obligation>,
    /// What the check cost: rule and obligation counts, per-discharge
    /// tallies (always populated), plus per-rule span timings when an
    /// enabled [`Collector`] was supplied to [`check_with`].
    pub metrics: MetricsSnapshot,
}

impl Metered for CheckReport {
    fn metrics(&self) -> &MetricsSnapshot {
        &self.metrics
    }
}

impl CheckReport {
    /// Number of rule applications.
    pub fn rule_count(&self) -> usize {
        self.steps.len()
    }

    /// True if no obligation rests on an assumption (everything was
    /// syntactic, symbolic, bounded-checked, or binder-closed).
    pub fn fully_discharged(&self) -> bool {
        !self
            .obligations
            .iter()
            .any(|o| o.discharge == Discharge::MembershipAssumed)
    }
}

/// Why a check failed.
#[derive(Debug, Clone)]
pub enum ProofError {
    /// The goal's shape does not match the rule applied.
    GoalShape {
        /// The rule being applied.
        rule: &'static str,
        /// What the goal was.
        goal: String,
        /// What shape was required.
        expected: String,
    },
    /// No hypothesis matches the goal.
    NoHypothesis {
        /// The unproven goal.
        goal: String,
    },
    /// A pure premise is not valid.
    InvalidPremise {
        /// The rule that emitted it.
        rule: &'static str,
        /// The formula.
        formula: String,
        /// The oracle's verdict.
        decision: String,
    },
    /// A structural side condition failed (channel occurrence,
    /// freshness, alphabet inclusion, …).
    SideCondition {
        /// The rule.
        rule: &'static str,
        /// Description of the violation.
        message: String,
    },
    /// A recursion node is malformed (unknown name, arity, select out of
    /// range, body/spec count mismatch).
    BadRecursion(String),
    /// The definitions the proof is over fail static analysis: the
    /// linter reported error-severity diagnostics (undefined names,
    /// unbound variables, alphabet violations, …), so the proof rules'
    /// side conditions cannot be trusted.
    IllFormedDefinitions(String),
}

impl std::fmt::Display for ProofError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ProofError::GoalShape {
                rule,
                goal,
                expected,
            } => write!(
                f,
                "rule {rule} cannot derive `{goal}` (expected {expected})"
            ),
            ProofError::NoHypothesis { goal } => {
                write!(f, "no hypothesis matches `{goal}`")
            }
            ProofError::InvalidPremise {
                rule,
                formula,
                decision,
            } => write!(
                f,
                "pure premise of {rule} not valid: `{formula}` ({decision})"
            ),
            ProofError::SideCondition { rule, message } => {
                write!(f, "side condition of {rule} violated: {message}")
            }
            ProofError::BadRecursion(m) => write!(f, "malformed recursion: {m}"),
            ProofError::IllFormedDefinitions(m) => {
                write!(f, "definitions fail static analysis: {m}")
            }
        }
    }
}

impl std::error::Error for ProofError {}

/// Checks that `proof` derives `goal` in `ctx`.
///
/// # Errors
///
/// Returns the first [`ProofError`] encountered in depth-first order.
///
/// # Examples
///
/// ```
/// use csp_assert::{Assertion, STerm};
/// use csp_lang::{parse_definitions, Process};
/// use csp_proof::{check, Context, Judgement, Proof};
/// use csp_semantics::Universe;
///
/// let defs = parse_definitions("copier = input?x:NAT -> wire!x -> copier").unwrap();
/// let ctx = Context::new(defs, Universe::new(1));
/// let inv = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
/// let goal = Judgement::sat(Process::call("copier"), inv.clone());
/// let proof = Proof::recursion(
///     "copier",
///     inv.clone(),
///     Proof::input("v", Proof::output(Proof::consequence(inv, Proof::Hypothesis))),
/// );
/// let report = check(&ctx, &goal, &proof).unwrap();
/// assert!(report.rule_count() >= 4);
/// ```
pub fn check(ctx: &Context, goal: &Judgement, proof: &Proof) -> Result<CheckReport, ProofError> {
    check_with(ctx, goal, proof, &Collector::disabled())
}

/// [`check`] with an observation stream: records a root `proof.check`
/// span and one `proof.rule` span per rule application (carrying the
/// rule name and, when enabled, the rendered judgement). The returned
/// report is identical to [`check`]'s apart from span timings in its
/// metrics; with `Collector::disabled()` each instrumentation point
/// costs one branch.
///
/// # Errors
///
/// Same conditions as [`check`].
pub fn check_with(
    ctx: &Context,
    goal: &Judgement,
    proof: &Proof,
    collector: &Collector,
) -> Result<CheckReport, ProofError> {
    let errors: Vec<String> = Linter::new(&ctx.defs)
        .with_env(&ctx.env)
        .run()
        .into_iter()
        .filter(|d| d.severity == Severity::Error)
        .map(|d| d.to_string())
        .collect();
    if !errors.is_empty() {
        return Err(ProofError::IllFormedDefinitions(errors.join("; ")));
    }
    let mut report = CheckReport::default();
    let mut scope = Scope::default();
    let root = collector.span("proof.check");
    check_inner(ctx, goal, proof, &mut scope, &mut report, &root)?;
    root.end();
    report.metrics = tally(&report);
    if collector.is_enabled() {
        // Only the proof-taxonomy spans: the collector may be shared
        // with other subsystems in one session.
        report.metrics.spans = collector
            .snapshot()
            .spans
            .into_iter()
            .filter(|(k, _)| k.starts_with("proof."))
            .collect();
        // Mirror the tallies the other way so a session aggregating
        // several operations sees them alongside its span stats.
        for (name, value) in &report.metrics.counters {
            collector.add(name.clone(), *value);
        }
    }
    Ok(report)
}

/// The always-populated counter part of a report's metrics.
fn tally(report: &CheckReport) -> MetricsSnapshot {
    let mut m = MetricsSnapshot::new();
    m.set_counter("proof.rules", report.steps.len() as u64)
        .set_counter("proof.obligations", report.obligations.len() as u64);
    for o in &report.obligations {
        let kind = match o.discharge {
            Discharge::Syntactic(_) => "proof.discharge.syntactic",
            Discharge::Symbolic(_) => "proof.discharge.symbolic",
            Discharge::Bounded(_) => "proof.discharge.bounded",
            Discharge::Binder => "proof.discharge.binder",
            Discharge::MembershipChecked => "proof.discharge.membership_checked",
            Discharge::MembershipAssumed => "proof.discharge.membership_assumed",
        };
        m.add_counter(kind, 1);
        if let Discharge::Bounded(cases) = o.discharge {
            m.add_counter("proof.bounded_cases", cases as u64);
        }
    }
    m
}

#[derive(Debug, Default, Clone)]
struct Scope {
    hypotheses: Vec<Judgement>,
    binders: Vec<(String, SetExpr)>,
}

fn check_inner(
    ctx: &Context,
    goal: &Judgement,
    proof: &Proof,
    scope: &mut Scope,
    report: &mut CheckReport,
    parent: &Span,
) -> Result<(), ProofError> {
    report
        .steps
        .push(format!("{}: {}", proof.rule_name(), goal));
    let mut rule_span = parent.child("proof.rule");
    rule_span.record("rule", proof.rule_name());
    if rule_span.is_enabled() {
        rule_span.record("judgement", goal.to_string());
    }
    let span = rule_span;
    match proof {
        Proof::Hypothesis => {
            if scope.hypotheses.contains(goal) {
                Ok(())
            } else {
                Err(ProofError::NoHypothesis {
                    goal: goal.to_string(),
                })
            }
        }

        Proof::Instantiate { arg } => {
            let (gp, ga) = match goal {
                Judgement::Sat { process, assertion } => (process, assertion),
                Judgement::Forall { .. } => {
                    return Err(shape("forall-elim", goal, "a sat judgement"))
                }
            };
            for hyp in &scope.hypotheses {
                if let Judgement::Forall { var, set, body } = hyp {
                    if let Judgement::Sat { process, assertion } = body.as_ref() {
                        let inst_p = subst_process_with(process, var, arg);
                        let inst_a = subst_var(assertion, var, arg);
                        if &inst_p == gp && &inst_a == ga {
                            discharge_membership(ctx, scope, arg, set, report)?;
                            return Ok(());
                        }
                    }
                }
            }
            Err(ProofError::NoHypothesis {
                goal: goal.to_string(),
            })
        }

        Proof::ForallIntro { body } => match goal {
            Judgement::Forall { var, set, body: jb } => {
                if scope.binders.iter().any(|(v, _)| v == var) {
                    return Err(ProofError::SideCondition {
                        rule: "forall-intro",
                        message: format!("variable `{var}` is already bound"),
                    });
                }
                scope.binders.push((var.clone(), set.clone()));
                let r = check_inner(ctx, jb, body, scope, report, &span);
                scope.binders.pop();
                r
            }
            Judgement::Sat { .. } => Err(shape("forall-intro", goal, "a forall judgement")),
        },

        Proof::Triviality => {
            let (_, t) = sat_goal("triviality (1)", goal)?;
            oblige(ctx, scope, report, "triviality (1)", t.clone())
        }

        Proof::Consequence { stronger, premise } => {
            let (p, s) = sat_goal("consequence (2)", goal)?;
            let sub = Judgement::sat(p.clone(), stronger.clone());
            check_inner(ctx, &sub, premise, scope, report, &span)?;
            oblige(
                ctx,
                scope,
                report,
                "consequence (2)",
                stronger.clone().implies(s.clone()),
            )
        }

        Proof::Conjunction { left, right } => {
            let (p, a) = sat_goal("conjunction (3)", goal)?;
            let (r, s) = match a {
                Assertion::And(r, s) => (r.as_ref().clone(), s.as_ref().clone()),
                _ => return Err(shape("conjunction (3)", goal, "P sat (R and S)")),
            };
            check_inner(
                ctx,
                &Judgement::sat(p.clone(), r),
                left,
                scope,
                report,
                &span,
            )?;
            check_inner(
                ctx,
                &Judgement::sat(p.clone(), s),
                right,
                scope,
                report,
                &span,
            )
        }

        Proof::Emptiness => {
            let (p, r) = sat_goal("emptiness (4)", goal)?;
            if !matches!(p, Process::Stop) {
                return Err(shape("emptiness (4)", goal, "STOP sat R"));
            }
            oblige(ctx, scope, report, "emptiness (4)", subst_empty(r))
        }

        Proof::Output { body } => {
            let (p, r) = sat_goal("output (5)", goal)?;
            let (chan, msg, then) = match p {
                Process::Output { chan, msg, then } => (chan, msg, then),
                _ => return Err(shape("output (5)", goal, "(c!e -> P) sat R")),
            };
            oblige(ctx, scope, report, "output (5)", subst_empty(r))?;
            let r2 = subst_chan_cons(r, chan, &Term::Expr(msg.clone()));
            check_inner(
                ctx,
                &Judgement::sat((**then).clone(), r2),
                body,
                scope,
                report,
                &span,
            )
        }

        Proof::Input { fresh, body } => {
            let (p, r) = sat_goal("input (6)", goal)?;
            let (chan, var, set, then) = match p {
                Process::Input {
                    chan,
                    var,
                    set,
                    then,
                } => (chan, var, set, then),
                _ => return Err(shape("input (6)", goal, "(c?x:M -> P) sat R")),
            };
            // Freshness: v not free in P, R, or c (§2.1(6)).
            let fresh_ok = !csp_lang::free_vars_process(then).contains(fresh)
                && !csp_assert::free_vars(r).contains(fresh)
                && !chan
                    .indices()
                    .iter()
                    .any(|e| csp_lang::free_vars_expr(e).contains(fresh))
                && !scope.binders.iter().any(|(v, _)| v == fresh);
            if !fresh_ok {
                return Err(ProofError::SideCondition {
                    rule: "input (6)",
                    message: format!("`{fresh}` is not fresh"),
                });
            }
            oblige(ctx, scope, report, "input (6)", subst_empty(r))?;
            let p2 = subst_process_with(then, var, &Expr::var(fresh));
            let r2 = subst_chan_cons(r, chan, &Term::var(fresh));
            scope.binders.push((fresh.clone(), set.clone()));
            let res = check_inner(ctx, &Judgement::sat(p2, r2), body, scope, report, &span);
            scope.binders.pop();
            res
        }

        Proof::Alternative { left, right } => {
            let (p, r) = sat_goal("alternative (7)", goal)?;
            let (a, b) = match p {
                Process::Choice(a, b) => (a, b),
                _ => return Err(shape("alternative (7)", goal, "(P | Q) sat R")),
            };
            check_inner(
                ctx,
                &Judgement::sat((**a).clone(), r.clone()),
                left,
                scope,
                report,
                &span,
            )?;
            check_inner(
                ctx,
                &Judgement::sat((**b).clone(), r.clone()),
                right,
                scope,
                report,
                &span,
            )
        }

        Proof::Parallelism { left, right } => {
            let (p, a) = sat_goal("parallelism (8)", goal)?;
            let (pl, pr) = match p {
                Process::Parallel { left, right, .. } => (left, right),
                _ => return Err(shape("parallelism (8)", goal, "(P || Q) sat (R and S)")),
            };
            let (r, s) = match a {
                Assertion::And(r, s) => (r.as_ref().clone(), s.as_ref().clone()),
                _ => return Err(shape("parallelism (8)", goal, "(P || Q) sat (R and S)")),
            };
            // Side conditions: channels of R among P's, of S among Q's.
            let x = channel_alphabet(pl, &ctx.defs, &ctx.env).map_err(|e| {
                ProofError::SideCondition {
                    rule: "parallelism (8)",
                    message: format!("cannot compute left alphabet: {e}"),
                }
            })?;
            let y = channel_alphabet(pr, &ctx.defs, &ctx.env).map_err(|e| {
                ProofError::SideCondition {
                    rule: "parallelism (8)",
                    message: format!("cannot compute right alphabet: {e}"),
                }
            })?;
            assertion_channels_within(&r, &x, "left", &ctx.env)?;
            assertion_channels_within(&s, &y, "right", &ctx.env)?;
            check_inner(
                ctx,
                &Judgement::sat((**pl).clone(), r),
                left,
                scope,
                report,
                &span,
            )?;
            check_inner(
                ctx,
                &Judgement::sat((**pr).clone(), s),
                right,
                scope,
                report,
                &span,
            )
        }

        Proof::Hiding { body } => {
            let (p, r) = sat_goal("hiding (9)", goal)?;
            let (channels, inner) = match p {
                Process::Hide { channels, body } => (channels, body),
                _ => return Err(shape("hiding (9)", goal, "(chan L; P) sat R")),
            };
            // Side condition: R mentions no channel of L.
            for h in channels {
                for c in r.channels() {
                    let clash = match (h.resolve(&ctx.env), c.resolve(&ctx.env)) {
                        (Ok(hc), Ok(cc)) => hc == cc,
                        _ => h.base() == c.base(),
                    };
                    if clash {
                        return Err(ProofError::SideCondition {
                            rule: "hiding (9)",
                            message: format!("assertion mentions concealed channel `{h}`"),
                        });
                    }
                }
            }
            check_inner(
                ctx,
                &Judgement::sat((**inner).clone(), r.clone()),
                body,
                scope,
                report,
                &span,
            )
        }

        Proof::Recursion {
            specs,
            bodies,
            select,
        } => {
            if specs.len() != bodies.len() {
                return Err(ProofError::BadRecursion(format!(
                    "{} spec(s) but {} body proof(s)",
                    specs.len(),
                    bodies.len()
                )));
            }
            if *select >= specs.len() {
                return Err(ProofError::BadRecursion(format!(
                    "select index {select} out of range"
                )));
            }
            // Build the spec judgements and check the conclusion matches.
            let mut spec_judgements = Vec::with_capacity(specs.len());
            for (name, inv) in specs {
                spec_judgements.push(spec_judgement(ctx, name, inv)?);
            }
            if &spec_judgements[*select] != goal {
                return Err(ProofError::GoalShape {
                    rule: "recursion (10)",
                    goal: goal.to_string(),
                    expected: spec_judgements[*select].to_string(),
                });
            }
            // Base premises: S_<> for each spec (under the array binder
            // when present).
            for (name, inv) in specs {
                let base = match ctx
                    .defs
                    .get(name)
                    .and_then(|d| d.param().map(|(v, s)| (v.to_string(), s.clone())))
                {
                    Some((var, set)) => Assertion::ForallIn(var, set, Box::new(subst_empty(inv))),
                    None => subst_empty(inv),
                };
                oblige(ctx, scope, report, "recursion (10) base", base)?;
            }
            // Inductive premises with all specs as hypotheses.
            let added = spec_judgements.len();
            scope.hypotheses.extend(spec_judgements);
            let mut result = Ok(());
            for ((name, inv), body_proof) in specs.iter().zip(bodies) {
                let def = ctx
                    .defs
                    .get(name)
                    .ok_or_else(|| ProofError::BadRecursion(format!("`{name}` undefined")))?;
                let body_goal = match def.param() {
                    None => Judgement::sat(def.body().clone(), inv.clone()),
                    Some((var, set)) => Judgement::forall(
                        var,
                        set.clone(),
                        Judgement::sat(def.body().clone(), inv.clone()),
                    ),
                };
                result = check_inner(ctx, &body_goal, body_proof, scope, report, &span);
                if result.is_err() {
                    break;
                }
            }
            scope.hypotheses.truncate(scope.hypotheses.len() - added);
            result
        }
    }
}

/// The judgement a recursion spec claims: `p sat S` for plain equations,
/// `∀x:M. q[x] sat S` for array equations.
fn spec_judgement(ctx: &Context, name: &str, inv: &Assertion) -> Result<Judgement, ProofError> {
    let def = ctx
        .defs
        .get(name)
        .ok_or_else(|| ProofError::BadRecursion(format!("`{name}` undefined")))?;
    Ok(match def.param() {
        None => Judgement::sat(Process::call(name), inv.clone()),
        Some((var, set)) => Judgement::forall(
            var,
            set.clone(),
            Judgement::sat(Process::call1(name, Expr::var(var)), inv.clone()),
        ),
    })
}

fn sat_goal<'a>(
    rule: &'static str,
    goal: &'a Judgement,
) -> Result<(&'a Process, &'a Assertion), ProofError> {
    match goal {
        Judgement::Sat { process, assertion } => Ok((process, assertion)),
        Judgement::Forall { .. } => Err(shape(rule, goal, "a sat judgement")),
    }
}

fn shape(rule: &'static str, goal: &Judgement, expected: &str) -> ProofError {
    ProofError::GoalShape {
        rule,
        goal: goal.to_string(),
        expected: expected.to_string(),
    }
}

/// Emits and discharges a pure obligation, universally closed under the
/// binders currently in scope.
fn oblige(
    ctx: &Context,
    scope: &Scope,
    report: &mut CheckReport,
    rule: &'static str,
    formula: Assertion,
) -> Result<(), ProofError> {
    let closed = scope.binders.iter().rev().fold(formula, |acc, (v, m)| {
        Assertion::ForallIn(v.clone(), m.clone(), Box::new(acc))
    });
    let rendered = closed.to_string();
    let discharge = match decide_valid(&closed, &ctx.universe, &ctx.funcs, ctx.decide_config) {
        Decision::ValidSyntactic { law } => Discharge::Syntactic(law),
        Decision::ValidSymbolic { rule } => Discharge::Symbolic(rule),
        Decision::ValidBounded { cases } => Discharge::Bounded(cases),
        Decision::Refuted { history, env } => {
            return Err(ProofError::InvalidPremise {
                rule,
                formula: rendered,
                decision: format!("refuted with history {history} and {env}"),
            })
        }
        Decision::Unknown { reason } => {
            return Err(ProofError::InvalidPremise {
                rule,
                formula: rendered,
                decision: format!("undecided: {reason}"),
            })
        }
    };
    report.obligations.push(Obligation {
        rule,
        formula: rendered,
        discharge,
    });
    Ok(())
}

/// Discharges the membership obligation `arg ∈ set` of ∀-elimination.
fn discharge_membership(
    ctx: &Context,
    scope: &Scope,
    arg: &Expr,
    set: &SetExpr,
    report: &mut CheckReport,
) -> Result<(), ProofError> {
    // Binder-closed: arg is exactly a variable some surrounding binder
    // ranges over the same set.
    if let Expr::Var(v) = arg {
        if scope.binders.iter().any(|(bv, bs)| bv == v && bs == set) {
            report.obligations.push(Obligation {
                rule: "forall-elim",
                formula: format!("{arg} in {set}"),
                discharge: Discharge::Binder,
            });
            return Ok(());
        }
    }
    // Concrete: evaluate and check.
    if let Ok(v) = arg.eval(&ctx.env) {
        if let Ok(m) = set.eval(&ctx.env) {
            match ctx.universe.contains(&m, &v) {
                Ok(true) => {
                    report.obligations.push(Obligation {
                        rule: "forall-elim",
                        formula: format!("{arg} in {set}"),
                        discharge: Discharge::MembershipChecked,
                    });
                    return Ok(());
                }
                Ok(false) => {
                    return Err(ProofError::SideCondition {
                        rule: "forall-elim",
                        message: format!("`{arg}` is not in `{set}`"),
                    })
                }
                Err(_) => {}
            }
        }
    }
    // Abstract named set: assumed, as the paper does for `x ∈ M`.
    report.obligations.push(Obligation {
        rule: "forall-elim",
        formula: format!("{arg} in {set}"),
        discharge: Discharge::MembershipAssumed,
    });
    Ok(())
}

/// Checks that every channel mentioned by `a` lies in the alphabet `cs`.
fn assertion_channels_within(
    a: &Assertion,
    cs: &ChannelSet,
    side: &str,
    env: &Env,
) -> Result<(), ProofError> {
    for c in a.channels() {
        let ok = match c.resolve(env) {
            Ok(ch) => cs.contains(&ch),
            Err(_) => cs.iter().any(|ch| ch.base() == c.base()),
        };
        if !ok {
            return Err(ProofError::SideCondition {
                rule: "parallelism (8)",
                message: format!(
                    "{side} assertion mentions `{c}`, outside the {side} alphabet {cs}"
                ),
            });
        }
    }
    Ok(())
}
