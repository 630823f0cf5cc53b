//! The high-level [`Workbench`]: define processes, state invariants,
//! prove, model-check, execute, and cross-validate — one handle over the
//! whole reproduction.

use csp_analysis::{Confirmation, Diagnostic, LintCode, Linter};
use csp_assert::{Assertion, ChannelInfo, FuncTable};
use csp_lang::{
    parse_definitions_spanned, parse_module, ChanRef, Definition, Definitions, Env, ParseError,
    Process, SourceMap,
};
use csp_obs::Collector;
use csp_proof::{check_with, CheckReport, Context, Judgement, Proof, ProofError};
use csp_runtime::{check_conformance, ConformanceReport, Executor, RunOptions, RunResult};
use csp_semantics::{fixpoint_with, CompiledLts, FixpointRun, Lts, Semantics, Universe};
use csp_trace::{Channel, ChannelSet};
use csp_trace::{TraceSet, Value};
use csp_verify::{
    fault_conformance, find_deadlocks, DeadlockReport, FaultConformance, FaultSweep, SatChecker,
    SatResult,
};

use crate::options::{ConformanceOptions, SatOptions};
use crate::session::Session;

/// Visible-event bound for the deadlock search that vets CSP010
/// findings. Offer mismatches stick at the very first synchronisation,
/// so a shallow bound reproduces them; it keeps linting interactive.
const CSP010_CONFIRM_DEPTH: usize = 6;

/// Errors surfaced by the workbench.
#[derive(Debug)]
pub enum WorkbenchError {
    /// Process-definition parse failure.
    Parse(csp_lang::ParseError),
    /// Assertion parse failure.
    AssertParse(csp_assert::AssertParseError),
    /// Evaluation failure (undefined names, unbound variables, …).
    Eval(csp_lang::EvalError),
    /// Assertion evaluation failure.
    Assert(csp_assert::AssertError),
    /// Proof failure.
    Proof(ProofError),
    /// Runtime failure.
    Run(csp_runtime::RunError),
}

impl std::fmt::Display for WorkbenchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WorkbenchError::Parse(e) => e.fmt(f),
            WorkbenchError::AssertParse(e) => e.fmt(f),
            WorkbenchError::Eval(e) => e.fmt(f),
            WorkbenchError::Assert(e) => e.fmt(f),
            WorkbenchError::Proof(e) => e.fmt(f),
            WorkbenchError::Run(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for WorkbenchError {}

macro_rules! from_err {
    ($variant:ident, $ty:ty) => {
        impl From<$ty> for WorkbenchError {
            fn from(e: $ty) -> Self {
                WorkbenchError::$variant(e)
            }
        }
    };
}

from_err!(Parse, csp_lang::ParseError);
from_err!(AssertParse, csp_assert::AssertParseError);
from_err!(Eval, csp_lang::EvalError);
from_err!(Assert, csp_assert::AssertError);
from_err!(Proof, ProofError);
from_err!(Run, csp_runtime::RunError);

/// A self-contained workspace: definitions + universe + host environment
/// + sequence functions.
///
/// # Examples
///
/// ```
/// use csp_core::Workbench;
///
/// let mut wb = Workbench::new();
/// wb.define_source(
///     "copier = input?x:NAT -> wire!x -> copier
///      recopier = wire?y:NAT -> output!y -> recopier
///      pipeline = chan wire; (copier || recopier)",
/// ).unwrap();
/// // Model-check an invariant stated in the paper's notation:
/// let verdict = wb.check_sat("pipeline", "output <= input", 3).unwrap();
/// assert!(verdict.holds());
/// ```
#[derive(Debug, Clone)]
pub struct Workbench {
    defs: Definitions,
    source_map: SourceMap,
    universe: Universe,
    env: Env,
    funcs: FuncTable,
    extra_channels: Vec<String>,
    extra_arrays: Vec<String>,
}

impl Default for Workbench {
    fn default() -> Self {
        Self::new()
    }
}

impl Workbench {
    /// An empty workbench with the small default universe and the
    /// built-in sequence functions.
    pub fn new() -> Self {
        Workbench {
            defs: Definitions::new(),
            source_map: SourceMap::new(),
            universe: Universe::small(),
            env: Env::new(),
            funcs: FuncTable::with_builtins(),
            extra_channels: Vec::new(),
            extra_arrays: Vec::new(),
        }
    }

    /// Replaces the enumeration universe.
    #[must_use]
    pub fn with_universe(mut self, universe: Universe) -> Self {
        self.universe = universe;
        self
    }

    /// The current definitions.
    pub fn definitions(&self) -> &Definitions {
        &self.defs
    }

    /// The current universe.
    pub fn universe(&self) -> &Universe {
        &self.universe
    }

    /// The host environment.
    pub fn env(&self) -> &Env {
        &self.env
    }

    /// Parses and adds equations written in the paper's notation.
    ///
    /// # Errors
    ///
    /// Returns the parse error on malformed input; on success earlier
    /// definitions with the same names are replaced.
    pub fn define_source(&mut self, src: &str) -> Result<(), WorkbenchError> {
        let (defs, spans) = parse_definitions_spanned(src)?;
        self.defs.extend_with(defs);
        self.source_map.extend_with(spans);
        Ok(())
    }

    /// Parses equations with error recovery: definitions that parse are
    /// added (replacing earlier ones with the same names) even when
    /// others are broken, and the parse errors come back as a value
    /// instead of aborting the whole module. The defining equation of a
    /// broken body is kept as an inert error hole, so linting and
    /// cross-definition analyses still see it.
    ///
    /// `csp lint` uses this so one typo at the top of a file cannot
    /// silence every diagnostic below it;
    /// [`define_source`](Self::define_source) remains the strict
    /// all-or-nothing entry point for verification, where an error hole
    /// would be unsound.
    pub fn define_source_lenient(&mut self, src: &str) -> Vec<ParseError> {
        let module = parse_module(src);
        self.defs.extend_with(module.defs);
        self.source_map.extend_with(module.map);
        module.errors
    }

    /// The source spans recorded by [`define_source`](Self::define_source)
    /// (definitions added via [`define`](Self::define) have none).
    pub fn source_map(&self) -> &SourceMap {
        &self.source_map
    }

    /// Adds one pre-built equation.
    pub fn define(&mut self, def: Definition) {
        self.defs.define(def);
    }

    /// Binds a host constant (visible to processes and assertions).
    pub fn bind(&mut self, name: &str, value: Value) {
        self.env.bind_mut(name, value);
    }

    /// Binds the cells of a constant vector `name[1]`, `name[2]`, … —
    /// e.g. the multiplier's `v`.
    pub fn bind_vector(&mut self, name: &str, values: &[i64]) {
        for (i, &v) in values.iter().enumerate() {
            self.env
                .bind_mut(&format!("{name}[{}]", i + 1), Value::Int(v));
        }
    }

    /// Declares channel names that assertions may mention even though no
    /// current definition communicates on them (e.g. when specifying a
    /// process that deliberately does nothing, §4's STOP discussion).
    pub fn declare_channels<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) {
        self.extra_channels
            .extend(names.into_iter().map(String::from));
    }

    /// Declares channel-array names for assertion parsing.
    pub fn declare_channel_arrays<'a, I: IntoIterator<Item = &'a str>>(&mut self, names: I) {
        self.extra_arrays
            .extend(names.into_iter().map(String::from));
    }

    /// Opens an observed [`Session`] over this workbench: the same
    /// verification entry points, with every operation recorded into one
    /// [`Collector`] (spans, counters, trace-operation deltas).
    pub fn session(&self) -> Session<'_> {
        self.session_with(Collector::new())
    }

    /// Opens a [`Session`] recording into the given collector — pass
    /// [`Collector::disabled`] for an observation-free session, or a
    /// shared collector to aggregate several sessions into one stream.
    pub fn session_with(&self, collector: Collector) -> Session<'_> {
        Session::new(self, collector)
    }

    /// Runs every static-analysis pass over the current definitions:
    /// name resolution (`CSP001`–`CSP003`), guardedness through mutual
    /// recursion (`CSP004`), declared-alphabet coverage (`CSP005`),
    /// channel direction races (`CSP006`), hiding hygiene (`CSP007`),
    /// and the §4 offer-mismatch heuristic (`CSP010`). Diagnostics carry
    /// spans for definitions added through
    /// [`define_source`](Self::define_source).
    ///
    /// Every `CSP010` finding is cross-checked against the bounded LTS
    /// deadlock search: a reproduced stuck state upgrades the finding to
    /// `confirmed` (with the witness trace), otherwise it is annotated
    /// `heuristic`.
    pub fn lint(&self) -> Vec<Diagnostic> {
        let mut diags = self.linter().run();
        for d in &mut diags {
            if d.code == LintCode::OfferMismatch {
                d.confirmation = Some(self.confirm_offer_mismatch(d.def.as_deref()));
            }
        }
        diags
    }

    /// Vets one CSP010 finding semantically. Search failures (array
    /// definitions without a concrete subscript, unbound hosts) leave the
    /// finding a heuristic rather than suppressing it.
    fn confirm_offer_mismatch(&self, def: Option<&str>) -> Confirmation {
        let Some(name) = def else {
            return Confirmation::Heuristic;
        };
        match self.deadlocks(name, CSP010_CONFIRM_DEPTH) {
            Ok(report) => match report.deadlocks.iter().find(|dl| !dl.terminated) {
                Some(dl) => Confirmation::Confirmed {
                    witness: dl.trace.to_string(),
                },
                None => Confirmation::Heuristic,
            },
            Err(_) => Confirmation::Heuristic,
        }
    }

    /// Lints `name sat assertion-source` for scope problems: channels
    /// outside the process's alphabet (`CSP008`) or hidden inside it
    /// (`CSP009`). Channels declared via
    /// [`declare_channels`](Self::declare_channels) are always in scope.
    ///
    /// # Errors
    ///
    /// Fails only if the assertion source does not parse.
    pub fn lint_assertion(
        &self,
        name: &str,
        assertion_src: &str,
    ) -> Result<Vec<Diagnostic>, WorkbenchError> {
        let assertion = self.assertion(assertion_src)?;
        let mut allowed = ChannelSet::new();
        for c in &self.extra_channels {
            allowed.insert(Channel::simple(c));
        }
        let process = Process::call(name);
        Ok(self
            .linter()
            .lint_assertion(name, &process, &assertion, &allowed))
    }

    fn linter(&self) -> Linter<'_> {
        Linter::new(&self.defs)
            .with_env(&self.env)
            .with_spans(&self.source_map)
    }

    /// Derives the channel classification (plain names vs. arrays) from
    /// the definitions, for assertion parsing.
    pub fn channel_info(&self) -> ChannelInfo {
        let mut plain = Vec::new();
        let mut arrays: std::collections::BTreeMap<String, usize> =
            std::collections::BTreeMap::new();
        for def in self.defs.iter() {
            collect_chanrefs(def.body(), &mut |c: &ChanRef| {
                if c.indices().is_empty() {
                    plain.push(c.base().to_string());
                } else {
                    let e = arrays.entry(c.base().to_string()).or_insert(0);
                    *e = (*e).max(c.indices().len());
                }
            });
        }
        plain.extend(self.extra_channels.iter().cloned());
        for a in &self.extra_arrays {
            arrays.entry(a.clone()).or_insert(1);
        }
        let funcs: Vec<&str> = self.funcs.names().collect();
        let mut info = ChannelInfo::new()
            .with_channels(plain.iter().map(String::as_str))
            .with_funcs(funcs);
        for (name, arity) in &arrays {
            info = info.with_array_of_arity(name, *arity);
        }
        info
    }

    /// Parses an assertion in the context of the current definitions.
    ///
    /// # Errors
    ///
    /// Returns the assertion parser's error.
    pub fn assertion(&self, src: &str) -> Result<Assertion, WorkbenchError> {
        Ok(csp_assert::parse_assertion(src, &self.channel_info())?)
    }

    /// Builds an online-monitor spec from assertion sources (empty =
    /// trace-membership checking only), for [`crate::RunOptions`]'s
    /// `monitor` field.
    ///
    /// # Errors
    ///
    /// Fails if any assertion does not parse against the session's
    /// channel vocabulary.
    pub fn monitor_spec<'s>(
        &self,
        invariants: impl IntoIterator<Item = &'s str>,
    ) -> Result<csp_runtime::MonitorSpec, WorkbenchError> {
        let mut spec = csp_runtime::MonitorSpec::new();
        for src in invariants {
            spec = spec.with_assertion(self.assertion(src)?);
        }
        Ok(spec)
    }

    /// The traces of a named process to the given depth (operational
    /// exploration; agrees with the denotational semantics).
    ///
    /// # Errors
    ///
    /// Fails on undefined names or evaluation errors.
    pub fn traces(&self, name: &str, depth: usize) -> Result<TraceSet, WorkbenchError> {
        let lts = Lts::new(&self.defs, &self.universe);
        Ok(lts.traces(&lts.initial(name, &self.env), depth)?)
    }

    /// The denotational trace set (reference implementation; exponential
    /// for parallel compositions).
    ///
    /// # Errors
    ///
    /// Fails on undefined names or evaluation errors.
    pub fn denote(&self, name: &str, depth: usize) -> Result<TraceSet, WorkbenchError> {
        let sem = Semantics::new(&self.defs, &self.universe);
        Ok(sem.denote_name(name, &self.env, depth)?)
    }

    /// Bounded model checking of `name sat assertion`. Accepts a bare
    /// depth or a full [`SatOptions`] bundle.
    ///
    /// # Errors
    ///
    /// Fails on parse or evaluation errors (a counterexample is a
    /// successful result, not an error).
    pub fn check_sat(
        &self,
        name: &str,
        assertion_src: &str,
        opts: impl Into<SatOptions>,
    ) -> Result<SatResult, WorkbenchError> {
        self.check_sat_with(name, assertion_src, &opts.into(), &Collector::disabled())
    }

    pub(crate) fn check_sat_with(
        &self,
        name: &str,
        assertion_src: &str,
        opts: &SatOptions,
        collector: &Collector,
    ) -> Result<SatResult, WorkbenchError> {
        let assertion = self.assertion(assertion_src)?;
        let checker = SatChecker::new(&self.defs, &self.universe)
            .with_env(self.env.clone())
            .with_funcs(self.funcs.clone())
            .with_internal_budget_factor(opts.internal_budget_factor)
            .with_engine(opts.engine)
            .with_collector(collector.clone());
        Ok(checker.check_name(name, &assertion, opts.depth)?)
    }

    /// Checks a proof tree against a goal with this workbench's
    /// definitions and universe.
    ///
    /// # Errors
    ///
    /// Returns the proof checker's error on an invalid derivation.
    pub fn prove(&self, goal: &Judgement, proof: &Proof) -> Result<CheckReport, WorkbenchError> {
        self.prove_with(goal, proof, &Collector::disabled())
    }

    pub(crate) fn prove_with(
        &self,
        goal: &Judgement,
        proof: &Proof,
        collector: &Collector,
    ) -> Result<CheckReport, WorkbenchError> {
        let mut ctx = Context::new(self.defs.clone(), self.universe.clone());
        ctx.env = self.env.clone();
        ctx.funcs = self.funcs.clone();
        Ok(check_with(&ctx, goal, proof, collector)?)
    }

    /// Executes the named process as a concurrent network.
    ///
    /// # Errors
    ///
    /// Fails on non-static networks or evaluation errors.
    pub fn run(&self, name: &str, opts: RunOptions) -> Result<RunResult, WorkbenchError> {
        let exec = Executor::new(&self.defs, &self.universe);
        Ok(exec.run_name(name, &self.env, opts)?)
    }

    /// Verifies a recorded run against the semantics and a list of
    /// invariants. Accepts a slice of invariant sources or a full
    /// [`ConformanceOptions`] bundle.
    ///
    /// # Errors
    ///
    /// Fails on parse or evaluation errors.
    pub fn conformance(
        &self,
        name: &str,
        result: &RunResult,
        opts: impl Into<ConformanceOptions>,
    ) -> Result<ConformanceReport, WorkbenchError> {
        let opts = opts.into();
        let invariants = opts
            .invariants
            .iter()
            .map(|s| self.assertion(s))
            .collect::<Result<Vec<_>, _>>()?;
        Ok(check_conformance(
            &Process::call(name),
            &self.env,
            &self.defs,
            &self.universe,
            &result.visible,
            &invariants,
            opts.replay_depth.unwrap_or(result.full.len().max(8)),
        )?)
    }

    /// Sweeps the named network over seeds × fault plans and checks
    /// that every degraded run still conforms: its visible trace is
    /// admitted by the semantics and every invariant (assertion syntax)
    /// holds on every prefix. The empirical form of the §4 observation
    /// that fail-stop faults only *remove* behaviour.
    ///
    /// # Errors
    ///
    /// Fails on invariant parse errors, non-static networks, fault plans
    /// naming unknown components, or evaluation errors during replay.
    pub fn fault_conformance(
        &self,
        name: &str,
        opts: impl Into<ConformanceOptions>,
        sweep: &FaultSweep,
    ) -> Result<FaultConformance, WorkbenchError> {
        let opts = opts.into();
        let invariants = opts
            .invariants
            .iter()
            .map(|s| self.assertion(s))
            .collect::<Result<Vec<_>, _>>()?;
        fault_conformance(
            &Process::call(name),
            &self.env,
            &self.defs,
            &self.universe,
            &invariants,
            sweep,
        )
        .map_err(|e| match e {
            csp_verify::FaultConfError::Run(e) => WorkbenchError::Run(e),
            csp_verify::FaultConfError::Eval(e) => WorkbenchError::Eval(e),
        })
    }

    /// Synthesises and checks a joint-recursion proof for the given
    /// `(name, invariant-source)` specs, concluding the first one — the
    /// automated form of the paper's proof discipline (see
    /// `csp_proof::synthesize`).
    ///
    /// # Errors
    ///
    /// Fails if an invariant does not parse, synthesis falls outside the
    /// sequential fragment, or the synthesised proof does not check
    /// (i.e. the invariants are not inductive).
    pub fn prove_auto(&self, specs: &[(&str, &str)]) -> Result<CheckReport, WorkbenchError> {
        self.prove_auto_with(specs, &Collector::disabled())
    }

    pub(crate) fn prove_auto_with(
        &self,
        specs: &[(&str, &str)],
        collector: &Collector,
    ) -> Result<CheckReport, WorkbenchError> {
        let parsed: Vec<(String, Assertion)> = specs
            .iter()
            .map(|(n, src)| Ok((n.to_string(), self.assertion(src)?)))
            .collect::<Result<_, WorkbenchError>>()?;
        let mut ctx = Context::new(self.defs.clone(), self.universe.clone());
        ctx.env = self.env.clone();
        ctx.funcs = self.funcs.clone();
        let proof = csp_proof::synthesize(&ctx, &parsed, 0)
            .map_err(|e| WorkbenchError::Proof(ProofError::BadRecursion(e.to_string())))?;
        let goal = csp_proof::spec_goal(&ctx, &parsed[0])?;
        Ok(check_with(&ctx, &goal, &proof, collector)?)
    }

    /// Bounded deadlock search over the operational semantics — the
    /// analysis §4 says the trace model cannot express — up to `depth`
    /// visible events.
    ///
    /// # Errors
    ///
    /// Fails on undefined names or evaluation errors.
    pub fn deadlocks(&self, name: &str, depth: usize) -> Result<DeadlockReport, WorkbenchError> {
        Ok(find_deadlocks(
            &self.defs,
            &self.universe,
            &Process::call(name),
            &self.env,
            depth,
        )?)
    }

    /// Bounded trace refinement: every behaviour of `implementation` is
    /// a behaviour of `specification`, up to the exploration depth
    /// (a bare depth or a [`SatOptions`] bundle, whose `engine` does not
    /// apply). Returns the first counterexample trace on failure.
    ///
    /// The check runs as a subset construction over the interned
    /// transition graph of a [`CompiledLts`]; no trace set is
    /// materialised.
    ///
    /// # Errors
    ///
    /// Fails on undefined names or evaluation errors.
    pub fn refines(
        &self,
        implementation: &str,
        specification: &str,
        opts: impl Into<SatOptions>,
    ) -> Result<Result<(), csp_trace::Trace>, WorkbenchError> {
        let opts = opts.into();
        let mut lts = CompiledLts::new(&self.defs, &self.universe);
        let i = lts.start(implementation, &self.env);
        let s = lts.start(specification, &self.env);
        Ok(lts.refines(i, s, opts.depth, opts.depth * opts.internal_budget_factor)?)
    }

    /// Runs the paper's fixpoint construction (§3.3) over all current
    /// definitions.
    ///
    /// # Errors
    ///
    /// Fails on evaluation errors while iterating.
    pub fn fixpoint(&self, depth: usize, max_iters: usize) -> Result<FixpointRun, WorkbenchError> {
        self.fixpoint_with(depth, max_iters, &Collector::disabled())
    }

    pub(crate) fn fixpoint_with(
        &self,
        depth: usize,
        max_iters: usize,
        collector: &Collector,
    ) -> Result<FixpointRun, WorkbenchError> {
        Ok(fixpoint_with(
            &self.defs,
            &self.universe,
            &self.env,
            depth,
            max_iters,
            collector,
        )?)
    }
}

fn collect_chanrefs(p: &Process, f: &mut impl FnMut(&ChanRef)) {
    match p {
        Process::Stop | Process::Call { .. } | Process::Error(_) => {}
        Process::Output { chan, then, .. } => {
            f(chan);
            collect_chanrefs(then, f);
        }
        Process::Input { chan, then, .. } => {
            f(chan);
            collect_chanrefs(then, f);
        }
        Process::Choice(a, b) => {
            collect_chanrefs(a, f);
            collect_chanrefs(b, f);
        }
        Process::Parallel { left, right, .. } => {
            collect_chanrefs(left, f);
            collect_chanrefs(right, f);
        }
        Process::Hide { channels, body } => {
            for c in channels {
                f(c);
            }
            collect_chanrefs(body, f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_runtime::Scheduler;
    use csp_semantics::Engine;

    fn pipeline_wb() -> Workbench {
        let mut wb = Workbench::new().with_universe(Universe::new(1));
        wb.define_source(csp_lang::examples::PIPELINE_SRC).unwrap();
        wb
    }

    #[test]
    fn define_check_run_conform_cycle() {
        let wb = pipeline_wb();
        assert!(wb.lint().is_empty());
        // Model check.
        assert!(wb
            .check_sat("pipeline", "output <= input", 3)
            .unwrap()
            .holds());
        // Execute.
        let res = wb
            .run(
                "pipeline",
                RunOptions {
                    max_steps: 20,
                    scheduler: Scheduler::seeded(2),
                    ..RunOptions::default()
                },
            )
            .unwrap();
        // Conform.
        let report = wb
            .conformance("pipeline", &res, ["output <= input"])
            .unwrap();
        assert!(report.conforms());
    }

    #[test]
    fn fault_sweep_through_workbench() {
        use csp_runtime::FaultPlan;
        let wb = pipeline_wb();
        let sweep = FaultSweep::new(
            [1, 2],
            [FaultPlan::none(), FaultPlan::none().crash("copier", 3)],
        )
        .with_max_steps(16);
        let result = wb
            .fault_conformance("pipeline", ["output <= input"], &sweep)
            .unwrap();
        assert_eq!(result.runs.len(), 4);
        assert!(result.all_conformant(), "{:?}", result.violations());
    }

    #[test]
    fn assertion_parsing_uses_definition_channels() {
        let wb = pipeline_wb();
        let a = wb.assertion("wire <= input").unwrap();
        assert_eq!(a.to_string(), "wire <= input");
    }

    #[test]
    fn channel_info_classifies_arrays() {
        let mut wb = Workbench::new();
        wb.define_source(csp_lang::examples::MULTIPLIER_SRC)
            .unwrap();
        wb.bind_vector("v", &[1, 2, 3]);
        let a = wb
            .assertion("forall i:NAT. 1 <= i and i <= #output => output[i] == v[1]*row[1][i]")
            .unwrap();
        assert!(a.to_string().contains("row[1][i]"));
    }

    #[test]
    fn prove_through_workbench() {
        use csp_assert::{Assertion, STerm};
        let wb = pipeline_wb();
        let inv = Assertion::prefix(STerm::chan("wire"), STerm::chan("input"));
        let goal = Judgement::sat(Process::call("copier"), inv.clone());
        let proof = Proof::recursion(
            "copier",
            inv.clone(),
            Proof::input(
                "v",
                Proof::output(Proof::consequence(inv, Proof::Hypothesis)),
            ),
        );
        let report = wb.prove(&goal, &proof).unwrap();
        assert!(report.rule_count() >= 4);
    }

    #[test]
    fn traces_and_denote_agree() {
        let wb = pipeline_wb();
        let a = wb.traces("copier", 4).unwrap();
        let b = wb.denote("copier", 4).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn fixpoint_through_workbench() {
        let wb = pipeline_wb();
        let run = wb.fixpoint(4, 16).unwrap();
        assert!(run.converged_at.is_some());
    }

    #[test]
    fn validation_reports_missing_names() {
        let mut wb = Workbench::new();
        wb.define_source("p = c!0 -> ghost").unwrap();
        // The linter reports the undefined call as CSP001, with the call
        // site's span (this subsumes the removed `validate()` shim).
        let diags = wb.lint();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code(), "CSP001");
        let span = diags[0].span.expect("span from define_source");
        assert_eq!((span.line, span.column), (1, 12));
    }

    #[test]
    fn lint_assertion_flags_scope_problems() {
        let wb = pipeline_wb();
        // wire is hidden inside pipeline: CSP009.
        let diags = wb.lint_assertion("pipeline", "wire <= input").unwrap();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code(), "CSP009");
        // A misspelt channel is outside the alphabet: CSP008 — but only
        // when parseable as a channel, so declare it.
        let mut typo = pipeline_wb();
        typo.declare_channels(["outputt"]);
        let diags = typo.lint_assertion("pipeline", "outputt <= input").unwrap();
        // declare_channels marks it allowed, so explicitly-declared extra
        // channels stay clean:
        assert!(diags.is_empty());
        // In-scope assertions are clean.
        assert!(wb
            .lint_assertion("pipeline", "output <= input")
            .unwrap()
            .is_empty());
    }

    #[test]
    fn lint_reports_composition_findings_with_spans() {
        let mut wb = Workbench::new();
        wb.define_source("w1 = c!1 -> w1\nw2 = c!2 -> w2\nnet = w1 || w2")
            .unwrap();
        let diags = wb.lint();
        assert!(diags
            .iter()
            .any(|d| d.code.code() == "CSP006" && d.span.is_some()));
    }

    #[test]
    fn csp010_findings_are_vetted_against_deadlock_search() {
        // The mismatch is real: the bounded search reproduces the stuck
        // state, so the finding is confirmed and carries a witness.
        let mut wb = Workbench::new();
        wb.define_source("p = a!1 -> STOP || a?x:{2,3} -> STOP")
            .unwrap();
        let diags = wb.lint();
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::OfferMismatch)
            .expect("CSP010 fires");
        assert!(
            matches!(d.confirmation, Some(Confirmation::Confirmed { .. })),
            "{d:?}"
        );

        // Declared alphabets count: each side waits for the other.
        let mut wb = Workbench::new();
        wb.define_source("net = a!1 -> STOP ||{a, b | a, b} b!2 -> STOP")
            .unwrap();
        let d = wb
            .lint()
            .into_iter()
            .find(|d| d.code == LintCode::OfferMismatch)
            .expect("CSP010 fires on declared alphabets");
        assert_eq!(
            d.confirmation,
            Some(Confirmation::Confirmed {
                witness: "<>".to_string()
            }),
            "{d:?}"
        );

        // Inside an array definition the search cannot run (no concrete
        // subscript), so the finding stays annotated as heuristic.
        let mut wb = Workbench::new();
        wb.define_source("q[i:0..1] = a!1 -> STOP || a?x:{2,3} -> STOP")
            .unwrap();
        let diags = wb.lint();
        let d = diags
            .iter()
            .find(|d| d.code == LintCode::OfferMismatch)
            .expect("CSP010 fires in array definition");
        assert_eq!(d.confirmation, Some(Confirmation::Heuristic), "{d:?}");

        // Clean networks carry no confirmation field at all.
        let wb = pipeline_wb();
        assert!(wb.lint().iter().all(|d| d.confirmation.is_none()));
    }

    #[test]
    fn counterexamples_are_reported_not_errors() {
        let wb = pipeline_wb();
        let verdict = wb.check_sat("copier", "input <= wire", 3).unwrap();
        assert!(!verdict.holds());
    }

    #[test]
    fn prove_auto_synthesises_paper_proofs() {
        let wb = pipeline_wb();
        let report = wb
            .prove_auto(&[("copier", "wire <= input")])
            .expect("auto proof of copier");
        assert!(report.rule_count() >= 4);
        // The joint Table-1 pair through the high-level API:
        let mut pwb = Workbench::new()
            .with_universe(Universe::new(1).with_named("M", [Value::nat(0), Value::nat(1)]));
        pwb.define_source(csp_lang::examples::PROTOCOL_SRC).unwrap();
        let report = pwb
            .prove_auto(&[("sender", "f(wire) <= input"), ("q", "f(wire) <= x^input")])
            .expect("auto Table 1");
        assert!(report.rule_count() >= 9);
    }

    #[test]
    fn prove_auto_rejects_non_inductive_invariants() {
        let wb = pipeline_wb();
        assert!(wb.prove_auto(&[("copier", "input <= wire")]).is_err());
    }

    #[test]
    fn deadlock_search_through_workbench() {
        let wb = pipeline_wb();
        let report = wb.deadlocks("pipeline", 3).unwrap();
        assert!(report.deadlocks.is_empty());
        let mut jammed = Workbench::new().with_universe(Universe::new(3));
        jammed
            .define_source("left = w!1 -> STOP\nright = w?x:{2} -> STOP\nnet = left || right")
            .unwrap();
        let report = jammed.deadlocks("net", 3).unwrap();
        assert!(!report.deadlock_free());
    }

    #[test]
    fn engine_selection_through_workbench() {
        let wb = pipeline_wb();
        for engine in [Engine::Enumerative, Engine::Compiled] {
            let v = wb
                .check_sat(
                    "pipeline",
                    "output <= input",
                    SatOptions::from(3).with_engine(engine),
                )
                .unwrap();
            assert!(v.holds());
            assert_eq!(v.engine(), engine);
        }
        // Auto resolves to compiled for the hidden-wire network and to
        // the enumerative oracle for a lone sequential component.
        let v = wb.check_sat("pipeline", "output <= input", 3).unwrap();
        assert_eq!(v.engine(), Engine::Compiled);
        let v = wb.check_sat("copier", "wire <= input", 3).unwrap();
        assert_eq!(v.engine(), Engine::Enumerative);
    }

    #[test]
    fn refinement_through_workbench() {
        let mut wb = Workbench::new().with_universe(Universe::new(1));
        wb.define_source(
            "spec = a?x:NAT -> spec | b!0 -> spec
             impl = a?x:NAT -> impl
             bad = c!9 -> bad",
        )
        .unwrap();
        assert!(wb.refines("impl", "spec", 3).unwrap().is_ok());
        let cex = wb.refines("bad", "spec", 3).unwrap().unwrap_err();
        assert_eq!(cex.len(), 1);
    }
}
