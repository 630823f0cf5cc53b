//! The incremental analysis database.
//!
//! [`AnalysisDb`] keeps per-definition parse, lint, and alphabet results
//! keyed by a content hash of each definition's source text, together
//! with the definition-level call edges. On [`AnalysisDb::set_source`]
//! only the *dirtied* definitions — those whose text changed, plus every
//! definition whose (old) transitive callees include a changed, added, or
//! removed name — are re-analysed; everything else is served from cache.
//!
//! Incrementality is two-level. The parse itself is incremental:
//! [`ParsedModule::reparse`] diffs the new source against the previous
//! revision and re-parses only the definition chunks the edit overlaps,
//! splicing the cached parse — spans shifted — for everything else (it
//! falls back to a full parse whenever the splice's equivalence is not
//! provable, e.g. around error recovery). On top of that, the analysis
//! layer re-lints only the dirtied definitions, and rebases the spans of
//! cached diagnostics when an edit merely moved their definition.

use std::collections::{BTreeMap, BTreeSet};

use csp_lang::{
    called_names, channel_alphabet, parse_module, Definitions, Env, ParseError, ParsedModule,
    Process, SourceMap, Span,
};
use csp_trace::ChannelSet;

use crate::diagnostic::Diagnostic;
use crate::linter::Linter;

/// Cached analysis results for one definition.
#[derive(Debug, Clone)]
struct DefEntry {
    /// FNV-1a hash of the definition's source text (its extent slice).
    hash: u64,
    /// Where the definition's name sat when `diagnostics` was computed
    /// (or last rebased) — the anchor for relocating cached spans when
    /// an edit moves the definition without changing it.
    name_span: Span,
    /// Lint findings attributed to this definition.
    diagnostics: Vec<Diagnostic>,
    /// Statically inferred channel alphabet (`None` when it could not be
    /// computed, e.g. unbound subscripts).
    alphabet: Option<ChannelSet>,
    /// Names this definition's body calls directly.
    calls: BTreeSet<String>,
}

/// Statistics about the most recent [`AnalysisDb::set_source`] call,
/// used by benchmarks and tests to verify incrementality.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RevisionStats {
    /// Definitions in the module after the edit.
    pub definitions: usize,
    /// Definitions whose results were recomputed.
    pub relinted: usize,
    /// Definitions served entirely from cache.
    pub cached: usize,
}

/// An incremental per-definition analysis database.
///
/// # Examples
///
/// ```
/// use csp_analysis::AnalysisDb;
///
/// let mut db = AnalysisDb::new();
/// db.set_source("p = c!0 -> p\nq = d!0 -> q");
/// assert_eq!(db.stats().relinted, 2);
/// // Editing q re-lints only q: p's text and callees are unchanged.
/// db.set_source("p = c!0 -> p\nq = d!1 -> q");
/// assert_eq!(db.stats().relinted, 1);
/// assert_eq!(db.stats().cached, 1);
/// ```
#[derive(Debug, Default)]
pub struct AnalysisDb {
    env: Env,
    src: String,
    module: ParsedModule,
    entries: BTreeMap<String, DefEntry>,
    stats: RevisionStats,
    /// True once `set_source` has run, enabling the same-text fast path.
    primed: bool,
}

impl AnalysisDb {
    /// An empty database with an empty host environment.
    pub fn new() -> Self {
        AnalysisDb::default()
    }

    /// Sets the evaluation environment used to resolve channel
    /// subscripts, invalidating every cached result.
    pub fn with_env(mut self, env: &Env) -> Self {
        self.env = env.clone();
        self.entries.clear();
        self.src.clear();
        self.primed = false;
        self
    }

    /// Replaces the module source, re-analysing only the definitions
    /// dirtied by the edit. Returns the revision's [`RevisionStats`].
    pub fn set_source(&mut self, src: &str) -> RevisionStats {
        if self.primed && src == self.src {
            self.stats = RevisionStats {
                definitions: self.module.defs.len(),
                relinted: 0,
                cached: self.module.defs.len(),
            };
            return self.stats;
        }
        self.module = match std::mem::take(&mut self.module).reparse(&self.src, src) {
            Ok(m) => m,
            Err(_stale) => parse_module(src),
        };
        // Keys borrow the module's extent list: no per-revision name
        // allocations on the hot path.
        let new_hashes: BTreeMap<&str, u64> = self
            .module
            .extents
            .iter()
            .map(|(name, extent)| {
                (
                    name.as_str(),
                    fnv1a(&src.as_bytes()[extent.offset..extent.end()]),
                )
            })
            .collect();

        // Seed the dirty front with every name whose content changed,
        // appeared, or disappeared.
        let mut dirty_names: BTreeSet<String> = BTreeSet::new();
        for (name, h) in &new_hashes {
            if self.entries.get(*name).map(|e| e.hash) != Some(*h) {
                dirty_names.insert((*name).to_string());
            }
        }
        for name in self.entries.keys() {
            if !new_hashes.contains_key(name.as_str()) {
                dirty_names.insert(name.clone());
            }
        }

        // Propagate backwards over the cached call edges: a definition
        // whose transitive callees include a dirty name gets re-analysed
        // too (its CSP001/CSP002/alphabet results may depend on it).
        // Clean definitions kept their text, hence their edges, so the
        // cached edges are exact for them.
        let mut reverse: BTreeMap<&str, Vec<&str>> = BTreeMap::new();
        for (name, entry) in &self.entries {
            for callee in &entry.calls {
                reverse.entry(callee).or_default().push(name);
            }
        }
        let mut queue: Vec<String> = dirty_names.iter().cloned().collect();
        while let Some(name) = queue.pop() {
            for caller in reverse.get(name.as_str()).into_iter().flatten() {
                if dirty_names.insert((*caller).to_string()) {
                    queue.push((*caller).to_string());
                }
            }
        }

        // Drop entries for definitions that no longer exist.
        self.entries
            .retain(|name, _| new_hashes.contains_key(name.as_str()));

        let linter = Linter::new(&self.module.defs)
            .with_env(&self.env)
            .with_spans(&self.module.map);
        let mut relinted = 0usize;
        for def in self.module.defs.iter() {
            let name = def.name();
            if !dirty_names.contains(name) {
                // Text unchanged — but the edit may have *moved* the
                // definition. Rebase the cached diagnostic spans by the
                // name span's byte/line delta; the column must agree (an
                // indentation change shifts first-line columns
                // non-uniformly), otherwise recompute below.
                if let (Some(entry), Some(after)) =
                    (self.entries.get_mut(name), self.module.map.get(name))
                {
                    let before = entry.name_span;
                    if !before.is_unknown()
                        && !after.name.is_unknown()
                        && before.column == after.name.column
                    {
                        let bytes = after.name.offset as isize - before.offset as isize;
                        let lines = after.name.line as isize - before.line as isize;
                        if bytes != 0 || lines != 0 {
                            for d in &mut entry.diagnostics {
                                if let Some(span) = d.span {
                                    d.span = Some(span.shifted(bytes, lines));
                                }
                            }
                            entry.name_span = after.name;
                        }
                        continue;
                    }
                    // Spans unavailable or indentation changed: fall
                    // through to an honest re-lint.
                }
            }
            relinted += 1;
            let diagnostics = linter.run_def(def);
            let alphabet = channel_alphabet(def.body(), &self.module.defs, &self.env).ok();
            let calls = called_names(def.body());
            self.entries.insert(
                def.name().to_string(),
                DefEntry {
                    hash: new_hashes[name],
                    name_span: self
                        .module
                        .map
                        .get(name)
                        .map_or_else(Span::default, |d| d.name),
                    diagnostics,
                    alphabet,
                    calls,
                },
            );
        }

        self.stats = RevisionStats {
            definitions: self.module.defs.len(),
            relinted,
            cached: self.module.defs.len() - relinted,
        };
        self.src.clear();
        self.src.push_str(src);
        self.primed = true;
        self.stats
    }

    /// Statistics for the most recent [`set_source`](Self::set_source).
    pub fn stats(&self) -> RevisionStats {
        self.stats
    }

    /// The parsed definitions of the current revision (error holes
    /// included).
    pub fn definitions(&self) -> &Definitions {
        &self.module.defs
    }

    /// Spans for the current revision's definitions.
    pub fn source_map(&self) -> &SourceMap {
        &self.module.map
    }

    /// Parse errors of the current revision, in source order.
    pub fn parse_errors(&self) -> &[ParseError] {
        &self.module.errors
    }

    /// All lint findings of the current revision, sorted by source
    /// position exactly as [`Linter::run`] would report them.
    pub fn diagnostics(&self) -> Vec<Diagnostic> {
        let mut out: Vec<Diagnostic> = self
            .entries
            .values()
            .flat_map(|e| e.diagnostics.iter().cloned())
            .collect();
        crate::linter::sort_diagnostics(&mut out);
        out
    }

    /// The statically inferred channel alphabet of a definition, when
    /// computable.
    pub fn alphabet(&self, name: &str) -> Option<&ChannelSet> {
        self.entries.get(name).and_then(|e| e.alphabet.as_ref())
    }

    /// The span of a definition's name, for go-to-definition.
    pub fn definition_span(&self, name: &str) -> Option<Span> {
        self.module.map.get(name).map(|d| d.name)
    }

    /// The FNV-1a content hash of a definition's source extent — the
    /// key its cached results are stored under. `None` for names the
    /// current revision does not define. Callers that cache *derived*
    /// results (the verification service, the workbench pool) combine
    /// these with their own query parameters, so a re-request of an
    /// unchanged definition can be answered without recomputation.
    pub fn def_hash(&self, name: &str) -> Option<u64> {
        self.entries.get(name).map(|e| e.hash)
    }

    /// The number of communications a definition performs before its
    /// first recursive call — the static bound on the trace depth of one
    /// unfolding, shown in editor hovers.
    pub fn prefix_depth(&self, name: &str) -> Option<usize> {
        let def = self.module.defs.get(name)?;
        Some(prefix_depth(def.body()))
    }
}

/// Communications before the shallowest name reference (maximum over
/// branches, sum along prefixes).
fn prefix_depth(p: &Process) -> usize {
    match p {
        Process::Stop | Process::Call { .. } | Process::Error(_) => 0,
        Process::Output { then, .. } | Process::Input { then, .. } => 1 + prefix_depth(then),
        Process::Choice(a, b) => prefix_depth(a).max(prefix_depth(b)),
        Process::Parallel { left, right, .. } => prefix_depth(left).max(prefix_depth(right)),
        Process::Hide { body, .. } => prefix_depth(body),
    }
}

// The hash [`AnalysisDb`] keys its per-definition results on — the
// workspace-wide FNV-1a from `csp_trace::hash`, re-exported so other
// layers (the verification service's cross-request cache, the workbench
// pool) address content the same way the incremental front-end does.
pub use csp_trace::hash::content_hash;

fn fnv1a(bytes: &[u8]) -> u64 {
    content_hash(bytes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cold_run_analyses_everything() {
        let mut db = AnalysisDb::new();
        let stats = db.set_source("p = c!0 -> p\nq = d!0 -> q\nnet = p || q");
        assert_eq!(stats.definitions, 3);
        assert_eq!(stats.relinted, 3);
        assert_eq!(stats.cached, 0);
    }

    #[test]
    fn editing_a_leaf_relints_it_and_its_callers() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> p\nq = d!0 -> q\nnet = p || q");
        // Changing q dirties q and net (net calls q), but not p.
        let stats = db.set_source("p = c!0 -> p\nq = d!1 -> q\nnet = p || q");
        assert_eq!(stats.relinted, 2);
        assert_eq!(stats.cached, 1);
    }

    #[test]
    fn editing_an_independent_def_relints_only_it() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> p\nq = d!0 -> q");
        let stats = db.set_source("p = c!0 -> p\nq = d!1 -> q");
        assert_eq!(stats.relinted, 1);
        assert_eq!(stats.cached, 1);
    }

    #[test]
    fn unchanged_source_is_fully_cached() {
        let src = "p = c!0 -> p\nq = d!0 -> q";
        let mut db = AnalysisDb::new();
        db.set_source(src);
        let stats = db.set_source(src);
        assert_eq!(stats.relinted, 0);
        assert_eq!(stats.cached, 2);
    }

    #[test]
    fn whitespace_only_reflow_keeps_other_defs_cached() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> p\nq = d!0 -> q");
        // Indenting q changes q's line but not its extent text… it does
        // change the extent (leading spaces are outside the extent, which
        // starts at the first token). p is untouched either way.
        let stats = db.set_source("p = c!0 -> p\n  q = d!0 -> q");
        assert!(stats.cached >= 1, "{stats:?}");
    }

    #[test]
    fn deleting_a_def_invalidates_callers() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> q\nq = d!0 -> q");
        assert!(db.diagnostics().is_empty());
        let stats = db.set_source("p = c!0 -> q");
        // q's deletion dirties p, which now calls an undefined name.
        assert_eq!(stats.relinted, 1);
        let diags = db.diagnostics();
        assert_eq!(diags.len(), 1);
        assert_eq!(diags[0].code.code(), "CSP001");
        assert!(diags[0].span.is_some());
    }

    #[test]
    fn adding_a_def_clears_stale_undefined_findings() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> ghost");
        assert_eq!(db.diagnostics().len(), 1);
        db.set_source("p = c!0 -> ghost\nghost = d!0 -> ghost");
        assert!(db.diagnostics().is_empty());
    }

    #[test]
    fn incremental_diagnostics_match_cold_run() {
        let v1 = "p = c!0 -> p\nq = d!0 -> ghost\nnet = p || q";
        let v2 = "p = c!0 -> p\nq = d!2 -> ghost\nnet = p || q";
        let mut db = AnalysisDb::new();
        db.set_source(v1);
        db.set_source(v2);
        let mut cold = AnalysisDb::new();
        cold.set_source(v2);
        assert_eq!(db.diagnostics(), cold.diagnostics());
        assert_eq!(db.stats().relinted, 2); // q and net
    }

    #[test]
    fn broken_definitions_cache_like_any_other() {
        let mut db = AnalysisDb::new();
        db.set_source("bad = c!0 ->\ngood = d!0 -> good");
        assert_eq!(db.parse_errors().len(), 1);
        assert!(db.definitions().get("good").is_some());
        // Fixing the broken def leaves `good` cached.
        let stats = db.set_source("bad = c!0 -> bad\ngood = d!0 -> good");
        assert_eq!(stats.relinted, 1);
        assert!(db.parse_errors().is_empty());
    }

    #[test]
    fn cached_diagnostic_spans_follow_moved_definitions() {
        let v1 = "p = c!0 -> p\nq = d!0 -> ghost";
        let v2 = "p = c!0 -> c!1 -> p\nq = d!0 -> ghost";
        let mut db = AnalysisDb::new();
        db.set_source(v1);
        let before = db.diagnostics()[0].span.expect("spanned");
        // Lengthening p moves q without changing its text: q stays
        // cached, but its CSP001's span must follow it.
        let stats = db.set_source(v2);
        assert_eq!(stats.relinted, 1, "only p re-lints");
        let mut cold = AnalysisDb::new();
        cold.set_source(v2);
        assert_eq!(db.diagnostics(), cold.diagnostics());
        let after = db.diagnostics()[0].span.expect("spanned");
        assert_eq!(after.offset, before.offset + 7);
        assert_eq!(after.line, before.line);
    }

    #[test]
    fn repeating_the_same_source_is_free() {
        let src = "p = c!0 -> p";
        let mut db = AnalysisDb::new();
        db.set_source(src);
        let stats = db.set_source(src);
        assert_eq!(stats.relinted, 0);
        assert_eq!(stats.cached, 1);
        assert_eq!(stats.definitions, 1);
    }

    #[test]
    fn def_hashes_are_content_addressed() {
        let mut db = AnalysisDb::new();
        db.set_source("p = c!0 -> p\nq = d!0 -> q");
        let p0 = db.def_hash("p").expect("p is defined");
        assert_eq!(db.def_hash("ghost"), None);
        // Editing q leaves p's key untouched…
        db.set_source("p = c!0 -> p\nq = d!1 -> q");
        assert_eq!(db.def_hash("p"), Some(p0));
        // …and the key is exactly the extent's content hash.
        assert_eq!(p0, content_hash(b"p = c!0 -> p"));
    }

    #[test]
    fn alphabet_and_depth_queries() {
        let mut db = AnalysisDb::new();
        db.set_source("copier = input?x:NAT -> wire!x -> copier");
        let alpha = db.alphabet("copier").unwrap();
        assert_eq!(alpha.len(), 2);
        assert_eq!(db.prefix_depth("copier"), Some(2));
        assert_eq!(db.definition_span("copier").unwrap().column, 1);
    }
}
