//! Cross-validation of the proof system against the model — the
//! strongest form of experiment E6.
//!
//! Every claim the proof checker certifies is independently model-checked
//! here: a discrepancy would mean either the checker admits an unsound
//! derivation or the semantics disagrees with the paper. The §4 identity
//! `STOP | P = P` (the model's admitted defect) is also verified
//! mechanically.

use csp_assert::AssertError;
use csp_lang::{Env, Process};
use csp_proof::{scripts, Judgement};
use csp_semantics::{compare, Semantics, Universe};
use rayon::prelude::*;

use crate::{SatChecker, SatResult};

/// Result of cross-validating one proof script.
#[derive(Debug)]
pub struct CrossValidation {
    /// The script's name.
    pub script: &'static str,
    /// The claim as text.
    pub claim: String,
    /// The proof checker's verdict (rule applications).
    pub proof_steps: usize,
    /// The model checker's verdict.
    pub model_result: SatResult,
}

impl CrossValidation {
    /// True when both the proof checked and the model agreed.
    pub fn agreed(&self) -> bool {
        self.model_result.holds()
    }
}

/// Checks every proof script symbolically *and* by bounded model
/// checking at the given depth.
///
/// # Errors
///
/// Fails if a proof does not check (a broken reproduction) or an
/// assertion cannot be evaluated.
pub fn cross_validate_scripts(depth: usize) -> Result<Vec<CrossValidation>, AssertError> {
    // Scripts are independent (each carries its own context); check them
    // concurrently, keeping the script order in the results.
    let results: Vec<Option<Result<CrossValidation, AssertError>>> = scripts::all_scripts()
        .into_par_iter()
        .map(|script| {
            let report = script
                .check()
                .unwrap_or_else(|e| panic!("proof `{}` failed to check: {e}", script.name));
            let Judgement::Sat { process, assertion } = &script.goal else {
                return None; // all shipped scripts have sat goals
            };
            let checker = SatChecker::new(&script.context.defs, &script.context.universe)
                .with_env(script.context.env.clone());
            let model_result = match checker.check(process, assertion, depth) {
                Ok(r) => r,
                Err(e) => return Some(Err(e)),
            };
            Some(Ok(CrossValidation {
                script: script.name,
                claim: script.goal.to_string(),
                proof_steps: report.rule_count(),
                model_result,
            }))
        })
        .collect();
    results.into_iter().flatten().collect()
}

/// Experiment E7 — the §4 defect: in the prefix-closure model,
/// `STOP | P` and `P` denote the same trace set. Returns the two sizes
/// (equal on success).
///
/// # Errors
///
/// Propagates evaluation failures from the semantics.
pub fn stop_choice_identity(
    defs: &csp_lang::Definitions,
    universe: &Universe,
    name: &str,
    depth: usize,
) -> Result<(usize, usize), csp_lang::EvalError> {
    let sem = Semantics::new(defs, universe);
    let env = Env::new();
    let plain = sem.denote_name(name, &env, depth)?;
    let with_stop = sem.denote(&Process::Stop.or(Process::call(name)), &env, depth)?;
    debug_assert!(compare(&plain, &with_stop).is_none());
    Ok((plain.len(), with_stop.len()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::examples;

    #[test]
    fn every_proved_claim_model_checks() {
        let results = cross_validate_scripts(3).expect("cross-validation runs");
        assert!(results.len() >= 8);
        for r in &results {
            assert!(
                r.agreed(),
                "proof `{}` not confirmed by the model: {:?}",
                r.script,
                r.model_result
            );
        }
    }

    #[test]
    fn stop_choice_is_identity_on_paper_examples() {
        let uni = Universe::new(1);
        for (defs, name) in [
            (examples::pipeline(), "copier"),
            (examples::pipeline(), "pipeline"),
            (examples::buffer2(), "buffer2"),
        ] {
            let (a, b) = stop_choice_identity(&defs, &uni, name, 4).unwrap();
            assert_eq!(a, b, "STOP | {name} differs from {name}");
        }
    }
}
