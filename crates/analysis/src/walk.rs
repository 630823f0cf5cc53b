//! Initial communication offers, the lint-only analysis behind CSP010.
//! The channels a term uses, and how, come from csp-lang's
//! [`channel_uses`](csp_lang::channel_uses).

use std::collections::BTreeSet;

use csp_lang::{Definitions, Env, MsgSet, Process};
use csp_trace::{Channel, Value};

/// One communication a process is ready to perform first.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Offer {
    /// The concrete channel.
    pub chan: Channel,
    /// The values the communication could carry; `None` when statically
    /// unknown (an unevaluable output or an unbounded input set).
    pub values: Option<BTreeSet<Value>>,
}

impl Offer {
    /// Whether two offers on the same channel could synchronise: their
    /// value sets intersect, with unknown treated as compatible.
    pub fn compatible(&self, other: &Offer) -> bool {
        self.chan == other.chan
            && match (&self.values, &other.values) {
                (Some(a), Some(b)) => !a.is_disjoint(b),
                _ => true,
            }
    }
}

/// The set of first communications `p` can offer, unfolding definitions.
///
/// Returns `None` when the offers cannot be determined syntactically — a
/// nested composition or hiding in first position, an unresolvable
/// subscript, or recursion reached without a guard. `Some(vec![])` means
/// the process provably offers nothing (`STOP`).
pub fn initial_offers(p: &Process, defs: &Definitions, env: &Env) -> Option<Vec<Offer>> {
    let mut visited = BTreeSet::new();
    first_offers(p, defs, env, &mut visited)
}

fn first_offers(
    p: &Process,
    defs: &Definitions,
    env: &Env,
    visited: &mut BTreeSet<(String, Vec<Value>)>,
) -> Option<Vec<Offer>> {
    match p {
        Process::Stop => Some(Vec::new()),
        // An error hole's real offers are unknowable — stay conservative
        // so broken definitions don't trigger spurious CSP010 findings.
        Process::Error(_) => None,
        Process::Call { name, args } => {
            let vals = args
                .iter()
                .map(|e| e.eval(env))
                .collect::<Result<Vec<_>, _>>()
                .ok()?;
            if !visited.insert((name.clone(), vals.clone())) {
                // Unguarded recursion: no communication can come first.
                return None;
            }
            let (body, scope) = defs.resolve_call(name, &vals, env).ok()?;
            first_offers(body, defs, &scope, visited)
        }
        Process::Output { chan, msg, .. } => {
            let chan = chan.resolve(env).ok()?;
            let values = msg.eval(env).ok().map(|v| BTreeSet::from([v]));
            Some(vec![Offer { chan, values }])
        }
        Process::Input { chan, set, .. } => {
            let chan = chan.resolve(env).ok()?;
            let values = match set.eval(env).ok()? {
                MsgSet::Finite(vs) => Some(vs),
                MsgSet::Nat | MsgSet::Named(_) => None,
            };
            Some(vec![Offer { chan, values }])
        }
        Process::Choice(a, b) => {
            // Both arms must be known: an unknown arm might hold the
            // offer that saves the composition.
            let mut out = first_offers(a, defs, env, visited)?;
            out.extend(first_offers(b, defs, env, visited)?);
            Some(out)
        }
        // A nested composition's or hiding's first step depends on the
        // whole sub-network; stay conservative.
        Process::Parallel { .. } | Process::Hide { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use csp_lang::{parse_definitions, parse_process};

    #[test]
    fn offers_of_prefix_choice_and_stop() {
        let d = Definitions::new();
        let env = Env::new();
        let p = parse_process("STOP").unwrap();
        assert_eq!(initial_offers(&p, &d, &env), Some(Vec::new()));

        let p = parse_process("a!1 -> STOP | b?x:{2,3} -> STOP").unwrap();
        let offers = initial_offers(&p, &d, &env).unwrap();
        assert_eq!(offers.len(), 2);
        assert_eq!(offers[0].chan, Channel::simple("a"));
        assert_eq!(offers[0].values, Some(BTreeSet::from([Value::nat(1)])));
        assert_eq!(
            offers[1].values,
            Some(BTreeSet::from([Value::nat(2), Value::nat(3)]))
        );
    }

    #[test]
    fn offers_unfold_calls_and_bail_on_unguarded() {
        let d = parse_definitions("p = a!1 -> p").unwrap();
        let env = Env::new();
        let offers = initial_offers(&Process::call("p"), &d, &env).unwrap();
        assert_eq!(offers.len(), 1);

        let d = parse_definitions("p = p").unwrap();
        assert_eq!(initial_offers(&Process::call("p"), &d, &env), None);
    }

    #[test]
    fn offers_unknown_for_nested_compositions() {
        let d = Definitions::new();
        let p = parse_process("a!1 -> STOP || a?x:NAT -> STOP").unwrap();
        assert_eq!(initial_offers(&p, &d, &Env::new()), None);
        let p = parse_process("chan a; a!1 -> STOP").unwrap();
        assert_eq!(initial_offers(&p, &d, &Env::new()), None);
    }

    #[test]
    fn offer_compatibility() {
        let known = |c: &str, vs: &[u32]| Offer {
            chan: Channel::simple(c),
            values: Some(vs.iter().map(|&n| Value::nat(n)).collect()),
        };
        let unknown = |c: &str| Offer {
            chan: Channel::simple(c),
            values: None,
        };
        assert!(known("a", &[1, 2]).compatible(&known("a", &[2])));
        assert!(!known("a", &[1]).compatible(&known("a", &[2])));
        assert!(!known("a", &[1]).compatible(&known("b", &[1])));
        assert!(known("a", &[1]).compatible(&unknown("a")));
        assert!(unknown("a").compatible(&unknown("a")));
    }
}
