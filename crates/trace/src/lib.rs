//! # csp-trace
//!
//! Trace substrate for the Zhou & Hoare (1981) model of Communicating
//! Sequential Processes, *Partial Correctness of Communicating Sequential
//! Processes*.
//!
//! In the paper a process is identified with the set of all possible
//! *traces* of its communications: a communication is a pair `c.m` of a
//! channel name `c` and a message value `m` (§1.0), a trace is a finite
//! sequence of communications, and the meaning of a process is a
//! *prefix-closed* set of traces (§3.1).
//!
//! This crate provides those ground objects and every operation on them
//! that the paper uses:
//!
//! * [`Value`] — message values (naturals, signals such as `ACK`, tuples),
//! * [`Channel`] — possibly-subscripted channel names such as `col[2]`,
//! * [`Event`] — a communication `c.m`,
//! * [`Trace`] — a finite sequence of events,
//! * [`Seq`] — the generic sequence algebra of §2 (`x^s`, `#s`, `s_i`,
//!   prefix `s ≤ t`, concatenation),
//! * [`History`] — the channel-history map `ch(s)` of §3.3,
//! * [`TraceSet`] — finite prefix-closed trace sets with the operators of
//!   §3.1 (`s\C` restriction, interleaving-based padding, union,
//!   intersection),
//! * [`TraceTree`] — a prefix-closed set listed as a tree, each trace its
//!   parent plus one communication.
//!
//! Everything here is finite and concrete; symbolic/unbounded reasoning
//! lives in the `csp-assert` and `csp-proof` crates.
//!
//! ```
//! use csp_trace::{Channel, Event, Trace, Value};
//!
//! let input = Channel::simple("input");
//! let wire = Channel::simple("wire");
//! let t = Trace::from_events([
//!     Event::new(input.clone(), Value::nat(3)),
//!     Event::new(wire.clone(), Value::nat(3)),
//! ]);
//! assert_eq!(t.to_string(), "<input.3, wire.3>");
//! assert_eq!(t.history().on(&input).len(), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod channel;
mod display;
mod event;
pub mod fx;
pub mod hash;
mod history;
mod interleave;
mod intern;
mod naive;
mod seq;
pub mod stats;
mod trace;
mod traceset;
mod tree;
mod value;

pub use channel::{Channel, ChannelSet};
pub use display::timeline;
pub use event::Event;
pub use fx::{FxHashMap, FxHashSet};
pub use history::History;
pub use interleave::{interleave_pair, Interleavings};
pub use intern::interned_events;
pub use naive::NaiveTraceSet;
pub use seq::Seq;
pub use stats::OpStats;
pub use trace::Trace;
pub use traceset::TraceSet;
pub use tree::TraceTree;
pub use value::Value;
