//! # demaq-xquery
//!
//! A from-scratch XQuery engine for the Demaq reproduction, covering the
//! fragment of XQuery 1.0 that the Demaq rule language (QML) is built on
//! (paper Sec. 3.2):
//!
//! * FLWOR (`for`/`let`/`where`/`order by`/`return`), quantified
//!   expressions, conditionals,
//! * path expressions with predicates over the `demaq-xml` tree,
//! * direct and computed node constructors,
//! * general/value/node comparisons, arithmetic, sequence operations,
//! * a library of `fn:` builtins plus host-registered extension functions
//!   (the engine registers `qs:message()`, `qs:queue()`, `qs:slice()`, …),
//! * *updating expressions* producing pending update lists: the Demaq
//!   queue primitives `do enqueue … into … (with … value …)*` and
//!   `do reset`. Stored messages are immutable, so the XQUF tree updates
//!   (`do insert`, `do delete`, `do replace`, `do rename`) are parse
//!   errors; a rule builds a new element and enqueues it instead.
//!
//! Evaluation is snapshot-semantic: expression evaluation never mutates
//! state; updates accumulate on a pending list applied after evaluation,
//! exactly as the paper's execution model requires.
//!
//! There is one evaluator: a parsed [`Expr`] is [`lower`]ed to a [`Plan`]
//! and run on [`PlanEvaluator`]. The tree-walking reference interpreter it
//! is tested against lives in the dev-only `demaq-xquery-reference` crate.

pub mod aggregate;
pub mod ast;
pub mod context;
pub mod error;
pub mod functions;
pub mod lexer;
pub mod parser;
pub mod plan;
mod semantics;
pub mod share;
pub mod update;
pub mod value;

pub use aggregate::{
    recognize_aggregate, AggAcc, AggCatalog, AggId, AggOp, AggSource, AggregateSpec, Contribution,
};
pub use ast::Expr;
pub use context::{DynamicContext, HostFunctions, NoHost};
pub use error::{Error, Result};
pub use parser::{parse_expr, parse_expr_prefix};
pub use plan::{fold_boolean, lower, lower_in, lower_rules, EvalCounts, Plan, PlanEvaluator};
// Value, constructor and cast semantics, shared with the reference
// interpreter so that it does not re-implement them.
pub use semantics::*;
pub use update::Update;
pub use value::{Atomic, Item, Sequence};

use demaq_xml::NodeRef;

/// One-stop evaluation of a query string against a context node: parse,
/// lower, and run the plan with no host functions.
///
/// ```
/// use demaq_xquery::eval_query;
/// let doc = demaq_xml::parse("<order><id>7</id></order>").unwrap();
/// let seq = eval_query("//id + 1", &doc.root()).unwrap();
/// assert_eq!(seq.to_string(), "8");
/// ```
pub fn eval_query(query: &str, context: &NodeRef) -> Result<Sequence> {
    let plan = lower(&parse_expr(query)?);
    PlanEvaluator::new(&DynamicContext::default()).eval_with_context(&plan, context.clone())
}
