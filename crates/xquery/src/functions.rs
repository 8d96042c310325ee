//! The builtin function library (`fn:` namespace, callable unprefixed) and
//! the `xs:` constructor functions.
//!
//! Divergences from F&O, documented per DESIGN.md: `fn:replace` and
//! `fn:tokenize` take literal (non-regex) patterns; `fn:matches` is
//! substring containment. The paper's listings use none of these.

use crate::context::DynamicContext;
use crate::error::{Error, Result};
use crate::semantics::{cast, Focus};
use crate::value::{Atomic, Item, Sequence};
use std::cmp::Ordering;

/// Dispatch an unprefixed (default `fn:` namespace) function call. Takes
/// the dynamic context (not an evaluator) so the plan evaluator and the
/// reference interpreter of the differential tests share one dispatch
/// table.
pub fn call_builtin(
    dctx: &DynamicContext,
    name: &str,
    args: Vec<Sequence>,
    focus: Option<&Focus>,
) -> Result<Sequence> {
    let arity = args.len();
    let wrong_arity = |expected: &'static str| Err(Error::arity(name, expected, arity));

    // Helper: the implicit context-item argument for 0-arity string funcs.
    let ctx_arg = |focus: Option<&Focus>| -> Result<Sequence> {
        match focus {
            Some(f) => Ok(Sequence::one(f.item.clone())),
            None => Err(Error::dynamic(format!(
                "fn:{name}() requires a context item"
            ))),
        }
    };
    let arg_or_ctx = |args: &[Sequence], focus: Option<&Focus>| -> Result<Sequence> {
        match args.first() {
            Some(a) => Ok(a.clone()),
            None => ctx_arg(focus),
        }
    };

    match name {
        // ---- boolean ---------------------------------------------------------
        "true" => Ok(Sequence::bool(true)),
        "false" => Ok(Sequence::bool(false)),
        "not" if arity == 1 => Ok(Sequence::bool(!args[0].effective_boolean()?)),
        "boolean" if arity == 1 => Ok(Sequence::bool(args[0].effective_boolean()?)),
        "exists" if arity == 1 => Ok(Sequence::bool(!args[0].is_empty())),
        "empty" if arity == 1 => Ok(Sequence::bool(args[0].is_empty())),
        "not" | "boolean" | "exists" | "empty" => wrong_arity("1"),

        // ---- numeric ----------------------------------------------------------
        "count" if arity == 1 => Ok(Sequence::int(args[0].len() as i64)),
        "count" => wrong_arity("1"),
        "number" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            let d = match v.as_slice() {
                [] => f64::NAN,
                [item] => item.atomize().to_double(),
                _ => f64::NAN,
            };
            Ok(Sequence::one(Atomic::Double(d)))
        }
        "sum" if (1..=2).contains(&arity) => {
            if args[0].is_empty() {
                return Ok(match args.get(1) {
                    Some(zero) => zero.clone(),
                    None => Sequence::int(0),
                });
            }
            numeric_fold(&args[0], name)
        }
        "avg" if arity == 1 => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let sum = numeric_fold(&args[0], "sum")?;
            let total = sum.exactly_one()?.atomize().to_double();
            Ok(Sequence::one(Atomic::Double(total / args[0].len() as f64)))
        }
        "min" | "max" if arity == 1 => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let atoms = args[0].atomized();
            let mut best = atoms[0].clone();
            for a in &atoms[1..] {
                let ord = a.value_cmp(&best).ok_or_else(|| {
                    Error::type_error(format!("fn:{name} over incomparable values"))
                })?;
                let better = if name == "min" {
                    ord == Ordering::Less
                } else {
                    ord == Ordering::Greater
                };
                if better {
                    best = a.clone();
                }
            }
            Ok(Sequence::one(best))
        }
        "abs" | "floor" | "ceiling" | "round" if arity == 1 => {
            if args[0].is_empty() {
                return Ok(Sequence::empty());
            }
            let a = args[0].exactly_one()?.atomize();
            if let Atomic::Int(i) = a {
                return Ok(Sequence::int(if name == "abs" { i.abs() } else { i }));
            }
            let d = a.to_double();
            let r = match name {
                "abs" => d.abs(),
                "floor" => d.floor(),
                "ceiling" => d.ceil(),
                _ => (d + 0.5).floor(), // XPath round: half away from zero (pos)
            };
            Ok(Sequence::one(Atomic::Double(r)))
        }

        // ---- strings ------------------------------------------------------------
        "string" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            Ok(Sequence::str(v.string_value()?))
        }
        "concat" if arity >= 2 => {
            let mut out = String::new();
            for a in &args {
                out.push_str(&a.string_value()?);
            }
            Ok(Sequence::str(out))
        }
        "concat" => wrong_arity("2+"),
        "string-join" if (1..=2).contains(&arity) => {
            let sep = match args.get(1) {
                Some(s) => s.string_value()?,
                None => String::new(),
            };
            let parts: Vec<String> = args[0].iter().map(Item::string_value).collect();
            Ok(Sequence::str(parts.join(&sep)))
        }
        "substring" if (2..=3).contains(&arity) => {
            let s = args[0].string_value()?;
            let chars: Vec<char> = s.chars().collect();
            let start = args[1].exactly_one()?.atomize().to_double();
            let len = match args.get(2) {
                Some(l) => l.exactly_one()?.atomize().to_double(),
                None => f64::INFINITY,
            };
            // XPath substring semantics with rounding.
            let from = (start.round() - 1.0).max(0.0) as usize;
            let to = if len.is_infinite() {
                chars.len()
            } else {
                ((start.round() - 1.0 + len.round()).max(0.0) as usize).min(chars.len())
            };
            let out: String = if from >= to {
                String::new()
            } else {
                chars[from..to].iter().collect()
            };
            Ok(Sequence::str(out))
        }
        "string-length" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            Ok(Sequence::int(v.string_value()?.chars().count() as i64))
        }
        "contains" if arity == 2 => Ok(Sequence::bool(
            args[0].string_value()?.contains(&args[1].string_value()?),
        )),
        "matches" if arity == 2 => {
            // Divergence: literal containment, not regex (see module docs).
            Ok(Sequence::bool(
                args[0].string_value()?.contains(&args[1].string_value()?),
            ))
        }
        "starts-with" if arity == 2 => Ok(Sequence::bool(
            args[0]
                .string_value()?
                .starts_with(&args[1].string_value()?),
        )),
        "ends-with" if arity == 2 => Ok(Sequence::bool(
            args[0].string_value()?.ends_with(&args[1].string_value()?),
        )),
        "substring-before" if arity == 2 => {
            let s = args[0].string_value()?;
            let p = args[1].string_value()?;
            Ok(Sequence::str(
                s.split_once(&p)
                    .map(|(a, _)| a.to_string())
                    .unwrap_or_default(),
            ))
        }
        "substring-after" if arity == 2 => {
            let s = args[0].string_value()?;
            let p = args[1].string_value()?;
            Ok(Sequence::str(
                s.split_once(&p)
                    .map(|(_, b)| b.to_string())
                    .unwrap_or_default(),
            ))
        }
        "upper-case" if arity == 1 => Ok(Sequence::str(args[0].string_value()?.to_uppercase())),
        "lower-case" if arity == 1 => Ok(Sequence::str(args[0].string_value()?.to_lowercase())),
        "normalize-space" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            let s = v.string_value()?;
            Ok(Sequence::str(
                s.split_whitespace().collect::<Vec<_>>().join(" "),
            ))
        }
        "translate" if arity == 3 => {
            let s = args[0].string_value()?;
            let from: Vec<char> = args[1].string_value()?.chars().collect();
            let to: Vec<char> = args[2].string_value()?.chars().collect();
            let out: String = s
                .chars()
                .filter_map(|c| match from.iter().position(|&f| f == c) {
                    Some(i) => to.get(i).copied(),
                    None => Some(c),
                })
                .collect();
            Ok(Sequence::str(out))
        }
        "tokenize" if arity == 2 => {
            // Divergence: separator is a literal string, not a regex.
            let s = args[0].string_value()?;
            let sep = args[1].string_value()?;
            if sep.is_empty() {
                return Err(Error::dynamic("fn:tokenize separator must be non-empty"));
            }
            Ok(s.split(&sep as &str)
                .map(|p| Item::Atomic(Atomic::Str(p.to_string())))
                .collect())
        }
        "replace" if arity == 3 => {
            // Divergence: literal find/replace, not regex.
            let s = args[0].string_value()?;
            let find = args[1].string_value()?;
            let with = args[2].string_value()?;
            if find.is_empty() {
                return Err(Error::dynamic("fn:replace pattern must be non-empty"));
            }
            Ok(Sequence::str(s.replace(&find, &with)))
        }

        // ---- sequences -------------------------------------------------------------
        "position" if arity == 0 => match focus {
            Some(f) => Ok(Sequence::int(f.pos as i64)),
            None => Err(Error::dynamic("fn:position() requires a context")),
        },
        "last" if arity == 0 => match focus {
            Some(f) => Ok(Sequence::int(f.size as i64)),
            None => Err(Error::dynamic("fn:last() requires a context")),
        },
        "data" if arity == 1 => Ok(args[0].atomized().into_iter().map(Item::Atomic).collect()),
        "distinct-values" if arity == 1 => {
            let mut out: Vec<Atomic> = Vec::new();
            for a in args[0].atomized() {
                if !out.iter().any(|x| x.value_cmp(&a) == Some(Ordering::Equal)) {
                    out.push(a);
                }
            }
            Ok(out.into_iter().map(Item::Atomic).collect())
        }
        "reverse" if arity == 1 => {
            let mut v = args[0].as_slice().to_vec();
            v.reverse();
            Ok(v.into())
        }
        "subsequence" if (2..=3).contains(&arity) => {
            let start = args[1].exactly_one()?.atomize().to_double().round();
            let len = match args.get(2) {
                Some(l) => l.exactly_one()?.atomize().to_double().round(),
                None => f64::INFINITY,
            };
            Ok(args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| {
                    let p = (*i + 1) as f64;
                    p >= start && p < start + len
                })
                .map(|(_, x)| x.clone())
                .collect())
        }
        "insert-before" if arity == 3 => {
            let pos = (args[1].exactly_one()?.atomize().cast_integer()?.max(1) as usize)
                .min(args[0].len() + 1);
            let mut v = args[0].as_slice().to_vec();
            let tail = v.split_off(pos - 1);
            v.extend_from_slice(args[2].as_slice());
            v.extend(tail);
            Ok(v.into())
        }
        "remove" if arity == 2 => {
            let pos = args[1].exactly_one()?.atomize().cast_integer()?;
            Ok(args[0]
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i + 1) as i64 != pos)
                .map(|(_, x)| x.clone())
                .collect())
        }
        "index-of" if arity == 2 => {
            let probe = args[1].exactly_one()?.atomize();
            Ok(args[0]
                .atomized()
                .into_iter()
                .enumerate()
                .filter(|(_, a)| a.value_cmp(&probe) == Some(Ordering::Equal))
                .map(|(i, _)| Item::Atomic(Atomic::Int(i as i64 + 1)))
                .collect())
        }
        "head" if arity == 1 => Ok(args[0].iter().take(1).cloned().collect()),
        "tail" if arity == 1 => Ok(args[0].iter().skip(1).cloned().collect()),
        "zero-or-one" if arity == 1 => {
            if args[0].len() <= 1 {
                Ok(args[0].clone())
            } else {
                Err(Error::type_error("fn:zero-or-one got more than one item"))
            }
        }
        "one-or-more" if arity == 1 => {
            if args[0].is_empty() {
                Err(Error::type_error("fn:one-or-more got an empty sequence"))
            } else {
                Ok(args[0].clone())
            }
        }
        "exactly-one" if arity == 1 => {
            if args[0].len() == 1 {
                Ok(args[0].clone())
            } else {
                Err(Error::type_error("fn:exactly-one needs exactly one item"))
            }
        }
        "deep-equal" if arity == 2 => {
            if args[0].len() != args[1].len() {
                return Ok(Sequence::bool(false));
            }
            let eq = args[0]
                .iter()
                .zip(args[1].iter())
                .all(|(a, b)| match (a, b) {
                    (Item::Node(x), Item::Node(y)) => x.deep_equal(y),
                    (Item::Atomic(x), Item::Atomic(y)) => x.value_cmp(y) == Some(Ordering::Equal),
                    _ => false,
                });
            Ok(Sequence::bool(eq))
        }

        // ---- nodes --------------------------------------------------------------
        "name" | "local-name" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            let s = match v.iter().next() {
                Some(Item::Node(n)) => match n.name() {
                    Some(q) => {
                        if name == "name" {
                            q.lexical()
                        } else {
                            q.local.clone()
                        }
                    }
                    None => String::new(),
                },
                Some(Item::Atomic(_)) => {
                    return Err(Error::type_error(format!("fn:{name} on an atomic value")))
                }
                None => String::new(),
            };
            Ok(Sequence::str(s))
        }
        "root" if arity <= 1 => {
            let v = arg_or_ctx(&args, focus)?;
            match v.iter().next() {
                Some(Item::Node(n)) => Ok(Sequence::one(n.doc.root())),
                Some(Item::Atomic(_)) => Err(Error::type_error("fn:root on an atomic value")),
                None => Ok(Sequence::empty()),
            }
        }

        // ---- environment ------------------------------------------------------------
        "collection" if arity == 1 => {
            let n = args[0].string_value()?;
            dctx.host.collection(&n)
        }
        "doc" if arity == 1 => {
            let u = args[0].string_value()?;
            dctx.host.doc(&u)
        }
        "current-dateTime" if arity == 0 => Ok(Sequence::one(Atomic::DateTime(
            dctx.host.current_date_time_ms(),
        ))),

        other => Err(Error::unknown_function(format!(
            "unknown function fn:{other}#{arity}"
        ))),
    }
}

fn numeric_fold(seq: &Sequence, name: &str) -> Result<Sequence> {
    let atoms = seq.atomized();
    let all_int = atoms.iter().all(|a| matches!(a, Atomic::Int(_)));
    if all_int {
        let mut acc: i64 = 0;
        for a in &atoms {
            acc = acc
                .checked_add(a.cast_integer()?)
                .ok_or_else(|| Error::dynamic("integer overflow in fn:sum"))?;
        }
        return Ok(Sequence::int(acc));
    }
    let mut acc = 0.0;
    for a in &atoms {
        let d = a.to_double();
        if d.is_nan() {
            return Err(Error::type_error(format!(
                "fn:{name} over non-numeric values"
            )));
        }
        acc += d;
    }
    Ok(Sequence::one(Atomic::Double(acc)))
}

/// `xs:` constructor functions: `xs:integer("42")`, `xs:boolean(1)`, ….
pub fn call_constructor(local: &str, args: Vec<Sequence>) -> Result<Sequence> {
    if args.len() != 1 {
        return Err(Error::arity(&format!("xs:{local}"), "1", args.len()));
    }
    if args[0].is_empty() {
        return Ok(Sequence::empty());
    }
    let a = args[0].exactly_one()?.atomize();
    Ok(Sequence::one(cast(a, &format!("xs:{local}"))?))
}

#[cfg(test)]
mod tests {
    use crate::eval_query;
    use crate::value::format_double;

    fn q(query: &str) -> String {
        let doc = demaq_xml::parse("<root/>").unwrap();
        eval_query(query, &doc.root()).unwrap().to_string()
    }

    fn q_err(query: &str) -> bool {
        let doc = demaq_xml::parse("<root/>").unwrap();
        eval_query(query, &doc.root()).is_err()
    }

    #[test]
    fn boolean_functions() {
        assert_eq!(q("not(true())"), "false");
        assert_eq!(q("boolean('x')"), "true");
        assert_eq!(q("exists(())"), "false");
        assert_eq!(q("empty(())"), "true");
        assert_eq!(q("exists((1,2))"), "true");
    }

    #[test]
    fn numeric_functions() {
        assert_eq!(q("count((1,2,3))"), "3");
        assert_eq!(q("sum((1,2,3))"), "6");
        assert_eq!(q("sum(())"), "0");
        assert_eq!(q("avg((2,4))"), "3");
        assert_eq!(q("min((3,1,2))"), "1");
        assert_eq!(q("max(('a','c','b'))"), "c");
        assert_eq!(q("abs(-4)"), "4");
        assert_eq!(q("floor(3.7)"), "3");
        assert_eq!(q("ceiling(3.2)"), "4");
        assert_eq!(q("round(2.5)"), "3");
        assert_eq!(q("number('5.5')"), "5.5");
        assert_eq!(q("string(number('zzz'))"), "NaN");
    }

    #[test]
    fn string_functions() {
        assert_eq!(q("concat('a','b','c')"), "abc");
        assert_eq!(q("string-join(('a','b'), '-')"), "a-b");
        assert_eq!(q("substring('hello', 2)"), "ello");
        assert_eq!(q("substring('hello', 2, 3)"), "ell");
        assert_eq!(q("string-length('grüße')"), "5");
        assert_eq!(q("contains('haystack', 'stack')"), "true");
        assert_eq!(q("starts-with('abc','ab')"), "true");
        assert_eq!(q("ends-with('abc','bc')"), "true");
        assert_eq!(q("substring-before('a=b','=')"), "a");
        assert_eq!(q("substring-after('a=b','=')"), "b");
        assert_eq!(q("upper-case('abc')"), "ABC");
        assert_eq!(q("lower-case('ABC')"), "abc");
        assert_eq!(q("normalize-space('  a   b ')"), "a b");
        assert_eq!(q("translate('abcabc','ab','BA')"), "BAcBAc");
        assert_eq!(q("translate('abc','b','')"), "ac");
        assert_eq!(q("string-join(tokenize('a,b,c', ','), '|')"), "a|b|c");
        assert_eq!(q("replace('aXbXc','X','-')"), "a-b-c");
    }

    #[test]
    fn sequence_functions() {
        assert_eq!(q("string-join(distinct-values(('a','b','a')), ',')"), "a,b");
        assert_eq!(q("string-join(reverse(('1','2','3')), '')"), "321");
        assert_eq!(
            q("string-join(subsequence(('a','b','c','d'), 2, 2), '')"),
            "bc"
        );
        assert_eq!(
            q("string-join(insert-before(('a','c'), 2, 'b'), '')"),
            "abc"
        );
        assert_eq!(q("string-join(remove(('a','b','c'), 2), '')"), "ac");
        assert_eq!(q("index-of((10, 20, 10), 10)"), "1 3");
        assert_eq!(q("head((7,8,9))"), "7");
        assert_eq!(q("string-join(tail(('a','b','c')), '')"), "bc");
        assert!(q_err("exactly-one((1,2))"));
        assert!(q_err("zero-or-one((1,2))"));
        assert!(q_err("one-or-more(())"));
        assert_eq!(q("deep-equal((1,2),(1,2))"), "true");
    }

    #[test]
    fn xs_constructors() {
        assert_eq!(q("xs:integer('42') + 1"), "43");
        assert_eq!(q("xs:boolean('1')"), "true");
        assert_eq!(q("xs:string(3.5)"), "3.5");
        assert_eq!(q("string(xs:double('2'))"), "2");
        assert!(q_err("xs:integer('nope')"));
    }

    /// Text that is no number fails an `xs:double`/`xs:decimal` cast as it
    /// fails `xs:integer` (it used to yield NaN); dates and durations are
    /// not numbers either. Typed properties cast through the same table.
    #[test]
    fn numeric_casts_reject_what_is_no_number() {
        for bad in ["abc", "", "nan", "inf", "1.2.3"] {
            assert!(q_err(&format!("xs:double('{bad}')")), "{bad}");
            assert!(q_err(&format!("xs:decimal('{bad}')")), "{bad}");
            assert!(q_err(&format!("'{bad}' cast as xs:double")), "{bad}");
        }
        assert_eq!(q("xs:double('NaN')"), "NaN");
        assert_eq!(q("xs:double(' INF ')"), "INF");
        assert_eq!(q("xs:double('-INF')"), "-INF");
        assert!(q_err("xs:decimal('INF')"));
        assert!(q_err("xs:decimal('NaN')"));
        assert_eq!(q("xs:double('1e3') + xs:decimal('-2.5')"), "997.5");
        assert_eq!(q("xs:double(true())"), "1");
        assert!(q_err("xs:double(xs:dateTime('2026-01-01T00:00:00Z'))"));
        assert!(q_err("xs:decimal(xs:dayTimeDuration('PT5S'))"));
        assert!(q_err("xs:dateTime(86400000)"));
        assert_eq!(q("number('abc') instance of xs:double"), "true");
    }

    #[test]
    fn unknown_function_is_static_error() {
        assert!(q_err("fn:bogus()"));
        assert!(q_err("qs:message()")); // no host registered here
    }

    #[test]
    fn double_format_is_xpathish() {
        assert_eq!(format_double(2.0), "2");
    }
}
