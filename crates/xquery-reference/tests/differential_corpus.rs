//! Randomized differential testing: a grammar-driven corpus of XQuery
//! expressions evaluated by both the reference AST interpreter
//! ([`demaq_xquery_reference::Evaluator`]) and the lowered-plan evaluator
//! ([`demaq_xquery::PlanEvaluator`]). Results and pending update lists must
//! be item-wise identical (atomics by type and lexical form, nodes by
//! serialization); an error in one evaluator must be an error in the other.
//!
//! The generator is deterministic (seeded xorshift), so failures are
//! reproducible; it tracks variable scope so generated `$v` references are
//! always bound by an enclosing `for`/`let`/quantifier, exercising the
//! slot-resolution path of the lowering. It also generates the updating
//! forms (`do insert/delete/replace/rename`, `do enqueue … with …`) and
//! direct element constructors, alone and as `do enqueue` content: the
//! plan evaluator builds a nested constructor in place and enqueues a
//! fresh one without a copy, the reference assembles each element on its
//! own and copies it.

use demaq_xml::NodeRef;
use demaq_xquery::{lower, parse_expr, DynamicContext, Error, Expr, Item, PlanEvaluator, Sequence};
use demaq_xquery_reference::{render_updates, Evaluator};

/// Minimal deterministic PRNG (xorshift64*) — no external dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Random expression generator over the evaluated fragment. `scope` holds
/// the variable names currently bound by enclosing binders.
struct Gen {
    rng: Rng,
    scope: Vec<String>,
    next_var: usize,
}

impl Gen {
    fn new(seed: u64) -> Gen {
        Gen {
            rng: Rng(seed | 1),
            scope: Vec::new(),
            next_var: 0,
        }
    }

    fn fresh_var(&mut self) -> String {
        let v = format!("v{}", self.next_var);
        self.next_var += 1;
        v
    }

    fn atom(&mut self) -> String {
        let choices = 12;
        match self.rng.below(choices) {
            0 => format!("{}", self.rng.below(20)),
            1 => format!("-{}", 1 + self.rng.below(9)),
            2 => format!("{}.{}", self.rng.below(9), 1 + self.rng.below(9)),
            3 => format!("\"s{}\"", self.rng.below(5)),
            4 => "()".into(),
            5 => "true()".into(),
            6 => "false()".into(),
            7 => ".".into(),
            8 => "//item".into(),
            9 => "//item/@n".into(),
            10 => "/order/total".into(),
            _ => match self.scope.len() {
                0 => "//item/text()".into(),
                n => format!("${}", self.scope[self.rng.below(n)]),
            },
        }
    }

    fn expr(&mut self, depth: usize) -> String {
        if depth == 0 {
            return self.atom();
        }
        match self.rng.below(20) {
            0 => {
                let op = ["+", "-", "*", "div", "idiv", "mod"][self.rng.below(6)];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
            1 => {
                let op = ["=", "!=", "<", "<=", ">", ">="][self.rng.below(6)];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
            2 => {
                let op = ["eq", "ne", "lt", "le", "gt", "ge"][self.rng.below(6)];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
            3 => {
                let op = ["and", "or"][self.rng.below(2)];
                format!("({} {op} {})", self.expr(depth - 1), self.expr(depth - 1))
            }
            4 => format!("({}, {})", self.expr(depth - 1), self.expr(depth - 1)),
            5 => format!("({} to {})", self.rng.below(6), self.rng.below(8)),
            6 => format!(
                "(if ({}) then {} else {})",
                self.expr(depth - 1),
                self.expr(depth - 1),
                self.expr(depth - 1)
            ),
            7 => {
                let v = self.fresh_var();
                let src = self.expr(depth - 1);
                self.scope.push(v.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("(for ${v} in {src} return {body})")
            }
            8 => {
                let v = self.fresh_var();
                let val = self.expr(depth - 1);
                self.scope.push(v.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("(let ${v} := {val} return {body})")
            }
            9 => {
                let v = self.fresh_var();
                let src = self.expr(depth - 1);
                let q = ["some", "every"][self.rng.below(2)];
                self.scope.push(v.clone());
                let cond = self.expr(depth - 1);
                self.scope.pop();
                format!("({q} ${v} in {src} satisfies {cond})")
            }
            10 => {
                let v = self.fresh_var();
                let src = self.expr(depth - 1);
                let key = ["$", "-$"][self.rng.below(2)];
                let dir = ["ascending", "descending"][self.rng.below(2)];
                self.scope.push(v.clone());
                let body = self.expr(depth - 1);
                self.scope.pop();
                format!("(for ${v} in {src} order by {key}{v} {dir} return {body})")
            }
            11 => {
                let f = ["count", "string", "not", "exists", "empty", "string-length"]
                    [self.rng.below(6)];
                format!("{f}({})", self.expr(depth - 1))
            }
            12 => format!("concat({}, {})", self.expr(depth - 1), self.expr(depth - 1)),
            13 => format!("//item[{}]", self.expr(depth - 1)),
            14 => format!("(//item/{})", ["@n", "text()", "*"][self.rng.below(3)]),
            15 => self.update(depth - 1),
            16 => format!(
                "(do enqueue {} into q{} with p value {})",
                self.expr(depth - 1),
                self.rng.below(3),
                self.expr(depth - 1)
            ),
            17 => self.constructor(depth - 1),
            18 => format!(
                "(do enqueue {} into q{})",
                self.constructor(depth - 1),
                self.rng.below(3)
            ),
            _ => self.atom(),
        }
    }

    /// A direct element constructor with an attribute, literal text, a
    /// nested element and enclosed expressions in every place.
    fn constructor(&mut self, depth: usize) -> String {
        format!(
            "<e a=\"{{{}}}\">text{{{}}}<f>{{{}}}</f>{{{}}}</e>",
            self.expr(depth),
            self.expr(depth),
            self.expr(depth),
            self.expr(depth)
        )
    }

    /// An XQUF primitive on the context document or a constructed tree.
    fn update(&mut self, depth: usize) -> String {
        let targets = [
            "//item[1]",
            "/order/total",
            "//item",
            "//item/@n",
            "(<t><u/></t>)/u",
            ".",
        ];
        let target = targets[self.rng.below(targets.len())];
        match self.rng.below(5) {
            0 => format!("(do delete {target})"),
            1 => {
                let pos =
                    ["into", "as first into", "as last into", "before", "after"][self.rng.below(5)];
                format!("(do insert {} {pos} {target})", self.expr(depth))
            }
            2 => format!("(do replace {target} with {})", self.expr(depth)),
            3 => format!("(do replace value of {target} with {})", self.expr(depth)),
            _ => format!("(do rename {target} as 'r{}')", self.rng.below(3)),
        }
    }
}

/// Canonical rendering for comparison: atomics by `type:lexical`, nodes by
/// serialization.
fn canon(s: &Sequence) -> Vec<String> {
    s.iter()
        .map(|i| match i {
            Item::Atomic(a) => format!("{}:{}", a.type_name(), a.to_str()),
            Item::Node(n) => demaq_xml::serializer::serialize_node(n),
        })
        .collect()
}

/// What one evaluator made of an expression: its value and its pending
/// update list, both canonical, or its error.
type Outcome = Result<(Vec<String>, Vec<String>), Error>;

/// The reference's outcome, then the lowered plan's.
fn both(expr: &Expr, ctx: &NodeRef) -> (Outcome, Outcome) {
    let dctx = DynamicContext::default();
    let mut ev = Evaluator::new(&dctx);
    let reference = ev
        .eval_with_context(expr, ctx.clone())
        .map(|v| (canon(&v), render_updates(&ev.updates)));
    let mut pv = PlanEvaluator::new(&dctx);
    let lowered = pv
        .eval_with_context(&lower(expr), ctx.clone())
        .map(|v| (canon(&v), render_updates(&pv.updates)));
    (reference, lowered)
}

fn order_doc() -> std::sync::Arc<demaq_xml::Document> {
    demaq_xml::parse(
        "<order status='open'><item n='1'>widget</item>\
         <item n='2'>gadget</item><item n='3'/>\
         <total>42</total></order>",
    )
    .unwrap()
}

#[test]
fn random_corpus_agrees_with_reference() {
    let doc = order_doc();
    let ctx = doc.root();

    let mut gen = Gen::new(0x5eed_2026);
    let mut evaluated = 0u32;
    let mut errored = 0u32;
    let mut updating = 0u32;
    let mut constructed = 0u32;
    for i in 0..600 {
        let query = gen.expr(3);
        // The corpus must stay within the parsed fragment: a parse failure
        // here is a generator bug, not an engine divergence.
        let expr = match parse_expr(&query) {
            Ok(e) => e,
            Err(e) => panic!("corpus item {i} failed to parse: `{query}`: {e}"),
        };

        let (reference, lowered) = both(&expr, &ctx);
        match (&reference, &lowered) {
            (Ok(a), Ok(b)) => {
                evaluated += 1;
                updating += !a.1.is_empty() as u32;
                let built = |s: &String| s.contains("<e a=");
                constructed += (a.0.iter().any(built) || a.1.iter().any(built)) as u32;
                assert_eq!(a, b, "divergence on corpus item {i}: `{query}`");
            }
            (Err(_), Err(_)) => errored += 1,
            _ => panic!(
                "error divergence on corpus item {i}: `{query}`\n  reference: {reference:?}\n  lowered: {lowered:?}"
            ),
        }
    }
    // The grammar should produce a healthy mix of successes and dynamic
    // errors; if either side collapses the corpus lost its teeth.
    assert!(evaluated > 200, "only {evaluated} expressions evaluated Ok");
    assert!(errored > 20, "only {errored} expressions raised errors");
    assert!(
        updating > 20,
        "only {updating} expressions left pending updates"
    );
    assert!(
        constructed > 20,
        "only {constructed} expressions constructed an element"
    );
}

/// Hand-picked shapes: each lowering (slots, folding, `Exists`, positional
/// predicates, sorting) on a small order, and the errors they must keep.
#[test]
fn handpicked_queries_agree_with_reference() {
    let doc = order_doc();
    for query in [
        "//item",
        "//item/@n",
        "/order/item[1]",
        "/order/item[1]/@n",
        "/order/item[@n = '2']",
        "count(//item)",
        "if (//total) then 'y' else 'n'",
        "if (//missing) then 'y' else 'n'",
        "for $i in //item return string($i)",
        "for $i at $p in //item order by $p descending return $i/@n",
        "for $i in //item where $i/@n = '1' return $i",
        "let $t := //total return $t + 0",
        "some $i in //item satisfies $i = 'widget'",
        "every $i in //item satisfies $i = 'widget'",
        "//item union //total",
        "//item intersect //item[1]",
        "//item except //item[1]",
        "1 + 2 * 3",
        "(1, 2) = (2, 3)",
        "-(//total)",
        "'a' , 'b'",
        "1 to 3",
        "//total cast as xs:integer",
        "string-join((for $i in //item return string($i)), ',')",
        "1 div 0",
        "$undefined",
        "(//item)/(1 div 0)",
        "('a','b') + 1",
        "<e a=\"{//item/@n}\">text{1, 2}<f>{//item[1]}</f>{'x', 3}</e>",
        "<e><f><g n='{count(//item)}'>{//total/text()}</g></f>x<h/></e>",
        "<e>{attribute b {1}}x</e>",
        "<e>x{attribute b {1}}</e>",
        "<e><f/>{//item/@n}</e>",
        "do enqueue <e a='1'>t<f>{//total}</f></e> into q",
        "let $x := <e/> return (do enqueue $x into q, do enqueue $x into q)",
        "do enqueue (<e/>, <f/>) into q",
        "do enqueue //item[1] into q",
        "do enqueue . into q",
    ] {
        match both(&parse_expr(query).unwrap(), &doc.root()) {
            (Ok(a), Ok(b)) => assert_eq!(a, b, "divergence on `{query}`"),
            (Err(_), Err(_)) => {}
            (r, l) => panic!("divergence on `{query}`: ref={r:?} plan={l:?}"),
        }
    }
}

/// The scope discipline above never leaves a generated variable unbound;
/// genuinely-free variables must still fail identically in both
/// evaluators (the lowering keeps them as by-name dynamic lookups).
#[test]
fn free_variables_fail_identically() {
    let doc = demaq_xml::parse("<r/>").unwrap();
    for query in ["$missing", "1 + $gone", "for $x in 1 to 3 return $y"] {
        let (reference, lowered) = both(&parse_expr(query).unwrap(), &doc.root());
        let (re, le) = (reference.unwrap_err(), lowered.unwrap_err());
        assert_eq!(re.to_string(), le.to_string(), "on `{query}`");
    }
}
