//! Property-based tests for XQuery evaluation invariants.

use demaq_xquery::value::{format_date_time, format_duration, parse_date_time, parse_duration};
use demaq_xquery::{eval_query, parse_expr, Atomic, Sequence};
use proptest::prelude::*;

fn ctx() -> demaq_xml::NodeRef {
    demaq_xml::parse("<x/>").unwrap().root()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    // ---- temporal codecs ---------------------------------------------------

    #[test]
    fn date_time_roundtrip(ms in -62_000_000_000_000i64..253_000_000_000_000i64) {
        // Any representable instant formats and re-parses to itself.
        let s = format_date_time(ms);
        prop_assert_eq!(parse_date_time(&s), Some(ms), "lexical {}", s);
    }

    #[test]
    fn duration_roundtrip(ms in -10_000_000_000i64..10_000_000_000i64) {
        let s = format_duration(ms);
        prop_assert_eq!(parse_duration(&s), Some(ms), "lexical {}", s);
    }

    // ---- arithmetic --------------------------------------------------------

    #[test]
    fn integer_addition_matches_rust(a in -100_000i64..100_000, b in -100_000i64..100_000) {
        let out = eval_query(&format!("{a} + {b}"), &ctx()).unwrap().to_string();
        prop_assert_eq!(out, (a + b).to_string());
    }

    #[test]
    fn multiplication_and_precedence(a in -500i64..500, b in -500i64..500, c in -500i64..500) {
        let out = eval_query(&format!("{a} + {b} * {c}"), &ctx()).unwrap().to_string();
        prop_assert_eq!(out, (a + b * c).to_string());
    }

    #[test]
    fn idiv_mod_identity(a in -10_000i64..10_000, b in 1i64..500) {
        // a = (a idiv b) * b + (a mod b)
        let out = eval_query(&format!("({a} idiv {b}) * {b} + ({a} mod {b})"), &ctx())
            .unwrap()
            .to_string();
        prop_assert_eq!(out, a.to_string());
    }

    // ---- sequences -----------------------------------------------------------

    #[test]
    fn count_of_range(a in 1i64..500, len in 0i64..500) {
        let b = a + len - 1;
        let out = eval_query(&format!("count({a} to {b})"), &ctx()).unwrap().to_string();
        prop_assert_eq!(out, len.max(0).to_string());
    }

    #[test]
    fn reverse_is_involutive(items in proptest::collection::vec(-1000i64..1000, 0..12)) {
        let lit = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let q = format!("deep-equal(reverse(reverse(({lit}))), ({lit}))");
        prop_assert_eq!(eval_query(&q, &ctx()).unwrap().to_string(), "true");
    }

    #[test]
    fn distinct_values_is_idempotent(items in proptest::collection::vec(0i64..20, 0..16)) {
        let lit = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let q = format!(
            "deep-equal(distinct-values(distinct-values(({lit}))), distinct-values(({lit})))"
        );
        prop_assert_eq!(eval_query(&q, &ctx()).unwrap().to_string(), "true");
        // And matches a Rust-side dedup (order of first occurrence).
        let mut seen = Vec::new();
        for i in &items {
            if !seen.contains(i) {
                seen.push(*i);
            }
        }
        let got = eval_query(&format!("distinct-values(({lit}))"), &ctx()).unwrap().to_string();
        let want = seen.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(" ");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn sum_matches_rust(items in proptest::collection::vec(-10_000i64..10_000, 0..16)) {
        let lit = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let got = eval_query(&format!("sum(({lit}))"), &ctx()).unwrap().to_string();
        prop_assert_eq!(got, items.iter().sum::<i64>().to_string());
    }

    #[test]
    fn flwor_filter_matches_rust(items in proptest::collection::vec(0i64..100, 0..16), limit in 0i64..100) {
        let lit = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let got = eval_query(
            &format!("for $x in ({lit}) where $x < {limit} return $x"),
            &ctx(),
        )
        .unwrap()
        .to_string();
        let want = items
            .iter()
            .filter(|&&x| x < limit)
            .map(|x| x.to_string())
            .collect::<Vec<_>>()
            .join(" ");
        prop_assert_eq!(got, want);
    }

    #[test]
    fn order_by_sorts(items in proptest::collection::vec(-1000i64..1000, 0..16)) {
        let lit = items.iter().map(|i| i.to_string()).collect::<Vec<_>>().join(",");
        let got = eval_query(&format!("for $x in ({lit}) order by $x return $x"), &ctx())
            .unwrap()
            .to_string();
        let mut sorted = items.clone();
        sorted.sort();
        let want = sorted.iter().map(|x| x.to_string()).collect::<Vec<_>>().join(" ");
        prop_assert_eq!(got, want);
    }

    // ---- strings ---------------------------------------------------------------

    #[test]
    fn concat_substring_consistency(a in "[a-z]{0,8}", b in "[a-z]{1,8}") {
        let q = format!("substring(concat('{a}', '{b}'), {})", a.chars().count() + 1);
        let got = eval_query(&q, &ctx()).unwrap().to_string();
        prop_assert_eq!(got, b);
    }

    #[test]
    fn string_length_matches_chars(s in "[a-zA-Z0-9 äöüß]{0,20}") {
        let got = eval_query(&format!("string-length('{s}')"), &ctx()).unwrap().to_string();
        prop_assert_eq!(got, s.chars().count().to_string());
    }

    // ---- paths over generated documents --------------------------------------------

    #[test]
    fn count_descendants_matches(n in 0usize..30) {
        let body: String = (0..n).map(|i| format!("<item n='{i}'/>")).collect();
        let doc = demaq_xml::parse(&format!("<r>{body}</r>")).unwrap();
        let got = eval_query("count(//item)", &doc.root()).unwrap().to_string();
        prop_assert_eq!(got, n.to_string());
        // Positional access agrees with construction order.
        if n > 0 {
            let q = format!("string(//item[{n}]/@n)");
            prop_assert_eq!(eval_query(&q, &doc.root()).unwrap().to_string(), (n - 1).to_string());
        }
    }

    #[test]
    fn general_comparison_is_existential(values in proptest::collection::vec(0i64..50, 1..10), probe in 0i64..50) {
        let body: String = values.iter().map(|v| format!("<v>{v}</v>")).collect();
        let doc = demaq_xml::parse(&format!("<r>{body}</r>")).unwrap();
        let got = eval_query(&format!("//v = {probe}"), &doc.root()).unwrap().to_string();
        prop_assert_eq!(got, values.contains(&probe).to_string());
    }

    // ---- parser robustness ---------------------------------------------------------

    #[test]
    fn parser_never_panics(input in ".{0,80}") {
        let _ = parse_expr(&input);
    }

    #[test]
    fn parser_never_panics_on_token_soup(
        parts in proptest::collection::vec(
            prop_oneof![
                Just("for".to_string()), Just("$x".to_string()), Just("in".to_string()),
                Just("return".to_string()), Just("if".to_string()), Just("then".to_string()),
                Just("else".to_string()), Just("(".to_string()), Just(")".to_string()),
                Just("//a".to_string()), Just("[".to_string()), Just("]".to_string()),
                Just("do enqueue".to_string()), Just("into q".to_string()),
                Just("<a>".to_string()), Just("</a>".to_string()), Just("{".to_string()),
                Just("}".to_string()), Just("1".to_string()), Just("'s'".to_string()),
                Just("+".to_string()), Just("and".to_string()),
            ],
            0..14,
        )
    ) {
        let soup = parts.join(" ");
        if let Ok(expr) = parse_expr(&soup) {
            // Whatever parses must also lower and evaluate or error cleanly.
            let dctx = demaq_xquery::DynamicContext::default();
            let mut ev = demaq_xquery::PlanEvaluator::new(&dctx);
            let _ = ev.eval_with_context(&demaq_xquery::lower(&expr), ctx());
        }
    }

    // ---- EBV / atomics ------------------------------------------------------------------

    #[test]
    fn ebv_of_nonempty_string_is_true(s in "[a-z]{1,10}") {
        prop_assert!(Sequence::one(Atomic::Str(s)).effective_boolean().unwrap());
    }

    #[test]
    fn cast_integer_roundtrip(i in -1_000_000i64..1_000_000) {
        let a = Atomic::Str(i.to_string());
        prop_assert_eq!(a.cast_integer().unwrap(), i);
    }
}
