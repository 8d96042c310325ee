//! Machine-readable bench trajectory: schema-versioned JSON reports.
//!
//! Every experiment's representative run distills its headline numbers
//! into `BENCH_E<n>.json` at the repo root, next to EXPERIMENTS.md, so
//! the performance trajectory of the repo is diffable across commits and
//! checkable in CI without scraping criterion output. Only full-mode runs
//! write there; a smoke run's report goes to `target/bench/`, where CI
//! checks it against the committed file. The build is fully
//! offline and dependency-free, so both the writer and the validator
//! (used by the `bench-check` binary and the CI gate) are hand-rolled.
//!
//! Schema `demaq-bench/v1`:
//!
//! ```json
//! {
//!   "schema": "demaq-bench/v1",
//!   "experiment": "e12_sustained_drain",
//!   "mode": "smoke",
//!   "results": [
//!     {"name": "drain_throughput", "value": 12345.6, "unit": "msgs/s"}
//!   ],
//!   "metrics": {"demaq_store_sync_total": 42}
//! }
//! ```
//!
//! Required: `schema` (exactly the version string), `experiment`
//! (`e<digits>_…`), `mode` (`smoke` or `full`), `results` (non-empty,
//! every entry with a non-empty `name`/`unit` and a finite `value`).
//! `metrics` is an optional snapshot of internal counters.

use std::path::{Path, PathBuf};

/// The report schema identifier; bump on breaking shape changes.
pub const SCHEMA: &str = "demaq-bench/v1";

/// One headline measurement of an experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// A bench report accumulating toward one `BENCH_E<n>.json`.
#[derive(Debug, Clone)]
pub struct BenchReport {
    pub experiment: String,
    /// `smoke` (CI-sized) or `full`.
    pub mode: String,
    pub results: Vec<Measurement>,
    /// Selected internal counters, in insertion order.
    pub metrics: Vec<(String, f64)>,
}

impl BenchReport {
    pub fn new(experiment: &str, smoke: bool) -> BenchReport {
        BenchReport {
            experiment: experiment.to_string(),
            mode: if smoke { "smoke" } else { "full" }.to_string(),
            results: Vec::new(),
            metrics: Vec::new(),
        }
    }

    /// Add one headline measurement.
    pub fn result(&mut self, name: &str, value: f64, unit: &str) -> &mut Self {
        self.results.push(Measurement {
            name: name.to_string(),
            value,
            unit: unit.to_string(),
        });
        self
    }

    /// Snapshot one unlabeled counter/gauge from a Prometheus exposition
    /// (absent metrics record as 0 so the trajectory stays comparable).
    pub fn metric_from(&mut self, prom_text: &str, name: &str) -> &mut Self {
        self.metrics
            .push((name.to_string(), prom_value(prom_text, name)));
        self
    }

    /// The file this report lands in: `BENCH_E<n>.json`, with `<n>` taken
    /// from the experiment's `e<digits>` prefix.
    pub fn file_name(&self) -> String {
        let digits: String = self
            .experiment
            .strip_prefix('e')
            .unwrap_or(&self.experiment)
            .chars()
            .take_while(|c| c.is_ascii_digit())
            .collect();
        format!("BENCH_E{digits}.json")
    }

    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\n  \"schema\": {},\n  \"experiment\": {},\n  \"mode\": {},\n  \"results\": [",
            json_str(SCHEMA),
            json_str(&self.experiment),
            json_str(&self.mode)
        );
        for (i, m) in self.results.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": {}, \"value\": {}, \"unit\": {}}}",
                json_str(&m.name),
                json_num(m.value),
                json_str(&m.unit)
            ));
        }
        out.push_str("\n  ],\n  \"metrics\": {");
        for (i, (k, v)) in self.metrics.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("\n    {}: {}", json_str(k), json_num(*v)));
        }
        out.push_str("\n  }\n}\n");
        out
    }

    /// Where [`Self::write`] puts the report: the repo root for a full-mode
    /// run (the committed trajectory), `target/bench/` for a smoke run, so
    /// CI never rewrites a committed file.
    pub fn path(&self) -> PathBuf {
        let dir = if self.mode == "full" {
            repo_root()
        } else {
            repo_root().join("target/bench")
        };
        dir.join(self.file_name())
    }

    /// Write the report to [`Self::path`]; returns the path. Benches must
    /// never fail on snapshot IO, so errors are printed and swallowed.
    pub fn write(&self) -> Option<PathBuf> {
        let path = self.path();
        let written = std::fs::create_dir_all(path.parent().expect("report directory"))
            .and_then(|()| std::fs::write(&path, self.to_json()));
        match written {
            Ok(()) => {
                println!("{}: wrote {}", self.experiment, path.display());
                Some(path)
            }
            Err(e) => {
                eprintln!("{}: cannot write {}: {e}", self.experiment, path.display());
                None
            }
        }
    }
}

/// The repository root. Cargo runs benches with the *package* directory
/// as CWD, so resolve from the manifest dir instead.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("../..")
}

/// Read one unlabeled counter/gauge value from a Prometheus exposition.
pub fn prom_value(text: &str, name: &str) -> f64 {
    text.lines()
        .find(|l| l.starts_with(name) && l.as_bytes().get(name.len()) == Some(&b' '))
        .and_then(|l| l.rsplit(' ').next())
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0)
}

fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// JSON number literal: finite, no NaN/Inf (clamped to 0), integers bare.
fn json_num(v: f64) -> String {
    if !v.is_finite() {
        return "0".to_string();
    }
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v}")
    }
}

// ---- validation ------------------------------------------------------------

/// What a valid report asserts about itself.
#[derive(Debug, Clone, PartialEq)]
pub struct ReportSummary {
    pub experiment: String,
    pub mode: String,
    pub results: usize,
}

/// Validate a `BENCH_E*.json` document against schema `demaq-bench/v1`.
pub fn validate(json: &str) -> Result<ReportSummary, String> {
    let value = Json::parse(json)?;
    let obj = value.as_obj().ok_or("top level must be an object")?;
    let field = |k: &str| -> Result<&Json, String> {
        obj.iter()
            .find(|(n, _)| n == k)
            .map(|(_, v)| v)
            .ok_or(format!("missing required field `{k}`"))
    };

    let schema = field("schema")?
        .as_str()
        .ok_or("`schema` must be a string")?;
    if schema != SCHEMA {
        return Err(format!("schema is `{schema}`, expected `{SCHEMA}`"));
    }
    let experiment = field("experiment")?
        .as_str()
        .ok_or("`experiment` must be a string")?;
    let valid_name = experiment
        .strip_prefix('e')
        .is_some_and(|r| r.chars().next().is_some_and(|c| c.is_ascii_digit()));
    if !valid_name {
        return Err(format!(
            "experiment `{experiment}` is not of the form e<digits>_…"
        ));
    }
    let mode = field("mode")?.as_str().ok_or("`mode` must be a string")?;
    if mode != "smoke" && mode != "full" {
        return Err(format!("mode is `{mode}`, expected `smoke` or `full`"));
    }
    let results = field("results")?
        .as_arr()
        .ok_or("`results` must be an array")?;
    if results.is_empty() {
        return Err("`results` is empty: the bench measured nothing".to_string());
    }
    for (i, r) in results.iter().enumerate() {
        let entry = r
            .as_obj()
            .ok_or(format!("results[{i}] must be an object"))?;
        let get = |k: &str| entry.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        let name = get("name")
            .and_then(Json::as_str)
            .ok_or(format!("results[{i}] needs a string `name`"))?;
        let unit = get("unit")
            .and_then(Json::as_str)
            .ok_or(format!("results[{i}] needs a string `unit`"))?;
        if name.is_empty() || unit.is_empty() {
            return Err(format!("results[{i}] has an empty name or unit"));
        }
        let value = get("value")
            .and_then(Json::as_num)
            .ok_or(format!("results[{i}] (`{name}`) needs a numeric `value`"))?;
        if !value.is_finite() {
            return Err(format!("results[{i}] (`{name}`) has a non-finite value"));
        }
    }
    if let Ok(m) = field("metrics") {
        let metrics = m.as_obj().ok_or("`metrics` must be an object")?;
        for (k, v) in metrics {
            if v.as_num().is_none() {
                return Err(format!("metrics.{k} must be a number"));
            }
        }
    }
    Ok(ReportSummary {
        experiment: experiment.to_string(),
        mode: mode.to_string(),
        results: results.len(),
    })
}

/// Extract one named headline result's value from a report document.
/// Used by `bench-check --baseline` to compare trajectory entries.
pub fn result_value(json: &str, name: &str) -> Result<f64, String> {
    let value = Json::parse(json)?;
    let obj = value.as_obj().ok_or("top level must be an object")?;
    let results = obj
        .iter()
        .find(|(k, _)| k == "results")
        .and_then(|(_, v)| v.as_arr())
        .ok_or("missing `results` array")?;
    for r in results {
        let Some(entry) = r.as_obj() else { continue };
        let get = |k: &str| entry.iter().find(|(n, _)| n == k).map(|(_, v)| v);
        if get("name").and_then(Json::as_str) == Some(name) {
            return get("value")
                .and_then(Json::as_num)
                .ok_or(format!("result `{name}` has no numeric value"));
        }
    }
    Err(format!("no result named `{name}`"))
}

// ---- minimal JSON parser (validation only; offline, dependency-free) -------

#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
    pub fn as_num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }
    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
    pub fn as_obj(&self) -> Option<&[(String, Json)]> {
        match self {
            Json::Obj(o) => Some(o),
            _ => None,
        }
    }

    pub fn parse(text: &str) -> Result<Json, String> {
        let bytes = text.as_bytes();
        let mut pos = 0;
        let value = parse_value(bytes, &mut pos)?;
        skip_ws(bytes, &mut pos);
        if pos != bytes.len() {
            return Err(format!("trailing garbage at byte {pos}"));
        }
        Ok(value)
    }
}

fn skip_ws(b: &[u8], pos: &mut usize) {
    while *pos < b.len() && matches!(b[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(b: &[u8], pos: &mut usize, c: u8) -> Result<(), String> {
    if b.get(*pos) == Some(&c) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!("expected `{}` at byte {}", c as char, *pos))
    }
}

fn parse_value(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(b, pos);
    match b.get(*pos) {
        Some(b'{') => parse_obj(b, pos),
        Some(b'[') => parse_arr(b, pos),
        Some(b'"') => Ok(Json::Str(parse_string(b, pos)?)),
        Some(b't') => parse_lit(b, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_lit(b, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_lit(b, pos, "null", Json::Null),
        Some(_) => parse_num(b, pos),
        None => Err("unexpected end of input".to_string()),
    }
}

fn parse_lit(b: &[u8], pos: &mut usize, lit: &str, v: Json) -> Result<Json, String> {
    if b[*pos..].starts_with(lit.as_bytes()) {
        *pos += lit.len();
        Ok(v)
    } else {
        Err(format!("invalid literal at byte {}", *pos))
    }
}

fn parse_num(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    while *pos < b.len() && matches!(b[*pos], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9') {
        *pos += 1;
    }
    std::str::from_utf8(&b[start..*pos])
        .ok()
        .and_then(|s| s.parse::<f64>().ok())
        .map(Json::Num)
        .ok_or(format!("invalid number at byte {start}"))
}

fn parse_string(b: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(b, pos, b'"')?;
    let mut out = String::new();
    loop {
        match b.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match b.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = b
                            .get(*pos + 1..*pos + 5)
                            .and_then(|h| std::str::from_utf8(h).ok())
                            .and_then(|h| u32::from_str_radix(h, 16).ok())
                            .ok_or("invalid \\u escape")?;
                        // Surrogate pairs are out of scope for counter
                        // names; map them to the replacement character.
                        out.push(char::from_u32(hex).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    _ => return Err(format!("invalid escape at byte {}", *pos)),
                }
                *pos += 1;
            }
            Some(_) => {
                // Consume one UTF-8 scalar (multi-byte safe).
                let rest = std::str::from_utf8(&b[*pos..])
                    .map_err(|_| "invalid utf-8 in string".to_string())?;
                let c = rest.chars().next().expect("non-empty");
                out.push(c);
                *pos += c.len_utf8();
            }
        }
    }
}

fn parse_arr(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Arr(items));
    }
    loop {
        items.push(parse_value(b, pos)?);
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Arr(items));
            }
            _ => return Err(format!("expected `,` or `]` at byte {}", *pos)),
        }
    }
}

fn parse_obj(b: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(b, pos, b'{')?;
    let mut fields = Vec::new();
    skip_ws(b, pos);
    if b.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Obj(fields));
    }
    loop {
        skip_ws(b, pos);
        let key = parse_string(b, pos)?;
        skip_ws(b, pos);
        expect(b, pos, b':')?;
        fields.push((key, parse_value(b, pos)?));
        skip_ws(b, pos);
        match b.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Obj(fields));
            }
            _ => return Err(format!("expected `,` or `}}` at byte {}", *pos)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BenchReport {
        let mut r = BenchReport::new("e12_sustained_drain", true);
        r.result("drain_throughput", 12345.678, "msgs/s")
            .result("messages", 4096.0, "count");
        r.metrics.push(("demaq_store_sync_total".into(), 42.0));
        r
    }

    #[test]
    fn report_round_trips_through_the_validator() {
        let json = sample().to_json();
        let summary = validate(&json).expect("valid");
        assert_eq!(
            summary,
            ReportSummary {
                experiment: "e12_sustained_drain".into(),
                mode: "smoke".into(),
                results: 2,
            }
        );
    }

    #[test]
    fn file_name_derives_from_the_experiment_number() {
        assert_eq!(sample().file_name(), "BENCH_E12.json");
        assert_eq!(
            BenchReport::new("e9_group_commit", false).file_name(),
            "BENCH_E9.json"
        );
        // Only a full-mode run may touch the committed file at the root.
        let smoke = BenchReport::new("e9_group_commit", true).path();
        assert!(smoke.ends_with("target/bench/BENCH_E9.json"), "{smoke:?}");
        let full = BenchReport::new("e9_group_commit", false).path();
        assert!(!full.to_string_lossy().contains("target"), "{full:?}");
        assert!(full.ends_with("BENCH_E9.json"));
    }

    #[test]
    fn validator_rejects_broken_documents() {
        for (doc, why) in [
            ("{", "truncated"),
            ("[]", "not an object"),
            ("{\"schema\": \"demaq-bench/v0\"}", "wrong schema version"),
            (
                "{\"schema\": \"demaq-bench/v1\", \"experiment\": \"x\", \
                 \"mode\": \"smoke\", \"results\": [{\"name\":\"a\",\"value\":1,\"unit\":\"s\"}]}",
                "bad experiment name",
            ),
            (
                "{\"schema\": \"demaq-bench/v1\", \"experiment\": \"e1_x\", \
                 \"mode\": \"smoke\", \"results\": []}",
                "empty results",
            ),
            (
                "{\"schema\": \"demaq-bench/v1\", \"experiment\": \"e1_x\", \
                 \"mode\": \"dev\", \"results\": [{\"name\":\"a\",\"value\":1,\"unit\":\"s\"}]}",
                "bad mode",
            ),
            (
                "{\"schema\": \"demaq-bench/v1\", \"experiment\": \"e1_x\", \
                 \"mode\": \"full\", \"results\": [{\"name\":\"a\",\"unit\":\"s\"}]}",
                "result without value",
            ),
        ] {
            assert!(validate(doc).is_err(), "accepted a document with {why}");
        }
    }

    #[test]
    fn parser_handles_escapes_and_nesting() {
        let v = Json::parse(r#"{"a": [1, -2.5e1, "x\nyA"], "b": {"c": true, "d": null}}"#)
            .expect("parse");
        let obj = v.as_obj().unwrap();
        let arr = obj[0].1.as_arr().unwrap();
        assert_eq!(arr[0].as_num(), Some(1.0));
        assert_eq!(arr[1].as_num(), Some(-25.0));
        assert_eq!(arr[2].as_str(), Some("x\nyA"));
        let inner = obj[1].1.as_obj().unwrap();
        assert_eq!(inner[0].1, Json::Bool(true));
        assert_eq!(inner[1].1, Json::Null);
    }

    #[test]
    fn prom_value_reads_unlabeled_series() {
        let text = "demaq_store_sync_total 42\ndemaq_store_sync_total_other 9\n";
        assert_eq!(prom_value(text, "demaq_store_sync_total"), 42.0);
        assert_eq!(prom_value(text, "missing"), 0.0);
    }
}
