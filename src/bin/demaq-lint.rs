//! `demaq-lint` — whole-application static analysis for CI.
//!
//! Lints QDL/QML application programs with `demaq-analysis`: parse,
//! validate, analyze, report. Inputs are either `.qdl` files (one program
//! per file) or Rust sources (`.rs`), from which every raw-string literal
//! containing `create queue` is extracted and linted — the repo's
//! examples and paper-listing tests embed their programs that way.
//!
//! ```text
//! demaq-lint [--format human|json] [--deny CODE] [--warn CODE] [--allow CODE] FILE...
//! demaq-lint --explain CODE
//! ```
//!
//! Exit status: 0 when no deny-severity findings (parse and validation
//! errors count as deny; info findings are advisory and never fail), 1
//! otherwise, 2 on usage errors.

use demaq_analysis::{
    analyze_spec, extract_qdl_programs, json_str, LintCode, LintConfig, Severity,
};
use std::process::ExitCode;

#[derive(Clone, Copy, PartialEq)]
enum Format {
    Human,
    Json,
}

/// One reportable finding: an analyzer diagnostic, or a parse/validation
/// error promoted to deny severity.
struct Finding {
    code: String,
    slug: String,
    severity: Severity,
    subject: String,
    message: String,
}

impl Finding {
    fn from_diag(d: &demaq_analysis::Diagnostic) -> Finding {
        Finding {
            code: d.code.as_str().to_string(),
            slug: d.code.slug().to_string(),
            severity: d.severity,
            subject: d.subject.clone(),
            message: d.message.clone(),
        }
    }
}

struct ProgramReport {
    path: String,
    /// Index of the program within the file (files can embed several).
    index: usize,
    findings: Vec<Finding>,
}

fn main() -> ExitCode {
    let mut format = Format::Human;
    let mut config = LintConfig::new();
    let mut paths: Vec<String> = Vec::new();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--format" => match args.next().as_deref() {
                Some("human") => format = Format::Human,
                Some("json") => format = Format::Json,
                other => return usage(&format!("--format expects human|json, got {other:?}")),
            },
            "--deny" | "--warn" | "--allow" => {
                let sev = match arg.as_str() {
                    "--deny" => Severity::Deny,
                    "--warn" => Severity::Warn,
                    _ => Severity::Allow,
                };
                let Some(code) = args.next().as_deref().and_then(LintCode::parse) else {
                    return usage(&format!("{arg} expects a lint code (DQ001..DQ013 or slug)"));
                };
                config.set(code, sev);
            }
            "--explain" => {
                let Some(code) = args.next().as_deref().and_then(LintCode::parse) else {
                    return usage("--explain expects a lint code (DQ001..DQ013 or slug)");
                };
                explain(code);
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                print!("{}", HELP);
                return ExitCode::SUCCESS;
            }
            p if !p.starts_with('-') => paths.push(p.to_string()),
            other => return usage(&format!("unknown option {other}")),
        }
    }
    if paths.is_empty() {
        return usage("no input files");
    }

    let mut reports: Vec<ProgramReport> = Vec::new();
    for path in &paths {
        let source = match std::fs::read_to_string(path) {
            Ok(s) => s,
            Err(e) => {
                eprintln!("demaq-lint: cannot read {path}: {e}");
                return ExitCode::from(2);
            }
        };
        let programs: Vec<String> = if path.ends_with(".rs") {
            extract_qdl_programs(&source)
        } else {
            vec![source]
        };
        for (index, program) in programs.iter().enumerate() {
            reports.push(lint_program(path, index, program, &config));
        }
    }

    let denies: usize = reports
        .iter()
        .flat_map(|r| r.findings.iter())
        .filter(|f| f.severity == Severity::Deny)
        .count();
    match format {
        Format::Human => render_human(&reports, denies),
        Format::Json => render_json(&reports, denies),
    }
    if denies > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

fn lint_program(path: &str, index: usize, program: &str, config: &LintConfig) -> ProgramReport {
    let mut report = ProgramReport {
        path: path.to_string(),
        index,
        findings: Vec::new(),
    };
    let spec = match demaq_qdl::parse_program(program) {
        Ok(s) => s,
        Err(e) => {
            report.findings.push(Finding {
                code: "PARSE".into(),
                slug: "parse-error".into(),
                severity: Severity::Deny,
                subject: "program".into(),
                message: e.to_string(),
            });
            return report;
        }
    };
    for v in demaq_qdl::validate(&spec) {
        report.findings.push(Finding {
            code: "QDL000".into(),
            slug: "validation-error".into(),
            severity: Severity::Deny,
            subject: v.subject.clone(),
            message: v.msg.clone(),
        });
    }
    let analysis = analyze_spec(&spec, config);
    report
        .findings
        .extend(analysis.diagnostics.iter().map(Finding::from_diag));
    report
}

fn render_human(reports: &[ProgramReport], denies: usize) {
    let mut total = 0;
    for r in reports {
        if r.findings.is_empty() {
            continue;
        }
        println!("{} (program {}):", r.path, r.index + 1);
        for f in &r.findings {
            total += 1;
            println!(
                "  {} [{} {}] {}: {}",
                f.severity.as_str(),
                f.code,
                f.slug,
                f.subject,
                f.message
            );
        }
    }
    println!("{total} finding(s), {denies} deny");
}

fn render_json(reports: &[ProgramReport], denies: usize) {
    let mut out = String::from("{\"files\":[");
    for (i, r) in reports.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"path\":{},\"program\":{},\"diagnostics\":[",
            json_str(&r.path),
            r.index + 1
        ));
        for (j, f) in r.findings.iter().enumerate() {
            if j > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"code\":{},\"slug\":{},\"severity\":{},\"subject\":{},\"message\":{}}}",
                json_str(&f.code),
                json_str(&f.slug),
                json_str(f.severity.as_str()),
                json_str(&f.subject),
                json_str(&f.message)
            ));
        }
        out.push_str("]}");
    }
    let total: usize = reports.iter().map(|r| r.findings.len()).sum();
    out.push_str(&format!(
        "],\"summary\":{{\"total\":{total},\"deny\":{denies}}}}}"
    ));
    println!("{out}");
}

/// `--explain CODE`: what the lint detects, its default severity, and a
/// minimal program that triggers it.
fn explain(code: LintCode) {
    println!("{} ({})", code.as_str(), code.slug());
    println!("default severity: {}", code.default_severity().as_str());
    println!();
    println!("{}", code.description());
    println!();
    println!("example:");
    for line in code.example().lines() {
        println!("    {line}");
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("demaq-lint: {msg}");
    eprint!("{}", HELP);
    ExitCode::from(2)
}

const HELP: &str = "\
usage: demaq-lint [--format human|json] [--deny CODE] [--warn CODE] [--allow CODE] FILE...
       demaq-lint --explain CODE

Lints Demaq application programs. FILEs are .qdl programs or Rust sources
whose raw-string literals embed programs (`create queue …`). CODE is a
stable lint code (DQ001..DQ013) or its slug (e.g. unknown-enqueue-target).
`--explain` prints what a code detects, its default severity, and a
minimal triggering example. Info-severity findings are advisory and never
affect the exit status. Exits 1 when any deny-severity finding (including
parse/validation errors) is present.
";
