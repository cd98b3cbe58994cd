//! Responses rebuilt from the direct library paths, byte for byte.
//!
//! The framing below is the `rlc-serve/1` response format; the verdicts
//! come from `Engine::run`/`run_couple`/`run_synth` and `rlc_lint`, never
//! from the serving code. The traced replay renders through the same
//! framing, so its output is checked against `ServeCore` as well.

use rlc_engine::{group_json, net_json, synth_json, Batch, CoupleBatch, Engine, SynthBatch};
use rlc_lint::{lint_coupled_deck, lint_deck, lint_synth_deck, LintReport};
use rlc_obs::json::quote;
use rlc_serve::{LintMode, ReadOutcome, Request};

/// A `type: result` line; `field` is `net`, `group` or `synth`.
pub fn result_line(field: &str, cache: &str, verdict: &str, lint: Option<&str>) -> String {
    match lint {
        Some(annotation) => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"{field}\": {verdict}, \"lint\": {annotation}}}"
        ),
        None => format!(
            "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"{cache}\", \"{field}\": {verdict}}}"
        ),
    }
}

/// The `lint=deny` rejection, citing the report's most severe finding.
pub fn lint_denied_line(name: &str, report: &LintReport) -> String {
    let primary = report.primary();
    let code = primary.map_or("L000", |d| d.rule.code());
    let message = primary.map_or_else(
        || "lint gate failed".to_owned(),
        |d| format!("{} {}: {}", d.rule.code(), d.rule.severity(), d.message),
    );
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"error\", \"kind\": \"lint_denied\", \"net\": {}, \"code\": {}, \"message\": {}, \"lint\": {}}}",
        quote(name),
        quote(code),
        quote(&message),
        report.annotation_json(),
    )
}

/// The `lint` verb's reply: the full report.
pub fn lint_line(name: &str, report: &LintReport) -> String {
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"lint\", \"report\": {}}}",
        report.to_json_object(name)
    )
}

/// Runs `lint` on `deck` unless the request turned linting off.
pub fn gate(mode: LintMode, lint: fn(&str) -> LintReport, deck: &str) -> Option<LintReport> {
    match mode {
        LintMode::Off => None,
        LintMode::Warn | LintMode::Deny => Some(lint(deck)),
    }
}

/// The report that makes `lint=deny` reject the request, if it does.
pub fn denies(mode: LintMode, report: Option<&LintReport>) -> Option<&LintReport> {
    report.filter(|r| mode == LintMode::Deny && !r.passes(true))
}

/// The annotation a result carries: present only when lint ran and found
/// something.
pub fn annotation(report: Option<LintReport>) -> Option<String> {
    report
        .filter(|r| !r.is_spotless())
        .map(|r| r.annotation_json())
}

/// The reply `wire` must get, with `cache` as the result's cache field.
pub fn expected(wire: &[u8], cache: &str) -> Result<String, String> {
    let request = match rlc_serve::protocol::read_request(&mut &wire[..]) {
        Ok(ReadOutcome::Request(request)) => request,
        other => return Err(format!("generated request does not frame: {other:?}")),
    };
    let engine = Engine::with_workers(1);
    Ok(match request {
        Request::Analyze(r) => {
            let report = gate(r.lint, lint_deck, &r.deck);
            if let Some(report) = denies(r.lint, report.as_ref()) {
                return Ok(lint_denied_line(&r.name, report));
            }
            let mut batch = Batch::new();
            batch.push_deck(r.name, r.deck);
            let net = &engine.run(&batch).nets[0];
            result_line("net", cache, &net_json(net), annotation(report).as_deref())
        }
        Request::Couple(r) => {
            let report = gate(r.lint, lint_coupled_deck, &r.deck);
            if let Some(report) = denies(r.lint, report.as_ref()) {
                return Ok(lint_denied_line(&r.name, report));
            }
            let mut batch = CoupleBatch::new();
            batch.push_deck(r.name, r.deck);
            let group = &engine.run_couple(&batch).groups[0];
            result_line(
                "group",
                cache,
                &group_json(group),
                annotation(report).as_deref(),
            )
        }
        Request::Optimize(r) => {
            let report = gate(r.lint, lint_synth_deck, &r.deck);
            if let Some(report) = denies(r.lint, report.as_ref()) {
                return Ok(lint_denied_line(&r.name, report));
            }
            let mut batch = SynthBatch::new();
            batch.push_deck(r.name, r.deck);
            let synth = &engine.run_synth(&batch).nets[0];
            result_line(
                "synth",
                cache,
                &synth_json(synth),
                annotation(report).as_deref(),
            )
        }
        Request::Lint(r) => lint_line(&r.name, &lint_deck(&r.deck)),
        other => return Err(format!("the generators never send {other:?}")),
    })
}

/// The cache field of a `type: result` reply (`miss` for anything else,
/// which the expected line then does not use).
pub fn cache_field(reply: &str) -> &'static str {
    if reply.starts_with("{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"hit\"") {
        "hit"
    } else {
        "miss"
    }
}
