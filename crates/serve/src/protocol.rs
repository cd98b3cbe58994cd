//! The `rlc-serve/1` wire protocol: line-delimited requests, one JSON
//! object per line back.
//!
//! # Grammar
//!
//! ```text
//! request  = header LF [ deck ]
//! header   = verb *( SP field )
//! verb     = "analyze" | "couple" | "optimize" | "lint" | "probe" | "metrics" | "trace" | "shutdown"
//! field    = key "=" value               ; no spaces inside a field
//! deck     = *( line LF ) "." LF        ; analyze, couple, lint; "." ends the deck
//! ```
//!
//! Blank lines between requests are ignored. `analyze` accepts the fields
//! `name=<label>`, `model=eed|elmore`, `lint=off|warn|deny` (pre-admission
//! static analysis, see [`LintMode`]; default `warn`), `deadline_ms=<u64>`
//! (queue time counts against it) and `sleep_ms=<u64>` (fault-injection
//! hold, see [`JobSpec::hold`](rlc_engine::JobSpec::hold)); the deck body
//! is the netlist format of [`rlc_tree::netlist`]. A lone `.` terminates
//! the deck — netlist directives like `.input` are longer than one
//! character, so the sentinel never collides with deck content. `couple`
//! accepts `name=<label>`, `lint=off|warn|deny`, `deadline_ms=<u64>` and
//! `sleep_ms=<u64>` with the same meanings; its deck body is the *coupled*
//! format of [`rlc_tree::coupled`] (`.net` blocks joined by `K` cards) and
//! its result is the group's `rlc-couple/1` crosstalk report. `optimize`
//! accepts `name=<label>`, `lint=off|warn|deny`, `deadline_ms=<u64>` and
//! `sleep_ms=<u64>`; its deck body is the *synthesis* format of
//! [`rlc_tree::synth`] (a netlist plus `.lib`/`.use`/`.driver`/`.require`
//! cards) and its result is the net's `rlc-synth/1` buffer-insertion and
//! wire-sizing report. `lint`
//! accepts only `name=<label>` and returns the full `rlc-lint` report for
//! the deck without admitting any engine work. `metrics` takes no fields
//! and returns the cumulative `rlc-trace/1` telemetry report; `trace`
//! accepts `last=<u64>` (default all retained) and returns the
//! flight-recorder breakdown of recent and slowest requests (see
//! [`crate::telemetry`]).
//!
//! Every response is a single line of JSON with a `"proto": "rlc-serve/1"`
//! and a `"type"` member: `result` (the engine verdict for one net, ok
//! *or* per-net error), `error` (the request never reached a worker:
//! `overloaded`, `shutting_down`, `lint_denied`, `bad_request`), `lint`
//! (the static-analysis report), `probe` (live counters), `metrics` /
//! `trace` (telemetry reports, `"report"` member tagged
//! `"schema": "rlc-trace/1"`) or `stats` (the final report flushed at
//! shutdown).

use std::fmt;
use std::io::{self, BufRead};

use rlc_engine::TimingModel;

/// A request that could not be parsed off the wire. The server answers
/// with a `bad_request` error response and closes that connection —
/// after a framing error the byte stream can no longer be trusted to
/// align with request boundaries.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProtocolError {
    /// Human-readable description of the framing violation.
    pub message: String,
}

impl fmt::Display for ProtocolError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bad request: {}", self.message)
    }
}

impl std::error::Error for ProtocolError {}

/// Pre-admission lint gating for an `analyze` request (`lint=` field).
///
/// The lint report is computed from the deck text by [`rlc_lint`] before
/// the cache lookup or any engine admission, so gating is identical on
/// cache hits and misses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LintMode {
    /// Skip linting entirely; the response carries no `lint` member.
    Off,
    /// Lint and attach a summary of any findings to the response, but
    /// never reject. The default.
    #[default]
    Warn,
    /// Reject the deck with a typed `lint_denied` error when the report
    /// carries any error- or warning-severity finding (the CLI's
    /// `--deny-warnings` gate). Info findings never deny.
    Deny,
}

impl LintMode {
    /// Parses the wire spelling (`off`, `warn`, `deny`).
    pub fn from_id(id: &str) -> Option<Self> {
        match id {
            "off" => Some(Self::Off),
            "warn" => Some(Self::Warn),
            "deny" => Some(Self::Deny),
            _ => None,
        }
    }

    /// The wire spelling.
    pub fn id(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Warn => "warn",
            Self::Deny => "deny",
        }
    }
}

/// One `analyze` request: a netlist deck plus its policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct AnalyzeRequest {
    /// Net label echoed in the response (`name=`; default `"net"`).
    pub name: String,
    /// Timing model (`model=`; default [`TimingModel::Eed`]).
    pub model: TimingModel,
    /// Lint gating (`lint=`; default [`LintMode::Warn`]).
    pub lint: LintMode,
    /// Relative deadline in milliseconds (`deadline_ms=`). Queue time
    /// counts against it; an expired job reports `deadline exceeded`
    /// instead of burning a worker.
    pub deadline_ms: Option<u64>,
    /// Fault-injection hold in milliseconds (`sleep_ms=`): the worker
    /// sleeps before analyzing. Exists so overload and drain behaviour
    /// can be exercised deterministically over the wire.
    pub sleep_ms: Option<u64>,
    /// The netlist deck body (without the terminating `.` line).
    pub deck: String,
}

impl AnalyzeRequest {
    /// An analyze request for `deck` with every knob at its default.
    pub fn new(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            model: TimingModel::default(),
            lint: LintMode::default(),
            deadline_ms: None,
            sleep_ms: None,
            deck: deck.into(),
        }
    }
}

/// One `couple` request: a coupled deck (`.net` blocks + `K` cards, see
/// [`rlc_tree::coupled`]) plus its policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CoupleRequest {
    /// Group label echoed in the response (`name=`; default `"group"`).
    pub name: String,
    /// Lint gating (`lint=`; default [`LintMode::Warn`]), run through the
    /// coupled-deck linter (`rlc_lint::lint_coupled_deck`).
    pub lint: LintMode,
    /// Relative deadline in milliseconds (`deadline_ms=`), as for
    /// [`AnalyzeRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Fault-injection hold in milliseconds (`sleep_ms=`), as for
    /// [`AnalyzeRequest::sleep_ms`].
    pub sleep_ms: Option<u64>,
    /// The coupled deck body (without the terminating `.` line).
    pub deck: String,
}

impl CoupleRequest {
    /// A couple request for `deck` with every knob at its default.
    pub fn new(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            lint: LintMode::default(),
            deadline_ms: None,
            sleep_ms: None,
            deck: deck.into(),
        }
    }
}

/// One `optimize` request: a synthesis deck (netlist plus buffer-library
/// and constraint cards, see [`rlc_tree::synth`]) plus its policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct OptimizeRequest {
    /// Net label echoed in the response (`name=`; default `"net"`).
    pub name: String,
    /// Lint gating (`lint=`; default [`LintMode::Warn`]), run through the
    /// synthesis-deck linter (`rlc_lint::lint_synth_deck`).
    pub lint: LintMode,
    /// Relative deadline in milliseconds (`deadline_ms=`), as for
    /// [`AnalyzeRequest::deadline_ms`].
    pub deadline_ms: Option<u64>,
    /// Fault-injection hold in milliseconds (`sleep_ms=`), as for
    /// [`AnalyzeRequest::sleep_ms`].
    pub sleep_ms: Option<u64>,
    /// The synthesis deck body (without the terminating `.` line).
    pub deck: String,
}

impl OptimizeRequest {
    /// An optimize request for `deck` with every knob at its default.
    pub fn new(name: impl Into<String>, deck: impl Into<String>) -> Self {
        Self {
            name: name.into(),
            lint: LintMode::default(),
            deadline_ms: None,
            sleep_ms: None,
            deck: deck.into(),
        }
    }
}

/// One `lint` request: report the deck's static-analysis findings without
/// admitting any engine work.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LintRequest {
    /// Deck label echoed in the report (`name=`; default `"net"`).
    pub name: String,
    /// The netlist deck body (without the terminating `.` line).
    pub deck: String,
}

/// A parsed request.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Analyze one netlist deck.
    Analyze(AnalyzeRequest),
    /// Analyze one coupled group of nets for crosstalk.
    Couple(CoupleRequest),
    /// Optimize one synthesis deck: buffer insertion plus wire sizing.
    Optimize(OptimizeRequest),
    /// Lint one netlist deck without analyzing it.
    Lint(LintRequest),
    /// Report live service counters.
    Probe,
    /// Report the cumulative `rlc-trace/1` telemetry snapshot.
    Metrics,
    /// Report the flight recorder's per-request stage breakdowns for the
    /// last `last` requests (`0` = all retained) plus the slowest since
    /// startup.
    Trace {
        /// How many recent requests to include; `0` means all retained.
        last: usize,
    },
    /// Stop accepting, drain in-flight nets, reply with the final stats.
    Shutdown,
}

/// What [`read_request`] found on the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum ReadOutcome {
    /// The peer closed the stream cleanly between requests.
    Eof,
    /// The stream held bytes that do not frame as a request.
    Malformed(ProtocolError),
    /// A complete, well-formed request.
    Request(Request),
}

fn malformed(message: impl Into<String>) -> io::Result<ReadOutcome> {
    Ok(ReadOutcome::Malformed(ProtocolError {
        message: message.into(),
    }))
}

/// Reads a deck body up to (and consuming) the lone `.` terminator.
/// `Err` carries the malformed outcome for a deck the stream never
/// terminated.
fn read_deck<R: BufRead>(reader: &mut R) -> io::Result<Result<String, ReadOutcome>> {
    let mut deck = String::new();
    loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(Err(ReadOutcome::Malformed(ProtocolError {
                message: "unterminated deck: missing \".\" line".to_owned(),
            })));
        }
        if line.trim() == "." {
            return Ok(Ok(deck));
        }
        deck.push_str(&line);
    }
}

/// Reads the next request off `reader`, skipping blank lines.
///
/// # Errors
///
/// Only transport-level failures surface as `io::Error`; anything the
/// peer *sent* wrong comes back as [`ReadOutcome::Malformed`] so the
/// server can answer with a typed response before closing.
pub fn read_request<R: BufRead>(reader: &mut R) -> io::Result<ReadOutcome> {
    match frame_request(reader) {
        // `read_line` reports bytes that are not UTF-8 as `InvalidData`:
        // the peer sent them, so they are a framing error, not a
        // transport failure.
        Err(e) if e.kind() == io::ErrorKind::InvalidData => malformed("request is not valid UTF-8"),
        outcome => outcome,
    }
}

fn frame_request<R: BufRead>(reader: &mut R) -> io::Result<ReadOutcome> {
    let header = loop {
        let mut line = String::new();
        if reader.read_line(&mut line)? == 0 {
            return Ok(ReadOutcome::Eof);
        }
        if !line.trim().is_empty() {
            break line;
        }
    };
    let mut parts = header.split_whitespace();
    let verb = parts.next().expect("header line is non-blank");
    match verb {
        "probe" | "metrics" | "shutdown" => {
            if parts.next().is_some() {
                return malformed(format!("{verb} takes no fields"));
            }
            Ok(ReadOutcome::Request(match verb {
                "probe" => Request::Probe,
                "metrics" => Request::Metrics,
                _ => Request::Shutdown,
            }))
        }
        "trace" => {
            let mut last = 0usize;
            for field in parts {
                let Some((key, value)) = field.split_once('=') else {
                    return malformed(format!("field {field:?} is not key=value"));
                };
                match key {
                    "last" => match value.parse() {
                        Ok(n) => last = n,
                        Err(_) => return malformed(format!("last {value:?} is not a u64")),
                    },
                    other => return malformed(format!("unknown field {other:?}")),
                }
            }
            Ok(ReadOutcome::Request(Request::Trace { last }))
        }
        "analyze" => {
            let mut request = AnalyzeRequest::new("net", "");
            for field in parts {
                let Some((key, value)) = field.split_once('=') else {
                    return malformed(format!("field {field:?} is not key=value"));
                };
                match key {
                    "name" => request.name = value.to_owned(),
                    "model" => match TimingModel::from_id(value) {
                        Some(model) => request.model = model,
                        None => {
                            return malformed(format!(
                                "unknown model {value:?} (expected eed or elmore)"
                            ))
                        }
                    },
                    "lint" => match LintMode::from_id(value) {
                        Some(mode) => request.lint = mode,
                        None => {
                            return malformed(format!(
                                "unknown lint mode {value:?} (expected off, warn or deny)"
                            ))
                        }
                    },
                    "deadline_ms" => match value.parse() {
                        Ok(ms) => request.deadline_ms = Some(ms),
                        Err(_) => return malformed(format!("deadline_ms {value:?} is not a u64")),
                    },
                    "sleep_ms" => match value.parse() {
                        Ok(ms) => request.sleep_ms = Some(ms),
                        Err(_) => return malformed(format!("sleep_ms {value:?} is not a u64")),
                    },
                    other => return malformed(format!("unknown field {other:?}")),
                }
            }
            match read_deck(reader)? {
                Ok(deck) => {
                    request.deck = deck;
                    Ok(ReadOutcome::Request(Request::Analyze(request)))
                }
                Err(outcome) => Ok(outcome),
            }
        }
        "couple" => {
            let mut request = CoupleRequest::new("group", "");
            for field in parts {
                let Some((key, value)) = field.split_once('=') else {
                    return malformed(format!("field {field:?} is not key=value"));
                };
                match key {
                    "name" => request.name = value.to_owned(),
                    "lint" => match LintMode::from_id(value) {
                        Some(mode) => request.lint = mode,
                        None => {
                            return malformed(format!(
                                "unknown lint mode {value:?} (expected off, warn or deny)"
                            ))
                        }
                    },
                    "deadline_ms" => match value.parse() {
                        Ok(ms) => request.deadline_ms = Some(ms),
                        Err(_) => return malformed(format!("deadline_ms {value:?} is not a u64")),
                    },
                    "sleep_ms" => match value.parse() {
                        Ok(ms) => request.sleep_ms = Some(ms),
                        Err(_) => return malformed(format!("sleep_ms {value:?} is not a u64")),
                    },
                    other => return malformed(format!("unknown field {other:?}")),
                }
            }
            match read_deck(reader)? {
                Ok(deck) => {
                    request.deck = deck;
                    Ok(ReadOutcome::Request(Request::Couple(request)))
                }
                Err(outcome) => Ok(outcome),
            }
        }
        "optimize" => {
            let mut request = OptimizeRequest::new("net", "");
            for field in parts {
                let Some((key, value)) = field.split_once('=') else {
                    return malformed(format!("field {field:?} is not key=value"));
                };
                match key {
                    "name" => request.name = value.to_owned(),
                    "lint" => match LintMode::from_id(value) {
                        Some(mode) => request.lint = mode,
                        None => {
                            return malformed(format!(
                                "unknown lint mode {value:?} (expected off, warn or deny)"
                            ))
                        }
                    },
                    "deadline_ms" => match value.parse() {
                        Ok(ms) => request.deadline_ms = Some(ms),
                        Err(_) => return malformed(format!("deadline_ms {value:?} is not a u64")),
                    },
                    "sleep_ms" => match value.parse() {
                        Ok(ms) => request.sleep_ms = Some(ms),
                        Err(_) => return malformed(format!("sleep_ms {value:?} is not a u64")),
                    },
                    other => return malformed(format!("unknown field {other:?}")),
                }
            }
            match read_deck(reader)? {
                Ok(deck) => {
                    request.deck = deck;
                    Ok(ReadOutcome::Request(Request::Optimize(request)))
                }
                Err(outcome) => Ok(outcome),
            }
        }
        "lint" => {
            let mut request = LintRequest {
                name: "net".to_owned(),
                deck: String::new(),
            };
            for field in parts {
                let Some((key, value)) = field.split_once('=') else {
                    return malformed(format!("field {field:?} is not key=value"));
                };
                match key {
                    "name" => request.name = value.to_owned(),
                    other => return malformed(format!("unknown field {other:?}")),
                }
            }
            match read_deck(reader)? {
                Ok(deck) => {
                    request.deck = deck;
                    Ok(ReadOutcome::Request(Request::Lint(request)))
                }
                Err(outcome) => Ok(outcome),
            }
        }
        other => malformed(format!("unknown verb {other:?}")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn read(input: &str) -> ReadOutcome {
        read_request(&mut input.as_bytes()).expect("in-memory reads cannot fail")
    }

    #[test]
    fn analyze_with_fields_and_deck() {
        let outcome = read(
            "analyze name=clk model=elmore lint=deny deadline_ms=250 sleep_ms=5\nR1 in n1 25\nC1 n1 0 0.5p\n.\n",
        );
        let ReadOutcome::Request(Request::Analyze(req)) = outcome else {
            panic!("expected analyze, got {outcome:?}");
        };
        assert_eq!(req.name, "clk");
        assert_eq!(req.model, TimingModel::Elmore);
        assert_eq!(req.lint, LintMode::Deny);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.sleep_ms, Some(5));
        assert_eq!(req.deck, "R1 in n1 25\nC1 n1 0 0.5p\n");
    }

    #[test]
    fn defaults_and_blank_line_skipping() {
        let outcome = read("\n\nanalyze\nR1 in n1 25\n.\n");
        let ReadOutcome::Request(Request::Analyze(req)) = outcome else {
            panic!("expected analyze, got {outcome:?}");
        };
        assert_eq!(req.name, "net");
        assert_eq!(req.model, TimingModel::Eed);
        assert_eq!(req.lint, LintMode::Warn);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn couple_with_fields_and_deck() {
        let outcome = read(
            "couple name=bus lint=deny deadline_ms=250 sleep_ms=5\n.net a\nR1 in n1 25\nC1 n1 0 0.5p\n.net b\nR1 in m1 40\nC1 m1 0 0.3p\nK1 a.n1 b.m1 0.1p\n.\n",
        );
        let ReadOutcome::Request(Request::Couple(req)) = outcome else {
            panic!("expected couple, got {outcome:?}");
        };
        assert_eq!(req.name, "bus");
        assert_eq!(req.lint, LintMode::Deny);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.sleep_ms, Some(5));
        assert!(req.deck.contains("K1 a.n1 b.m1 0.1p"));
        assert!(!req.deck.contains("\n.\n"), "sentinel is consumed");

        let outcome = read("couple\n.net a\nR1 in n1 25\n.\n");
        let ReadOutcome::Request(Request::Couple(req)) = outcome else {
            panic!("expected couple, got {outcome:?}");
        };
        assert_eq!(req.name, "group");
        assert_eq!(req.lint, LintMode::Warn);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn optimize_with_fields_and_deck() {
        let outcome = read(
            "optimize name=clk lint=deny deadline_ms=250 sleep_ms=5\nR1 in n1 900\nC1 n1 0 0.9p\n.lib bufx r=120 cin=5f tin=15p\n.driver 100\n.\n",
        );
        let ReadOutcome::Request(Request::Optimize(req)) = outcome else {
            panic!("expected optimize, got {outcome:?}");
        };
        assert_eq!(req.name, "clk");
        assert_eq!(req.lint, LintMode::Deny);
        assert_eq!(req.deadline_ms, Some(250));
        assert_eq!(req.sleep_ms, Some(5));
        assert!(req.deck.contains(".lib bufx"));
        assert!(!req.deck.contains("\n.\n"), "sentinel is consumed");

        let outcome = read("optimize\nR1 in n1 25\n.lib b r=100 cin=4f tin=1p\n.\n");
        let ReadOutcome::Request(Request::Optimize(req)) = outcome else {
            panic!("expected optimize, got {outcome:?}");
        };
        assert_eq!(req.name, "net");
        assert_eq!(req.lint, LintMode::Warn);
        assert_eq!(req.deadline_ms, None);
    }

    #[test]
    fn lint_verb_frames_a_deck() {
        let outcome = read("lint name=clk\nR1 in n1 25\nC1 n1 0 0.5p\n.\n");
        let ReadOutcome::Request(Request::Lint(req)) = outcome else {
            panic!("expected lint, got {outcome:?}");
        };
        assert_eq!(req.name, "clk");
        assert_eq!(req.deck, "R1 in n1 25\nC1 n1 0 0.5p\n");
    }

    #[test]
    fn lint_mode_spellings_round_trip() {
        for mode in [LintMode::Off, LintMode::Warn, LintMode::Deny] {
            assert_eq!(LintMode::from_id(mode.id()), Some(mode));
        }
        assert_eq!(LintMode::from_id("strict"), None);
    }

    #[test]
    fn control_verbs_and_eof() {
        assert_eq!(read("probe\n"), ReadOutcome::Request(Request::Probe));
        assert_eq!(read("metrics\n"), ReadOutcome::Request(Request::Metrics));
        assert_eq!(
            read("trace\n"),
            ReadOutcome::Request(Request::Trace { last: 0 })
        );
        assert_eq!(
            read("trace last=5\n"),
            ReadOutcome::Request(Request::Trace { last: 5 })
        );
        assert_eq!(read("shutdown\n"), ReadOutcome::Request(Request::Shutdown));
        assert_eq!(read(""), ReadOutcome::Eof);
        assert_eq!(read("\n  \n"), ReadOutcome::Eof);
    }

    #[test]
    fn sequential_requests_frame_cleanly() {
        let mut reader = "analyze name=a\nR1 in n1 25\n.\nprobe\n".as_bytes();
        assert!(matches!(
            read_request(&mut reader).unwrap(),
            ReadOutcome::Request(Request::Analyze(_))
        ));
        assert_eq!(
            read_request(&mut reader).unwrap(),
            ReadOutcome::Request(Request::Probe)
        );
        assert_eq!(read_request(&mut reader).unwrap(), ReadOutcome::Eof);
    }

    #[test]
    fn malformed_headers_are_typed() {
        for (input, needle) in [
            ("launch\n", "unknown verb"),
            ("probe now\n", "takes no fields"),
            ("metrics now\n", "takes no fields"),
            ("trace last=-1\n", "not a u64"),
            ("trace depth=3\n", "unknown field"),
            ("analyze name\n.\n", "not key=value"),
            ("analyze model=spice\n.\n", "unknown model"),
            ("analyze lint=strict\n.\n", "unknown lint mode"),
            ("analyze deadline_ms=-3\n.\n", "not a u64"),
            ("analyze color=red\n.\n", "unknown field"),
            ("analyze\nR1 in n1 25\n", "unterminated deck"),
            ("couple name\n.\n", "not key=value"),
            ("couple model=eed\n.\n", "unknown field"),
            ("couple lint=strict\n.\n", "unknown lint mode"),
            ("couple deadline_ms=soon\n.\n", "not a u64"),
            ("couple sleep_ms=-1\n.\n", "not a u64"),
            ("couple\n.net a\nR1 in n1 25\n", "unterminated deck"),
            ("optimize name\n.\n", "not key=value"),
            ("optimize model=eed\n.\n", "unknown field"),
            ("optimize lint=strict\n.\n", "unknown lint mode"),
            ("optimize deadline_ms=soon\n.\n", "not a u64"),
            ("optimize sleep_ms=-1\n.\n", "not a u64"),
            ("optimize\nR1 in n1 25\n", "unterminated deck"),
            ("lint model=eed\n.\n", "unknown field"),
            ("lint\nR1 in n1 25\n", "unterminated deck"),
        ] {
            let ReadOutcome::Malformed(err) = read(input) else {
                panic!("{input:?} should be malformed");
            };
            assert!(err.message.contains(needle), "{input:?}: {err}");
        }
    }
}
