//! End-to-end contracts for `rlc-serve`:
//!
//! * a TCP server under concurrent mixed (healthy + malformed) traffic
//!   answers every analyze with **exactly** the bytes a direct
//!   `rlc-engine` run produces for the same deck, wrapped in the
//!   `rlc-serve/1` result envelope;
//! * the full per-client transcript and the final stats report are
//!   byte-identical across worker counts;
//! * the cache serves repeats without engine work and under the caller's
//!   name; admission and framing failures are typed and scoped;
//! * no byte stream makes `read_request` panic or fail.

#![allow(clippy::expect_used, reason = "test helpers abort on failure")]

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Cursor, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

use proptest::prelude::*;
use rlc_engine::{net_json, Batch, Engine, EngineService, JobSpec, ServiceConfig, TimingModel};
use rlc_serve::protocol::read_request;
use rlc_serve::{
    serve_stdio, AnalyzeRequest, CacheConfig, CoupleRequest, LintMode, LintRequest, ReadOutcome,
    ServeConfig, ServeCore, Server,
};

const LINE_DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";
const BRANCH_DECK: &str =
    "R1 in t 10\nC1 t 0 0.2p\nL2 t a 3n\nC2 a 0 0.4p\nR3 t b 40\nC3 b 0 0.6p\n";
const THIRD_DECK: &str = "R1 in n1 75\nC1 n1 0 1.5p\n";
const MALFORMED_DECK: &str = "R1 in n1 oops\n";
const EMPTY_DECK: &str = "* a deck with no cards\n";

/// What one client sends (in order) over its single connection.
/// `(request name, deck, model id)` per request; the malformed deck rides
/// in the middle to prove a bad deck doesn't poison the connection.
fn client_scripts() -> Vec<Vec<(String, &'static str, TimingModel)>> {
    let decks: [(&str, TimingModel); 5] = [
        (LINE_DECK, TimingModel::Eed),
        (BRANCH_DECK, TimingModel::Eed),
        (THIRD_DECK, TimingModel::Eed),
        (EMPTY_DECK, TimingModel::Eed),
        (BRANCH_DECK, TimingModel::Elmore),
    ];
    decks
        .iter()
        .enumerate()
        .map(|(client, &(deck, model))| {
            vec![
                (format!("c{client}-first"), deck, model),
                (format!("c{client}-bad"), MALFORMED_DECK, TimingModel::Eed),
                (format!("c{client}-again"), deck, model),
            ]
        })
        .collect()
}

/// The engine's own verdict for `deck`, rendered exactly as the server
/// must render it (direct `Engine` run for the default model, a direct
/// `EngineService` job for explicit models), with the same `"lint"`
/// annotation the default `lint=warn` mode attaches when the deck has
/// findings.
fn direct_engine_response(name: &str, deck: &str, model: TimingModel) -> String {
    let net = match model {
        TimingModel::Eed => {
            let mut batch = Batch::new();
            batch.push_deck(name, deck);
            let report = Engine::with_workers(1).run(&batch);
            net_json(&report.nets[0])
        }
        _ => {
            let service = EngineService::start(ServiceConfig {
                workers: 1,
                capacity: 2,
                ..ServiceConfig::default()
            });
            let result = service
                .submit_spec(JobSpec::deck(name, deck).model(model))
                .expect("queue has room")
                .wait();
            net_json(&result)
        }
    };
    let report = rlc_lint::lint_deck(deck);
    let lint = if report.is_spotless() {
        String::new()
    } else {
        format!(", \"lint\": {}", report.annotation_json())
    };
    format!(
        "{{\"proto\": \"rlc-serve/1\", \"type\": \"result\", \"cache\": \"miss\", \"net\": {net}{lint}}}"
    )
}

fn request_line(name: &str, deck: &str, model: TimingModel) -> String {
    format!("analyze name={name} model={}\n{deck}.\n", model.id())
}

fn exchange(writer: &mut TcpStream, reader: &mut impl BufRead, request: &str) -> String {
    writer.write_all(request.as_bytes()).expect("send request");
    let mut line = String::new();
    reader.read_line(&mut line).expect("read response");
    assert!(line.ends_with('\n'), "response line is newline-terminated");
    line.trim_end().to_owned()
}

/// Runs the full mixed workload against a server with `workers` engine
/// threads; returns (per-client transcripts, final stats report).
fn run_workload(workers: usize) -> (BTreeMap<usize, Vec<String>>, String) {
    // Cache disabled: every response must take the engine path, so each
    // is comparable to a direct engine run.
    let server = Server::bind(
        ("127.0.0.1", 0),
        ServeConfig {
            workers,
            queue_capacity: 32,
            cache: CacheConfig {
                capacity: 0,
                ttl: None,
            },
            ..ServeConfig::default()
        },
    )
    .expect("bind ephemeral");
    let addr = server.local_addr();
    let accept_loop = std::thread::spawn(move || server.run());

    let clients: Vec<_> = client_scripts()
        .into_iter()
        .enumerate()
        .map(|(client, script)| {
            std::thread::spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
                let mut writer = stream;
                let transcript: Vec<String> = script
                    .iter()
                    .map(|(name, deck, model)| {
                        exchange(&mut writer, &mut reader, &request_line(name, deck, *model))
                    })
                    .collect();
                (client, transcript)
            })
        })
        .collect();
    let transcripts: BTreeMap<usize, Vec<String>> = clients
        .into_iter()
        .map(|handle| handle.join().expect("client thread"))
        .collect();

    let stats = shutdown(addr);
    let final_report = accept_loop
        .join()
        .expect("accept loop thread")
        .expect("accept loop result");
    assert_eq!(
        stats, final_report,
        "the shutdown response is the same report the accept loop returns"
    );
    (transcripts, final_report)
}

fn shutdown(addr: SocketAddr) -> String {
    let stream = TcpStream::connect(addr).expect("connect for shutdown");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    exchange(&mut writer, &mut reader, "shutdown\n")
}

#[test]
fn concurrent_mixed_traffic_matches_direct_engine_for_any_worker_count() {
    let mut runs = Vec::new();
    for workers in [1usize, 4] {
        let (transcripts, stats) = run_workload(workers);
        // Every response equals the direct engine verdict, byte for byte.
        for (client, script) in client_scripts().into_iter().enumerate() {
            for (request, response) in script.iter().zip(&transcripts[&client]) {
                let (name, deck, model) = request;
                assert_eq!(
                    response,
                    &direct_engine_response(name, deck, *model),
                    "workers={workers} client={client} name={name}"
                );
            }
        }
        runs.push((transcripts, stats));
    }
    let (transcripts_1, stats_1) = &runs[0];
    let (transcripts_4, stats_4) = &runs[1];
    assert_eq!(
        transcripts_1, transcripts_4,
        "transcripts are worker-independent"
    );
    assert_eq!(
        stats_1, stats_4,
        "the final stats report is worker-independent"
    );
}

#[test]
fn cache_hits_do_zero_engine_work_and_answer_under_the_callers_name() {
    let core = ServeCore::new(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    });
    let miss = core.analyze(AnalyzeRequest::new("first", LINE_DECK));
    assert!(miss.contains("\"cache\": \"miss\""), "{miss}");
    let jobs_after_miss = core.engine_stats().submitted;

    // Same circuit, different node names/spacing/value spellings.
    let respelled =
        "* same circuit\n.input  s\nRx s  a 2.5e1\nCx a 0 0.5p\nLy a b 5.0n\nCy b 0 1p\n.end\n";
    let hit = core.analyze(AnalyzeRequest::new("second", respelled));
    assert!(hit.contains("\"cache\": \"hit\""), "{hit}");
    assert!(hit.contains("\"name\": \"second\""), "{hit}");
    assert_eq!(
        core.engine_stats().submitted,
        jobs_after_miss,
        "hit did engine work"
    );

    // Beyond the name and the cache tag, the timing bytes are identical.
    let normalize = |line: &str, name: &str, tag: &str| {
        line.replace(&format!("\"name\": \"{name}\""), "\"name\": \"net\"")
            .replace(&format!("\"cache\": \"{tag}\""), "\"cache\": \"x\"")
    };
    assert_eq!(
        normalize(&miss, "first", "miss"),
        normalize(&hit, "second", "hit")
    );

    let stats = core.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
}

#[test]
fn model_selection_is_part_of_the_cache_key() {
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    });
    let mut eed = AnalyzeRequest::new("net", LINE_DECK);
    eed.model = TimingModel::Eed;
    let mut elmore = AnalyzeRequest::new("net", LINE_DECK);
    elmore.model = TimingModel::Elmore;
    let first = core.analyze(eed);
    let second = core.analyze(elmore);
    assert!(first.contains("\"cache\": \"miss\""), "{first}");
    assert!(
        second.contains("\"cache\": \"miss\""),
        "a different model must not reuse the EED result: {second}"
    );
    // The Elmore response is first-order: ζ is infinite, which the JSON
    // schema renders as null.
    assert!(second.contains("\"zeta\": null"), "{second}");
    assert_eq!(core.cache_stats().entries, 2);
}

#[test]
fn lint_gate_denies_underdamped_decks_but_warn_serves_them() {
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    });

    // LINE_DECK's sink is underdamped (ζ ≈ 0.265 < 0.5 → L201). The
    // default warn mode serves it, annotated.
    let warned = core.analyze(AnalyzeRequest::new("soft", LINE_DECK));
    assert!(warned.contains("\"status\": \"ok\""), "{warned}");
    assert!(warned.contains("\"lint\": {"), "{warned}");
    assert!(warned.contains("\"codes\": [\"L201\"]"), "{warned}");

    // lint=deny rejects the same deck with the documented code — even on
    // a warm cache — and never reaches the engine.
    let jobs = core.engine_stats().submitted;
    let mut gated = AnalyzeRequest::new("hard", LINE_DECK);
    gated.lint = LintMode::Deny;
    let denied = core.analyze(gated);
    assert!(denied.contains("\"type\": \"error\""), "{denied}");
    assert!(denied.contains("\"kind\": \"lint_denied\""), "{denied}");
    assert!(denied.contains("\"code\": \"L201\""), "{denied}");
    assert!(denied.contains("\"net\": \"hard\""), "{denied}");
    assert_eq!(
        core.engine_stats().submitted,
        jobs,
        "denial did engine work"
    );

    // A deck that lints spotless passes the deny gate untouched: no
    // lint member at all.
    let mut clean = AnalyzeRequest::new("clean", "R1 in n1 100\nL2 n1 n2 1n\nC2 n2 0 1p\n");
    clean.lint = LintMode::Deny;
    let served = core.analyze(clean);
    assert!(served.contains("\"status\": \"ok\""), "{served}");
    assert!(!served.contains("\"lint\""), "{served}");

    // lint=off skips the analyzer entirely, findings or not.
    let mut off = AnalyzeRequest::new("off", LINE_DECK);
    off.lint = LintMode::Off;
    let unchecked = core.analyze(off);
    assert!(unchecked.contains("\"status\": \"ok\""), "{unchecked}");
    assert!(!unchecked.contains("\"lint\""), "{unchecked}");

    // The lint verb reports the full diagnostics without engine work.
    let jobs = core.engine_stats().submitted;
    let report = core.lint(&LintRequest {
        name: "probe-deck".to_owned(),
        deck: LINE_DECK.to_owned(),
    });
    assert!(report.contains("\"type\": \"lint\""), "{report}");
    assert!(report.contains("\"deck\": \"probe-deck\""), "{report}");
    assert!(report.contains("\"code\": \"L201\""), "{report}");
    assert_eq!(core.engine_stats().submitted, jobs, "lint did engine work");

    // The denial is counted in the final stats.
    core.drain();
    assert!(
        core.final_stats().contains("\"lint_denied\": 1"),
        "{}",
        core.final_stats()
    );
}

#[test]
fn admission_failures_are_typed_and_scoped() {
    let core = std::sync::Arc::new(ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 1,
        cache: CacheConfig {
            capacity: 0,
            ttl: None,
        },
        ..ServeConfig::default()
    }));
    // Pin the single worker, then overflow the single-slot queue.
    let pinned = {
        let core = std::sync::Arc::clone(&core);
        std::thread::spawn(move || {
            let mut request = AnalyzeRequest::new("pinned", LINE_DECK);
            request.sleep_ms = Some(150);
            core.analyze(request)
        })
    };
    while core.engine_stats().submitted == 0 {
        std::thread::sleep(Duration::from_millis(1));
    }
    let rejected = core.analyze(AnalyzeRequest::new("spill", THIRD_DECK));
    assert!(rejected.contains("\"type\": \"error\""), "{rejected}");
    assert!(rejected.contains("\"kind\": \"overloaded\""), "{rejected}");
    assert!(rejected.contains("\"net\": \"spill\""), "{rejected}");
    assert!(pinned.join().unwrap().contains("\"status\": \"ok\""));

    // Deadline expiry is a *result* (the engine's verdict), not an
    // admission error.
    let mut stale = AnalyzeRequest::new("stale", THIRD_DECK);
    stale.deadline_ms = Some(0);
    stale.sleep_ms = Some(10);
    let sheded = core.analyze(stale);
    assert!(sheded.contains("\"type\": \"result\""), "{sheded}");
    assert!(sheded.contains("deadline"), "{sheded}");

    core.drain();
    let late = core.analyze(AnalyzeRequest::new("late", LINE_DECK));
    assert!(late.contains("\"kind\": \"shutting_down\""), "{late}");
    assert!(core.final_stats().contains("\"rejected_shutdown\": 1"));
}

#[test]
fn framing_violations_close_only_their_connection() {
    let server = Server::bind(("127.0.0.1", 0), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let accept_loop = std::thread::spawn(move || server.run());

    // A garbage verb gets a typed bad_request and then EOF.
    let stream = TcpStream::connect(addr).expect("connect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let answer = exchange(&mut writer, &mut reader, "launch missiles\n");
    assert!(answer.contains("\"kind\": \"bad_request\""), "{answer}");
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("read"),
        0,
        "connection closed"
    );

    // The server is still serving other connections.
    let stream = TcpStream::connect(addr).expect("reconnect");
    let mut reader = BufReader::new(stream.try_clone().expect("clone"));
    let mut writer = stream;
    let healthy = exchange(
        &mut writer,
        &mut reader,
        &request_line("fresh", LINE_DECK, TimingModel::Eed),
    );
    assert!(healthy.contains("\"status\": \"ok\""), "{healthy}");

    let stats = shutdown(addr);
    assert!(stats.contains("\"bad_requests\": 1"), "{stats}");
    // The healthy connection was left open and idle; shutdown must not
    // block on it — the server EOFs it instead.
    let mut rest = String::new();
    assert_eq!(
        reader.read_line(&mut rest).expect("read after shutdown"),
        0,
        "idle connection is closed by shutdown"
    );
    accept_loop.join().expect("thread").expect("run");
}

#[test]
fn stdio_session_flushes_the_final_report_on_eof() {
    let input = format!(
        "analyze name=one\n{LINE_DECK}.\nprobe\n" // no shutdown: EOF ends it
    );
    let mut output = Vec::new();
    serve_stdio(ServeConfig::default(), &mut input.as_bytes(), &mut output).expect("stdio session");
    let text = String::from_utf8(output).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"type\": \"result\""), "{text}");
    assert!(lines[1].contains("\"type\": \"probe\""), "{text}");
    assert!(lines[2].contains("\"type\": \"stats\""), "{text}");
    assert!(lines[2].contains("\"requests\": 2"), "{text}");
}

/// Bytes that are not UTF-8 are a framing error like any other: the
/// session answers with a typed `bad_request`, counts it, and still ends
/// with the final stats report.
#[test]
fn stdio_session_answers_non_utf8_with_bad_request() {
    let input: &[u8] = b"probe\n\xff\xfe bogus\nprobe\n";
    let mut output = Vec::new();
    serve_stdio(ServeConfig::default(), &mut &input[..], &mut output).expect("stdio session");
    let text = String::from_utf8(output).expect("utf8 output");
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 3, "{text}");
    assert!(lines[0].contains("\"type\": \"probe\""), "{text}");
    assert!(lines[1].contains("\"kind\": \"bad_request\""), "{text}");
    assert!(lines[1].contains("not valid UTF-8"), "{text}");
    assert!(lines[2].contains("\"type\": \"stats\""), "{text}");
    assert!(lines[2].contains("\"bad_requests\": 1"), "{text}");
}

/// Request bytes: arbitrary octets mixed with the protocol's own tokens,
/// so inputs reach past the header into deck framing.
fn request_byte() -> impl Strategy<Value = u8> {
    prop_oneof![
        any::<u32>().prop_map(|x| x as u8),
        proptest::sample::select(
            b"\n\n\n.. ==analyze couple optimize lint probe trace name".to_vec()
        ),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Whatever a peer sends, framing ends in a request, a typed
    /// malformed outcome or EOF; it never panics or fails.
    #[test]
    fn read_request_never_panics_or_fails(bytes in proptest::collection::vec(request_byte(), 0..=512)) {
        let mut reader = Cursor::new(bytes);
        loop {
            match read_request(&mut reader) {
                Ok(ReadOutcome::Request(_)) => {}
                Ok(ReadOutcome::Eof | ReadOutcome::Malformed(_)) => break,
                Err(e) => return Err(TestCaseError::fail(format!("read_request failed: {e}"))),
            }
        }
    }
}

/// Eviction and TTL-expiry counters flow from the cache through the
/// `stats` report and the `metrics` verb. Three distinct circuits through
/// a 2-entry cache force one LRU eviction; re-requesting the victim
/// misses, re-inserts, and evicts again.
#[test]
fn eviction_counters_reach_stats_and_metrics() {
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: CacheConfig {
            capacity: 2,
            ttl: None,
        },
        ..ServeConfig::default()
    });
    let deck = |seed: u32| format!("R1 in n1 {seed}\nC1 n1 0 0.5p\n");
    for seed in [10, 20, 30] {
        assert!(
            core.analyze(AnalyzeRequest::new("churn", deck(seed)))
                .contains("\"cache\": \"miss\""),
            "distinct circuits must miss"
        );
    }
    let stats = core.cache_stats();
    assert_eq!(stats.evictions, 1, "third insert evicts the LRU entry");
    assert_eq!(stats.entries, 2);
    // The evicted first circuit misses again, and its re-insert evicts
    // the (now least recently used) second circuit.
    assert!(core
        .analyze(AnalyzeRequest::new("churn", deck(10)))
        .contains("\"cache\": \"miss\""));
    assert_eq!(core.cache_stats().evictions, 2);

    let metrics = core.metrics();
    assert!(metrics.contains("\"evictions\": 2"), "{metrics}");
    assert!(metrics.contains("\"misses\": 4"), "{metrics}");
    core.drain();
    let report = core.final_stats();
    assert!(report.contains("\"evictions\": 2"), "{report}");
}

/// A zero TTL lapses by the time of the next lookup: the repeat request
/// misses, the stale entry is dropped eagerly, and the `expired` counter
/// reaches both report surfaces.
#[test]
fn ttl_expiry_counters_reach_stats_and_metrics() {
    let core = ServeCore::new(ServeConfig {
        workers: 1,
        queue_capacity: 4,
        cache: CacheConfig {
            capacity: 8,
            ttl: Some(Duration::ZERO),
        },
        ..ServeConfig::default()
    });
    assert!(core
        .analyze(AnalyzeRequest::new("ttl", LINE_DECK))
        .contains("\"cache\": \"miss\""));
    assert!(
        core.analyze(AnalyzeRequest::new("ttl", LINE_DECK))
            .contains("\"cache\": \"miss\""),
        "a lapsed entry must not serve"
    );
    let stats = core.cache_stats();
    assert_eq!(stats.expired, 1);
    assert_eq!(stats.hits, 0);

    let metrics = core.metrics();
    assert!(metrics.contains("\"expired\": 1"), "{metrics}");
    core.drain();
    let report = core.final_stats();
    assert!(report.contains("\"expired\": 1"), "{report}");
}

/// A two-net coupled group: an overdamped victim line capacitively coupled
/// to a short RC aggressor.
const COUPLED_DECK: &str = "\
.net victim
R1 in n1 100
L1 n1 n2 1n
C1 n2 0 1p
.net agg
R1 in m1 40
C1 m1 0 0.3p
K1 victim.n2 agg.m1 0.1p
";

/// The `couple` verb's full transcript — crosstalk result, per-group
/// parse error, coupling-reference error, final stats — is byte-identical
/// at every worker count, exactly like `analyze`.
#[test]
fn couple_transcripts_are_byte_identical_across_worker_counts() {
    let input = format!(
        "couple name=bus\n{COUPLED_DECK}.\n\
         couple name=bad\n.net a\nR1 in n1 oops\n.\n\
         couple name=ghostly\n.net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n.\n\
         shutdown\n"
    );
    let mut transcripts = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        let mut output = Vec::new();
        serve_stdio(
            ServeConfig {
                workers,
                queue_capacity: 32,
                cache: CacheConfig {
                    capacity: 0,
                    ttl: None,
                },
                ..ServeConfig::default()
            },
            &mut input.as_bytes(),
            &mut output,
        )
        .expect("stdio session");
        transcripts.push(String::from_utf8(output).expect("utf8 output"));
    }
    let first = &transcripts[0];
    let lines: Vec<&str> = first.lines().collect();
    assert_eq!(lines.len(), 4, "{first}");
    assert!(lines[0].contains("\"type\": \"result\""), "{first}");
    assert!(
        lines[0].contains("\"group\": {\"schema\": \"rlc-couple/1\""),
        "{first}"
    );
    assert!(lines[0].contains("\"name\": \"bus\""), "{first}");
    assert!(lines[0].contains("\"victims\": ["), "{first}");
    assert!(lines[0].contains("\"noise_peak\""), "{first}");
    assert!(lines[1].contains("\"schema\": \"rlc-couple/1\""), "{first}");
    assert!(lines[1].contains("\"status\": \"error\""), "{first}");
    assert!(lines[1].contains("\"name\": \"bad\""), "{first}");
    assert!(lines[2].contains("\"status\": \"error\""), "{first}");
    assert!(
        lines[2].contains("unknown net"),
        "a dangling coupling reference is a typed per-group error: {first}"
    );
    assert!(lines[3].contains("\"type\": \"stats\""), "{first}");
    assert!(
        lines[3].contains("\"submitted\": 1"),
        "only the well-formed group reaches the engine: {first}"
    );
    for (i, transcript) in transcripts.iter().enumerate().skip(1) {
        assert_eq!(
            transcript,
            first,
            "transcript differs between 1 worker and {} workers",
            [1, 2, 4, 8][i]
        );
    }
}

/// Coupled-group results are content-addressed by the canonical coupled
/// deck: a respelled group (different node names, whitespace, value and
/// coupling-label spellings) hits the cache, does zero engine work, and
/// answers under the caller's name. The `couple` outcome class and the
/// summed cache counters reach the metrics report.
#[test]
fn couple_cache_hits_share_one_engine_run_across_respellings() {
    let core = ServeCore::new(ServeConfig {
        workers: 2,
        queue_capacity: 8,
        cache: CacheConfig::default(),
        ..ServeConfig::default()
    });
    let mut first = CoupleRequest::new("first", COUPLED_DECK);
    first.lint = LintMode::Off;
    let miss = core.couple(first);
    assert!(miss.contains("\"cache\": \"miss\""), "{miss}");
    assert!(miss.contains("\"schema\": \"rlc-couple/1\""), "{miss}");
    assert!(miss.contains("\"status\": \"ok\""), "{miss}");
    let jobs_after_miss = core.engine_stats().submitted;

    // The same group, respelled: renamed nodes, scientific-notation
    // values, a different coupling label, extra whitespace and comments.
    let respelled = "* same group, respelled\n\
        .net victim\nRa in  x 1e2\nLb x y 1n\nCc y 0 1000f\n\
        .net agg\nRz in q 4.0e1\nCq q 0 0.30p\n\
        K9 victim.y agg.q 1e-13\n";
    let mut second = CoupleRequest::new("second", respelled);
    second.lint = LintMode::Off;
    let hit = core.couple(second);
    assert!(hit.contains("\"cache\": \"hit\""), "{hit}");
    assert!(hit.contains("\"name\": \"second\""), "{hit}");
    assert_eq!(
        core.engine_stats().submitted,
        jobs_after_miss,
        "hit did engine work"
    );

    // Beyond the group label and the cache tag, the crosstalk bytes are
    // identical.
    let normalize = |line: &str, name: &str, tag: &str| {
        line.replace(&format!("\"name\": \"{name}\""), "\"name\": \"group\"")
            .replace(&format!("\"cache\": \"{tag}\""), "\"cache\": \"x\"")
    };
    assert_eq!(
        normalize(&miss, "first", "miss"),
        normalize(&hit, "second", "hit")
    );

    let stats = core.cache_stats();
    assert_eq!((stats.hits, stats.misses, stats.entries), (1, 1, 1));
    let metrics = core.metrics();
    assert!(metrics.contains("\"couple\": 1"), "{metrics}");
    assert!(metrics.contains("\"cache_hit\": 1"), "{metrics}");

    // Coupled decks honour the lint gate like any other: the coupled
    // linter's verdict (here L401, unknown coupling net) denies.
    let mut gated = CoupleRequest::new(
        "gated",
        ".net a\nR1 in n1 10\nC1 n1 0 1p\nK1 a.n1 ghost.n1 0.1p\n",
    );
    gated.lint = LintMode::Deny;
    let denied = core.couple(gated);
    assert!(denied.contains("\"kind\": \"lint_denied\""), "{denied}");
    assert!(denied.contains("\"code\": \"L401\""), "{denied}");
}
