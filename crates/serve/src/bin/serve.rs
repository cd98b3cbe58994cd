//! The `rlc-serve` daemon.
//!
//! ```text
//! serve [--listen ADDR] [--stdio] [--smoke]
//!       [--workers N] [--queue N] [--cache-capacity N] [--cache-ttl-ms MS]
//!       [--metrics-interval SECS]
//! ```
//!
//! Default mode listens on `127.0.0.1:7199` and speaks the `rlc-serve/1`
//! line protocol (see `crates/serve/src/protocol.rs` and DESIGN.md §11).
//! `--stdio` serves a single session over stdin/stdout. `--smoke` runs
//! the self-contained conformance smoke used by CI: it exercises the
//! warm-cache, lint-gate, overload, deadline, drain, and telemetry
//! contracts at worker counts 1/2/4/8 and fails unless every transcript
//! — including the `metrics` snapshot — is byte-identical.
//!
//! `--metrics-interval SECS` makes the listening daemon print the
//! cumulative `rlc-trace/1` metrics report to stderr every SECS seconds
//! (the same document the `metrics` verb returns; see DESIGN.md §13).

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::ExitCode;
use std::sync::Arc;
use std::time::Duration;

use rlc_obs::TimeSource;
use rlc_serve::{
    serve_stdio, AnalyzeRequest, CacheConfig, CoupleRequest, LintMode, LintRequest,
    OptimizeRequest, ProtocolError, ServeConfig, ServeCore, Server, TelemetryConfig,
};

const USAGE: &str = "usage: serve [--listen ADDR] [--stdio] [--smoke]
             [--workers N] [--queue N] [--cache-capacity N] [--cache-ttl-ms MS]
             [--metrics-interval SECS]

modes (default: --listen 127.0.0.1:7199)
  --listen ADDR       accept rlc-serve/1 connections on ADDR
  --stdio             serve one session over stdin/stdout
  --smoke             run the CI conformance smoke and exit

sizing
  --workers N         engine worker threads (0 = machine-sized)
  --queue N           bound on outstanding engine jobs (default 64)
  --cache-capacity N  result-cache entries (0 disables; default 128)
  --cache-ttl-ms MS   result-cache time-to-live (default: no expiry)

telemetry
  --metrics-interval SECS
                      in listen mode, print the rlc-trace/1 metrics
                      report to stderr every SECS seconds (0 = off)";

enum Mode {
    Listen(String),
    Stdio,
    Smoke,
}

fn main() -> ExitCode {
    let mut mode = Mode::Listen("127.0.0.1:7199".to_owned());
    let mut config = ServeConfig {
        workers: 0,
        queue_capacity: 64,
        cache: CacheConfig::default(),
        telemetry: TelemetryConfig::default(),
    };
    let mut metrics_interval = Duration::ZERO;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| {
            args.next()
                .ok_or_else(|| format!("{flag} needs a value\n{USAGE}"))
        };
        let result: Result<(), String> = match arg.as_str() {
            "--listen" => take("--listen").map(|addr| mode = Mode::Listen(addr)),
            "--stdio" => {
                mode = Mode::Stdio;
                Ok(())
            }
            "--smoke" => {
                mode = Mode::Smoke;
                Ok(())
            }
            "--workers" => parse_usize(&mut take, "--workers").map(|n| config.workers = n),
            "--queue" => parse_usize(&mut take, "--queue").map(|n| config.queue_capacity = n),
            "--cache-capacity" => {
                parse_usize(&mut take, "--cache-capacity").map(|n| config.cache.capacity = n)
            }
            "--cache-ttl-ms" => parse_usize(&mut take, "--cache-ttl-ms")
                .map(|ms| config.cache.ttl = Some(Duration::from_millis(ms as u64))),
            "--metrics-interval" => parse_usize(&mut take, "--metrics-interval")
                .map(|secs| metrics_interval = Duration::from_secs(secs as u64)),
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown flag {other:?}\n{USAGE}")),
        };
        if let Err(message) = result {
            eprintln!("serve: {message}");
            return ExitCode::FAILURE;
        }
    }

    let outcome = match mode {
        Mode::Stdio => serve_stdio(config, &mut io::stdin().lock(), &mut io::stdout().lock())
            .map_err(|e| format!("stdio session failed: {e}")),
        Mode::Listen(addr) => listen(&addr, config, metrics_interval),
        Mode::Smoke => smoke(),
    };
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("serve: {message}");
            ExitCode::FAILURE
        }
    }
}

fn parse_usize(
    take: &mut impl FnMut(&str) -> Result<String, String>,
    flag: &str,
) -> Result<usize, String> {
    let value = take(flag)?;
    value
        .parse()
        .map_err(|_| format!("{flag} needs an unsigned integer, got {value:?}"))
}

fn listen(addr: &str, config: ServeConfig, metrics_interval: Duration) -> Result<(), String> {
    let server = Server::bind(addr, config).map_err(|e| format!("cannot bind {addr}: {e}"))?;
    eprintln!("rlc-serve/1 listening on {}", server.local_addr());
    if !metrics_interval.is_zero() {
        // Detached heartbeat: the thread does not keep the process alive
        // once the accept loop returns and main exits.
        let core = server.core();
        std::thread::spawn(move || loop {
            std::thread::sleep(metrics_interval);
            eprintln!("{}", core.metrics_report());
        });
    }
    let stats = server
        .run()
        .map_err(|e| format!("accept loop failed: {e}"))?;
    println!("{stats}");
    Ok(())
}

// ---------------------------------------------------------------------------
// The CI smoke.
// ---------------------------------------------------------------------------

/// Outstanding-job bound used by every smoke iteration. Admission bounds
/// queued + in-flight work, so with all workers pinned by held jobs the
/// accepted count is exactly this — independent of the worker count.
const SMOKE_CAPACITY: usize = 4;

/// One circuit, two exact spellings (whitespace, node names, labels, and
/// value notation differ; every value parses to the identical f64).
/// Telemetry config for the smoke: the logical time source maps every
/// measured interval to one quantum, so the `metrics` snapshot depends
/// only on *which* stages ran *how often* — byte-identical across
/// worker counts and machines (DESIGN.md §13).
fn smoke_telemetry() -> TelemetryConfig {
    TelemetryConfig {
        time: TimeSource::Logical { quantum_ns: 1024 },
        ..TelemetryConfig::default()
    }
}

const WARM_DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";
const WARM_DECK_RESPELLED: &str =
    "* same circuit, different spelling\n.input  s\nRa s  x 2.5e1\nCa x 0 0.5p\nLb x y 5.0n\nCb y 0 1p\n.end\n";

/// One coupled group, two exact spellings (same rules as the warm deck).
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
const COUPLED_DECK_RESPELLED: &str = "* same group, respelled\n\
.net victim\nRa in  x 1e2\nLb x y 1n\nCc y 0 1000f\n\
.net agg\nRz in q 4.0e1\nCq q 0 0.30p\n\
K9 victim.y agg.q 1e-13\n";

/// One synthesis deck, two exact spellings. The respelling also carries
/// an extra *unselected* `.lib` card: only the selected buffer addresses
/// the cache, so the deck must still hit.
const SYNTH_DECK: &str = "\
R1 in n1 900
C1 n1 0 0.9p
R2 n1 n2 900
C2 n2 0 0.9p
R3 n2 n3 900
C3 n3 0 0.9p
.lib bufx r=120 cin=5f tin=15p
.driver 100
.require n3 2n
";
const SYNTH_DECK_RESPELLED: &str = "* same net, respelled\n\
.input  s\nRa s  a 9.0e2\nCa a 0 0.90p\nRb a b 9e2\nCb b 0 0.9p\nRc b c 900\nCc c 0 0.9pF\n\
.lib slow r=900 cin=9f tin=90p\n.lib bufx r=1.2e2 cin=5.0f tin=15.0p\n.use bufx\n\
.driver 1e2\n.require c 2.0n\n.end\n";

fn expect(condition: bool, message: impl FnOnce() -> String) -> Result<(), String> {
    if condition {
        Ok(())
    } else {
        Err(format!("smoke failed: {}", message()))
    }
}

fn wait_until(what: &str, mut condition: impl FnMut() -> bool) -> Result<(), String> {
    let deadline = TimeSource::Wall.now() + Duration::from_secs(10);
    while !condition() {
        if TimeSource::Wall.now() > deadline {
            return Err(format!("smoke failed: timed out waiting for {what}"));
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    Ok(())
}

fn smoke() -> Result<(), String> {
    let mut transcripts = Vec::new();
    for workers in [1usize, 2, 4, 8] {
        transcripts.push((workers, smoke_one(workers)?));
    }
    let (_, reference) = &transcripts[0];
    for (workers, transcript) in &transcripts {
        expect(transcript == reference, || {
            format!("transcript at workers={workers} differs from workers=1")
        })?;
    }
    println!(
        "smoke ok: transcripts byte-identical across workers 1/2/4/8 ({} lines, {} bytes each)",
        reference.lines().count(),
        reference.len()
    );
    println!(
        "smoke ok: warm-cache analyze, couple and optimize did zero engine jobs; lint, overload, deadline and drain rejections all typed"
    );
    println!(
        "smoke ok: rlc-trace/1 metrics counted every outcome class and stayed byte-deterministic"
    );
    Ok(())
}

fn smoke_one(workers: usize) -> Result<String, String> {
    let fail = |what: &str, line: &str| format!("workers={workers}: {what}, got {line}");
    let core = Arc::new(ServeCore::new(ServeConfig {
        workers,
        queue_capacity: SMOKE_CAPACITY,
        cache: CacheConfig {
            capacity: 32,
            ttl: None,
        },
        telemetry: smoke_telemetry(),
    }));
    let mut transcript: Vec<String> = Vec::new();

    // 1. Warm cache: the second identical request must be a cache hit
    //    that performs zero engine work and differs from the first
    //    response only in the cache field; a respelled deck under a new
    //    name must hit too (content addressing).
    let r1 = core.analyze(AnalyzeRequest::new("warm", WARM_DECK));
    let jobs_before = core.engine_stats().submitted;
    let r2 = core.analyze(AnalyzeRequest::new("warm", WARM_DECK));
    let jobs_delta = core.engine_stats().submitted - jobs_before;
    expect(r1.contains("\"cache\": \"miss\""), || {
        fail("first analyze should miss", &r1)
    })?;
    expect(r2.contains("\"cache\": \"hit\""), || {
        fail("repeat analyze should hit", &r2)
    })?;
    expect(jobs_delta == 0, || {
        format!(
            "workers={workers}: warm-cache analyze submitted {jobs_delta} engine job(s), want 0"
        )
    })?;
    expect(
        r2 == r1.replacen("\"cache\": \"miss\"", "\"cache\": \"hit\"", 1),
        || {
            fail(
                "hit response should differ from the miss only in the cache field",
                &r2,
            )
        },
    )?;
    let r3 = core.analyze(AnalyzeRequest::new("alias", WARM_DECK_RESPELLED));
    expect(
        r3.contains("\"cache\": \"hit\"") && r3.contains("\"name\": \"alias\""),
        || fail("respelled deck should hit under the caller's name", &r3),
    )?;

    // 2. Lint gate (ISSUE 5 acceptance): WARM_DECK's sink sits at
    //    ζ ≈ 0.265 < 0.5, so the default warn mode serves it *with* the
    //    L201 annotation attached — on the miss and the hit alike —
    //    while lint=deny rejects it, typed like overload, before any
    //    cache or engine work.
    expect(
        r1.contains("\"lint\": {") && r1.contains("\"L201\"") && r1.contains("\"status\": \"ok\""),
        || fail("warn mode should serve the underdamped deck annotated", &r1),
    )?;
    let jobs_before = core.engine_stats().submitted;
    let mut gated = AnalyzeRequest::new("gated", WARM_DECK);
    gated.lint = LintMode::Deny;
    let r_denied = core.analyze(gated);
    expect(
        r_denied.contains("\"kind\": \"lint_denied\"")
            && r_denied.contains("\"code\": \"L201\"")
            && r_denied.contains("\"net\": \"gated\""),
        || fail("deny mode should reject the underdamped deck", &r_denied),
    )?;
    expect(core.engine_stats().submitted == jobs_before, || {
        format!("workers={workers}: lint denial must not reach the engine")
    })?;
    let r_lint = core.lint(&LintRequest {
        name: "warm".to_owned(),
        deck: WARM_DECK.to_owned(),
    });
    expect(
        r_lint.contains("\"type\": \"lint\"") && r_lint.contains("\"code\": \"L201\""),
        || fail("lint verb should report the full diagnostics", &r_lint),
    )?;

    // 3. A malformed deck is a typed per-net result, not a dead server.
    let r4 = core.analyze(AnalyzeRequest::new("broken", "R1 in n1 oops\n"));
    expect(
        r4.contains("\"type\": \"result\"") && r4.contains("\"status\": \"error\""),
        || fail("malformed deck should report a typed result error", &r4),
    )?;

    // 3b. Coupled groups ride the same pool and cache: a crosstalk miss
    //     whose verdict is the rlc-couple/1 report, a respelled group
    //     answered from the cache with zero engine work, and a typed
    //     per-group error for a group that does not parse.
    let c1 = core.couple(CoupleRequest::new("bus", COUPLED_DECK));
    expect(
        c1.contains("\"cache\": \"miss\"")
            && c1.contains("\"schema\": \"rlc-couple/1\"")
            && c1.contains("\"status\": \"ok\"")
            && c1.contains("\"noise_peak\""),
        || fail("first couple should miss with a crosstalk report", &c1),
    )?;
    let jobs_before = core.engine_stats().submitted;
    let c2 = core.couple(CoupleRequest::new("bus2", COUPLED_DECK_RESPELLED));
    expect(
        c2.contains("\"cache\": \"hit\"") && c2.contains("\"name\": \"bus2\""),
        || fail("respelled group should hit under the caller's name", &c2),
    )?;
    expect(core.engine_stats().submitted == jobs_before, || {
        format!("workers={workers}: warm-cache couple must not reach the engine")
    })?;
    let c3 = core.couple(CoupleRequest::new("cbroken", ".net a\nR1 in n1 oops\n"));
    expect(
        c3.contains("\"schema\": \"rlc-couple/1\"") && c3.contains("\"status\": \"error\""),
        || fail("malformed group should report a typed couple error", &c3),
    )?;

    // 3c. Synthesis rides the same pool and its own cache: an optimize
    //     miss whose verdict is the rlc-synth/1 buffer-insertion report,
    //     a respelled deck (with an extra unselected buffer card)
    //     answered from the cache with zero engine work, and a typed
    //     per-net error for a deck without a buffer library.
    let s1 = core.optimize(OptimizeRequest::new("clock", SYNTH_DECK));
    expect(
        s1.contains("\"cache\": \"miss\"")
            && s1.contains("\"schema\": \"rlc-synth/1\"")
            && s1.contains("\"status\": \"ok\"")
            && s1.contains("\"improvement\""),
        || fail("first optimize should miss with a synthesis report", &s1),
    )?;
    let jobs_before = core.engine_stats().submitted;
    let s2 = core.optimize(OptimizeRequest::new("clock2", SYNTH_DECK_RESPELLED));
    expect(
        s2.contains("\"cache\": \"hit\"") && s2.contains("\"name\": \"clock2\""),
        || {
            fail(
                "respelled synth deck should hit under the caller's name",
                &s2,
            )
        },
    )?;
    expect(core.engine_stats().submitted == jobs_before, || {
        format!("workers={workers}: warm-cache optimize must not reach the engine")
    })?;
    let s3 = core.optimize(OptimizeRequest::new(
        "sbroken",
        "R1 in n1 25\nC1 n1 0 0.5p\n",
    ));
    expect(
        s3.contains("\"schema\": \"rlc-synth/1\"") && s3.contains("\"status\": \"error\""),
        || fail("library-less deck should report a typed synth error", &s3),
    )?;

    // 4. Overload: pin the service with SMOKE_CAPACITY held jobs, then
    //    prove the next submission gets a typed rejection while every
    //    accepted job still completes.
    let jobs_before = core.engine_stats().submitted;
    let sleepers: Vec<_> = (0..SMOKE_CAPACITY)
        .map(|i| {
            let core = Arc::clone(&core);
            std::thread::spawn(move || {
                let mut request = AnalyzeRequest::new(
                    format!("sleeper{i}"),
                    format!("R1 in n1 {}\nC1 n1 0 0.5p\n", 10 + i),
                );
                request.sleep_ms = Some(600);
                core.analyze(request)
            })
        })
        .collect();
    wait_until("held jobs to be admitted", || {
        core.engine_stats().submitted >= jobs_before + SMOKE_CAPACITY as u64
    })?;
    let r5 = core.analyze(AnalyzeRequest::new(
        "overflow",
        "R1 in n1 99\nC1 n1 0 0.5p\n",
    ));
    expect(
        r5.contains("\"kind\": \"overloaded\"") && r5.contains("\"net\": \"overflow\""),
        || {
            fail(
                "submission beyond capacity should be a typed overload rejection",
                &r5,
            )
        },
    )?;
    let mut sleeper_lines = Vec::new();
    for sleeper in sleepers {
        let line = sleeper
            .join()
            .map_err(|_| format!("workers={workers}: sleeper thread panicked"))?;
        expect(line.contains("\"status\": \"ok\""), || {
            fail("held jobs should complete despite the overload", &line)
        })?;
        sleeper_lines.push(line);
    }
    // Thread completion order is scheduling-dependent; the protocol makes
    // no ordering promise across connections, so normalize for the
    // transcript comparison.
    sleeper_lines.sort();

    // 5. Deadline shedding: queue time counts, expired work is skipped.
    let mut stale = AnalyzeRequest::new("stale", "R1 in n1 77\nC1 n1 0 0.5p\n");
    stale.deadline_ms = Some(0);
    stale.sleep_ms = Some(20);
    let r6 = core.analyze(stale);
    expect(
        r6.contains("\"status\": \"error\"") && r6.contains("deadline"),
        || fail("expired deadline should be a typed result error", &r6),
    )?;

    // 6. Probe, drain, late rejection, final report.
    let probe = core.probe();
    expect(probe.contains("\"type\": \"probe\""), || {
        fail("probe should answer with live counters", &probe)
    })?;
    core.drain();
    let late = core.analyze(AnalyzeRequest::new("late", "R1 in n1 88\nC1 n1 0 0.5p\n"));
    expect(late.contains("\"kind\": \"shutting_down\""), || {
        fail(
            "post-drain submission should be a typed shutdown rejection",
            &late,
        )
    })?;
    let stats = core.final_stats();
    expect(stats.contains("\"type\": \"stats\""), || {
        fail("drain should flush a final stats report", &stats)
    })?;
    expect(stats.contains("\"lint_denied\": 1"), || {
        fail("the final report should count the lint denial", &stats)
    })?;

    // 7. Telemetry: every outcome class above left a mark. A framing
    //    error rounds out the set, then the `metrics` snapshot must
    //    carry the rlc-trace/1 schema tag and count each outcome; under
    //    the logical time source the whole document is deterministic,
    //    so it joins the byte-compared transcript. The `trace` verb
    //    reports raw wall-clock breakdowns — structurally checked only,
    //    never byte-compared (DESIGN.md §13).
    let bad = core.bad_request(&ProtocolError {
        message: "smoke framing probe".to_owned(),
    });
    expect(bad.contains("\"kind\": \"bad_request\""), || {
        fail("a framing error should be a typed bad_request", &bad)
    })?;
    let metrics = core.metrics();
    expect(metrics.contains("\"schema\": \"rlc-trace/1\""), || {
        fail("metrics should carry the rlc-trace/1 schema tag", &metrics)
    })?;
    for (outcome, count) in [
        ("\"ok\": 7", "warm miss, lint verb, four sleepers, probe"),
        ("\"couple\": 1", "the coupled-group miss"),
        ("\"synth\": 1", "the optimize miss"),
        (
            "\"cache_hit\": 4",
            "the repeat, the respelled alias, the respelled group and synth deck",
        ),
        ("\"lint_denied\": 1", "the deny-gated deck"),
        ("\"overloaded\": 1", "the overflow submission"),
        ("\"deadline\": 1", "the stale request"),
        (
            "\"error\": 3",
            "the malformed deck, group, and library-less synth deck",
        ),
        ("\"shutting_down\": 1", "the post-drain submission"),
        ("\"bad_request\": 1", "the framing probe"),
    ] {
        expect(metrics.contains(outcome), || {
            format!("workers={workers}: metrics should show {outcome} ({count}), got {metrics}")
        })?;
    }
    let trace = core.trace(3);
    expect(
        trace.contains("\"schema\": \"rlc-trace/1\"")
            && trace.contains("\"recent\": [")
            && trace.contains("\"slowest\": ["),
        || fail("trace should report recent and slowest requests", &trace),
    )?;

    transcript.extend([r1, r2, r3, r_denied, r_lint, r4, c1, c2, c3, s1, s2, s3, r5]);
    transcript.extend(sleeper_lines);
    transcript.extend([r6, probe, late, bad, metrics, stats]);

    // 8. The same contracts hold over an actual socket: miss, hit,
    //    lint verb, deny gate, probe, metrics, then shutdown — whose
    //    response must equal the final report the accept loop returns.
    let server = Server::bind(
        ("127.0.0.1", 0),
        ServeConfig {
            workers,
            queue_capacity: SMOKE_CAPACITY,
            cache: CacheConfig {
                capacity: 32,
                ttl: None,
            },
            telemetry: smoke_telemetry(),
        },
    )
    .map_err(|e| format!("workers={workers}: cannot bind smoke server: {e}"))?;
    let addr = server.local_addr();
    let accept_loop = std::thread::spawn(move || server.run());
    let tcp = (|| -> io::Result<Vec<String>> {
        let stream = TcpStream::connect(addr)?;
        let mut reader = BufReader::new(stream.try_clone()?);
        let mut writer = stream;
        let mut lines = Vec::new();
        for request in [
            "analyze name=tcp\nR1 in n1 25\nC1 n1 0 0.5p\n.\n",
            "analyze name=tcp\nR1 in n1 25\nC1 n1 0 0.5p\n.\n",
            "lint name=tcp\nR1 in n1 25\nC1 n1 0 0.5p\n.\n",
            "analyze name=tcpgated lint=deny\nR1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n.\n",
            "probe\n",
            "metrics\n",
            "shutdown\n",
        ] {
            writer.write_all(request.as_bytes())?;
            let mut line = String::new();
            reader.read_line(&mut line)?;
            lines.push(line.trim_end().to_owned());
        }
        Ok(lines)
    })()
    .map_err(|e| format!("workers={workers}: smoke TCP session failed: {e}"))?;
    let final_report = accept_loop
        .join()
        .map_err(|_| format!("workers={workers}: accept loop panicked"))?
        .map_err(|e| format!("workers={workers}: accept loop failed: {e}"))?;
    expect(tcp[0].contains("\"cache\": \"miss\""), || {
        fail("TCP first analyze should miss", &tcp[0])
    })?;
    expect(tcp[1].contains("\"cache\": \"hit\""), || {
        fail("TCP repeat analyze should hit", &tcp[1])
    })?;
    expect(tcp[2].contains("\"type\": \"lint\""), || {
        fail("TCP lint verb should answer with a report", &tcp[2])
    })?;
    expect(
        tcp[3].contains("\"kind\": \"lint_denied\"") && tcp[3].contains("\"code\": \"L201\""),
        || fail("TCP lint=deny should reject the underdamped deck", &tcp[3]),
    )?;
    expect(
        tcp[5].contains("\"type\": \"metrics\"") && tcp[5].contains("\"schema\": \"rlc-trace/1\""),
        || {
            fail(
                "TCP metrics should answer with an rlc-trace/1 report",
                &tcp[5],
            )
        },
    )?;
    expect(tcp[6] == final_report, || {
        format!(
            "workers={workers}: shutdown response {:?} differs from the accept loop's final report {final_report:?}",
            tcp[6]
        )
    })?;
    transcript.extend(tcp);

    Ok(transcript.join("\n"))
}
