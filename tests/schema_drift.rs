//! Golden schema descriptors: every versioned report surface in the
//! workspace is pinned by a descriptor under `tests/schemas/` listing the
//! key paths the surface may emit. This test renders one exemplar
//! document per surface, harvests every tagged subobject, and
//! byte-compares the resulting descriptors against the goldens.
//!
//! Regenerate after a deliberate schema change with:
//!
//! ```text
//! UPDATE_SCHEMAS=1 cargo test --test schema_drift
//! ```
//!
//! Renaming or removing a key within the same version tag fails here;
//! the fix is to bump the surface's `/N` suffix and regenerate.
//!
//! The file also checks the source rules clippy cannot express (A201,
//! A202, A301, A302; DESIGN.md §17), and runs `clippy-driver` with the
//! `[workspace.lints]` table over `tests/rule_fixtures/` to prove the lint
//! configuration rejects each rule's fixture.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::process::Command;

use rlc_engine::{Batch, CoupleBatch, Engine, SynthBatch};
use rlc_lint::{lint_deck, render_document};
use rlc_obs::json::{parse, quote, Value};
use rlc_obs::TimeSource;
use rlc_serve::{serve_stdio, ServeConfig, TelemetryConfig};
use rlc_tree::coupled::CoupledGroup;
use rlc_verify::{Conformance, CorpusSpec, Oracle, SynthConformance, SynthSpec};

/// Every versioned surface the workspace ships, in descriptor order.
const SURFACES: &[&str] = &[
    "rlc-couple/1",
    "rlc-engine-couple/1",
    "rlc-engine-synth/1",
    "rlc-engine/1",
    "rlc-lint/1",
    "rlc-serve/1",
    "rlc-synth/1",
    "rlc-trace/1",
    "rlc-verify-synth/1",
    "rlc-verify/1",
];

const LINE_DECK: &str = "R1 in n1 25\nC1 n1 0 0.5p\nL2 n1 n2 5n\nC2 n2 0 1p\n";

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

const SYNTH_DECK: &str = "\
R1 in n1 900
C1 n1 0 0.9p
.lib bufx r=120 cin=5f tin=15p
.driver 100
";

/// Walks a parsed document and, for every subobject tagged with a
/// `"schema"` or `"proto"` version string, merges that subobject's key
/// paths into the per-tag union.
fn harvest(doc: &Value, tags: &mut BTreeMap<String, BTreeSet<String>>) {
    match doc {
        Value::Object(map) => {
            let tag = doc
                .get("schema")
                .or_else(|| doc.get("proto"))
                .and_then(Value::as_str);
            if let Some(tag) = tag {
                if tag.starts_with("rlc-") && tag.contains('/') {
                    key_paths(doc, "", tags.entry(tag.to_owned()).or_default());
                }
            }
            for value in map.values() {
                harvest(value, tags);
            }
        }
        Value::Array(items) => {
            for item in items {
                harvest(item, tags);
            }
        }
        _ => {}
    }
}

/// Collects every key path in `doc` into `out`. Object keys append to
/// the dotted path; array elements contribute under `path[]`.
fn key_paths(doc: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match doc {
        Value::Object(map) => {
            for (key, child) in map {
                let path = if prefix.is_empty() {
                    key.clone()
                } else {
                    format!("{prefix}.{key}")
                };
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        Value::Array(items) => {
            let path = format!("{prefix}[]");
            for child in items {
                key_paths(child, &path, out);
            }
        }
        _ => {}
    }
}

/// Renders the descriptor document for `tag` (e.g. `rlc-lint/1`).
fn descriptor_json(tag: &str, keys: &BTreeSet<String>) -> String {
    let mut out = format!("{{\n  \"schema\": {},\n  \"keys\": [", quote(tag));
    for (i, key) in keys.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        out.push_str(&format!("{sep}\n    {}", quote(key)));
    }
    out.push_str(if keys.is_empty() {
        "]\n}\n"
    } else {
        "\n  ]\n}\n"
    });
    out
}

/// The canonical descriptor file name for a version tag:
/// `rlc-lint/1` → `rlc-lint-1.json`.
fn descriptor_file_name(tag: &str) -> String {
    format!("{}.json", tag.replace('/', "-"))
}

fn harvest_text(text: &str, tags: &mut BTreeMap<String, BTreeSet<String>>) {
    let doc = parse(text).unwrap_or_else(|e| panic!("exemplar is not valid JSON: {e:?}\n{text}"));
    harvest(&doc, tags);
}

fn logical_time_config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        telemetry: TelemetryConfig {
            time: TimeSource::Logical { quantum_ns: 32 },
            ..TelemetryConfig::default()
        },
        ..ServeConfig::default()
    }
}

/// One exemplar document per surface, chosen to exercise both the success
/// and the error shape of each report wherever the surface has both.
fn exemplars() -> BTreeMap<String, BTreeSet<String>> {
    let mut tags: BTreeMap<String, BTreeSet<String>> = BTreeMap::new();

    // rlc-engine/1: one healthy net, one parse failure.
    let mut batch = Batch::new();
    batch.push_deck("good", LINE_DECK);
    batch.push_deck("broken", "R1 in n1 oops\n");
    harvest_text(&Engine::with_workers(1).run(&batch).to_json(), &mut tags);

    // rlc-engine-couple/1 wrapping per-group rlc-couple/1 lines.
    let mut couple_batch = CoupleBatch::new();
    couple_batch.push_deck("bus", COUPLED_DECK);
    couple_batch.push_deck("broken", ".net a\nR1 in n1 oops\n");
    harvest_text(
        &Engine::with_workers(1).run_couple(&couple_batch).to_json(),
        &mut tags,
    );

    // rlc-couple/1 directly, for the standalone group report.
    let group = CoupledGroup::parse(COUPLED_DECK).expect("coupled deck parses");
    harvest_text(
        &rlc_couple::analyze_group(&group, "bus").to_json(),
        &mut tags,
    );

    // rlc-engine-synth/1 wrapping per-net rlc-synth/1 lines.
    let mut synth_batch = SynthBatch::new();
    synth_batch.push_deck("clk", SYNTH_DECK);
    synth_batch.push_deck("broken", ".lib b r=100 cin=4f tin=1p\nR1 in n1 oops\n");
    harvest_text(
        &Engine::with_workers(1).run_synth(&synth_batch).to_json(),
        &mut tags,
    );

    // rlc-verify/1: a tiny seeded conformance corpus.
    let conformance = Conformance::with_oracle(Oracle::with_max_steps(20_000));
    let spec = CorpusSpec {
        seed: 7,
        nets: 2,
        max_sections: 5,
    };
    harvest_text(&conformance.run(&spec).to_json(), &mut tags);

    // rlc-verify-synth/1: a tiny seeded synthesis-verification run.
    let synth_conf = SynthConformance {
        oracle: Oracle::with_max_steps(20_000),
        ..SynthConformance::default()
    };
    let synth_spec = SynthSpec {
        seed: 7,
        nets: 2,
        max_sections: 5,
    };
    harvest_text(&synth_conf.run(&synth_spec).to_json(), &mut tags);

    // rlc-lint/1: one clean deck, one deck with diagnostics.
    let reports = vec![
        ("good".to_owned(), lint_deck(LINE_DECK)),
        ("bad".to_owned(), lint_deck("R1 in n1 oops\n")),
    ];
    harvest_text(&render_document(&reports), &mut tags);

    // rlc-serve/1 (every response type) and the rlc-trace/1 report nested
    // in `metrics`. Logical time keeps the transcript deterministic.
    let config = logical_time_config();
    let input = format!(
        "analyze name=good\n{LINE_DECK}.\n\
         analyze name=broken\nR1 in n1 oops\n.\n\
         analyze name=gated lint=deny\n* empty deck\n.\n\
         couple name=bus\n{COUPLED_DECK}.\n\
         optimize name=clk\n{SYNTH_DECK}.\n\
         lint name=checked\n{LINE_DECK}.\n\
         probe\nmetrics\ntrace last=2\nshutdown\n"
    );
    let mut output = Vec::new();
    serve_stdio(config, &mut input.as_bytes(), &mut output).expect("stdio session");
    for line in String::from_utf8(output).expect("utf8 output").lines() {
        harvest_text(line, &mut tags);
    }

    // A framing error answers `bad_request` and ends that session, so it
    // gets a transcript of its own.
    let config = logical_time_config();
    let mut output = Vec::new();
    serve_stdio(config, &mut "bogus verb\n".as_bytes(), &mut output).expect("stdio session");
    for line in String::from_utf8(output).expect("utf8 output").lines() {
        harvest_text(line, &mut tags);
    }

    tags
}

#[test]
fn schema_descriptors_are_current() {
    let tags = exemplars();
    let found: Vec<&str> = tags.keys().map(String::as_str).collect();
    assert_eq!(
        found, SURFACES,
        "the set of versioned surfaces changed; update SURFACES and \
         regenerate with UPDATE_SCHEMAS=1 cargo test --test schema_drift"
    );

    let dir = Path::new("tests/schemas");
    if std::env::var_os("UPDATE_SCHEMAS").is_some() {
        std::fs::create_dir_all(dir).expect("create tests/schemas");
        for (tag, keys) in &tags {
            let path = dir.join(descriptor_file_name(tag));
            std::fs::write(&path, descriptor_json(tag, keys)).expect("write descriptor");
        }
    }

    // A stray descriptor fails `workspace_source_rules_hold` (A302); a
    // missing one fails here.
    for (tag, keys) in &tags {
        let path = dir.join(descriptor_file_name(tag));
        let golden = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("missing descriptor {}: {e}", path.display()));
        let rendered = descriptor_json(tag, keys);
        assert_eq!(
            golden, rendered,
            "schema drift in {tag}: key paths changed without bumping the \
             version; bump /N or regenerate with UPDATE_SCHEMAS=1 if the \
             change is deliberate"
        );
    }
}

/// Every `.rs` file under `dir`, recursively, in path order.
fn rust_files(dir: &Path) -> Vec<PathBuf> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|e| e.expect("dir entry").path())
        .collect();
    entries.sort();
    let mut files = Vec::new();
    for path in entries {
        if path.is_dir() {
            files.extend(rust_files(&path));
        } else if path.extension().is_some_and(|x| x == "rs") {
            files.push(path);
        }
    }
    files
}

fn fixture(name: &str) -> PathBuf {
    Path::new("tests/rule_fixtures").join(name)
}

/// Findings of the source rules over `files`, each prefixed by its rule
/// code; `schemas` is the descriptor directory.
/// - A201: every `// SAFETY:` comment block cites a DESIGN.md section.
/// - A202: every `get_unchecked` has a `debug_assert!` earlier in its
///   function, so debug builds check what the skipped bounds check would.
/// - A301: every `rlc-*/N` tag in code (not comments) is in [`SURFACES`].
/// - A302: every descriptor under `schemas` belongs to a [`SURFACES`] entry.
fn source_rule_findings(files: &[PathBuf], schemas: &Path) -> Vec<String> {
    let mut findings = Vec::new();
    for file in files {
        let text = std::fs::read_to_string(file).expect("read source");
        let lines: Vec<&str> = text.lines().collect();
        let mut finding = |code: &str, i: usize, what: &str| {
            findings.push(format!("{code} {}:{}: {what}", file.display(), i + 1));
        };
        let mut guarded = false;
        for (i, line) in lines.iter().enumerate() {
            // A `//` inside a string cuts the code short too, which can
            // only hide a match, never invent one.
            let code = line.split_once("//").map_or(*line, |(code, _)| code);
            if code.split_whitespace().any(|word| word == "fn") {
                guarded = false;
            }
            guarded |= code.contains("debug_assert");
            if code.contains("get_unchecked") && !guarded {
                finding("A202", i, "get_unchecked without an earlier debug_assert!");
            }
            if line.trim_start().starts_with("// SAFETY:")
                && !lines[i..]
                    .iter()
                    .take_while(|l| l.trim_start().starts_with("//"))
                    .any(|l| l.contains("DESIGN.md §"))
            {
                finding("A201", i, "SAFETY comment cites no DESIGN.md section");
            }
            let words = code.split(|c: char| !(c.is_ascii_alphanumeric() || c == '-' || c == '/'));
            for tag in words.filter(|w| w.starts_with("rlc-")) {
                let versioned = tag
                    .split_once('/')
                    .is_some_and(|(_, n)| !n.is_empty() && n.bytes().all(|b| b.is_ascii_digit()));
                if versioned && !SURFACES.contains(&tag) {
                    finding("A301", i, &format!("{tag} is not in SURFACES"));
                }
            }
        }
    }
    for path in std::fs::read_dir(schemas).into_iter().flatten() {
        let path = path.expect("dir entry").path();
        let name = path.file_name().expect("file name").to_string_lossy();
        if !SURFACES.iter().any(|tag| descriptor_file_name(tag) == name) {
            findings.push(format!("A302 {}: no SURFACES entry", path.display()));
        }
    }
    findings
}

#[test]
fn workspace_source_rules_hold() {
    let sources: Vec<PathBuf> = rust_files(Path::new("crates"))
        .into_iter()
        .filter(|path| path.iter().nth(2).is_some_and(|dir| dir == "src"))
        .collect();
    let findings = source_rule_findings(&sources, Path::new("tests/schemas"));
    assert!(findings.is_empty(), "{}", findings.join("\n"));
}

#[test]
fn source_rule_fixtures_fire() {
    for (name, codes) in [
        ("a202", &["A202"][..]),
        ("a301", &["A301"]),
        ("a302", &["A302"]),
        ("clean", &[]),
    ] {
        let files = rust_files(&fixture(name));
        let findings = source_rule_findings(&files, &fixture(name).join("tests/schemas"));
        let found: Vec<&str> = findings.iter().map(|f| &f[..4]).collect();
        assert_eq!(found, codes, "fixture {name}: {findings:#?}");
    }
}

/// Runs `clippy-driver` on a rule fixture with every lint of
/// `[workspace.lints.clippy]` in `Cargo.toml` denied and the repository's
/// `clippy.toml`; returns whether it passed and its JSON diagnostics.
fn clippy_fixture(name: &str, crate_type: &[&str]) -> (bool, String) {
    let manifest = std::fs::read_to_string("Cargo.toml").expect("read Cargo.toml");
    let (_, table) = manifest
        .split_once("[workspace.lints.clippy]\n")
        .expect("Cargo.toml has a [workspace.lints.clippy] table");
    let lints = table
        .lines()
        .take_while(|line| !line.starts_with('['))
        .filter_map(|line| line.split_once('=').map(|(name, _)| name.trim()))
        .filter(|name| !name.starts_with('#'));
    let mut cmd = Command::new("clippy-driver");
    cmd.args(crate_type)
        .args("--edition 2021 --emit metadata --error-format json -D warnings".split(' '))
        .arg("--out-dir")
        .arg(env!("CARGO_TARGET_TMPDIR"))
        .arg("--crate-name")
        .arg(format!("rule_fixture_{name}"))
        .env("CLIPPY_CONF_DIR", env!("CARGO_MANIFEST_DIR"));
    for lint in lints {
        cmd.arg("-D").arg(format!("clippy::{lint}"));
    }
    let output = cmd
        .arg(fixture(name).join("src/lib.rs"))
        .output()
        .expect("clippy-driver runs (install it with rustup component add clippy)");
    let diagnostics = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.success(), diagnostics)
}

#[test]
fn clippy_rejects_every_rule_fixture() {
    let lib: &[&str] = &["--crate-type", "lib"];
    // Rule code -> the lint its fixture must trip (DESIGN.md §17).
    for (name, lint) in [
        ("a001", "clippy::allow_attributes_without_reason"),
        ("a002", "unfulfilled_lint_expectations"),
        ("a101", "clippy::disallowed_types"),
        ("a102", "clippy::disallowed_methods"),
        ("a201", "clippy::undocumented_unsafe_blocks"),
        ("a202", "clippy::disallowed_methods"),
        ("a401", "clippy::panic"),
        ("a402", "clippy::todo"),
        ("a403", "clippy::unreachable"),
    ] {
        let (ok, diagnostics) = clippy_fixture(name, lib);
        assert!(
            !ok && diagnostics.contains(&format!("\"code\":{{\"code\":\"{lint}\"")),
            "fixture {name} must fail on {lint}:\n{diagnostics}"
        );
    }
    for crate_type in [lib, &["--test"]] {
        let (ok, diagnostics) = clippy_fixture("clean", crate_type);
        assert!(
            ok,
            "the clean fixture must pass as {crate_type:?}:\n{diagnostics}"
        );
    }
}
