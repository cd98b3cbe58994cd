//! Seeded inputs for the four workloads.
//!
//! Every request is a pure function of `(seed, workload, connection,
//! index)`, so a run's inputs never depend on timing or on how far the
//! other connection got. The program under test only ever sees the wire
//! bytes built here.

use std::collections::HashSet;

use rlc_lint::lint_deck;
use rlc_serve::ResultCache;
use rlc_tree::coupled::CoupledGroup;
use rlc_tree::netlist::Netlist;
use rlc_tree::synth::SynthDeck;

/// Closed-loop client connections (one per core of the reference host).
pub const CONNECTIONS: usize = 2;
/// Warm-up requests per connection; 512 in total.
pub const WARMUP_PER_CONN: usize = 256;
/// Requests per connection the self-check regenerates: the warm-up plus
/// the traced replay's share.
const CHECK_PER_CONN: usize = 756;
/// Requests per connection whose cache keys the self-check computes. Every
/// cold and heavy base recurs among them; in the timed window the server's
/// own hit counter checks the rest.
const KEY_CHECK_PER_CONN: usize = 128;

const CLOCK_SPINE: &str = include_str!("../decks/clock_spine.sp");
const RC_LINE: &str = include_str!("../decks/rc_line.sp");
const UNDERDAMPED_BUS: &str = include_str!("../decks/underdamped_bus.sp");
const COUPLED_BUS: &str = include_str!("../decks/coupled_bus.sp");
const SYNTH_CLOCKNET: &str = include_str!("../decks/synth_clocknet.sp");

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    AnalyzeHot,
    AnalyzeCold,
    EngineHeavy,
    Mixed,
}

impl Kind {
    pub const ALL: [Kind; 4] = [
        Kind::AnalyzeHot,
        Kind::AnalyzeCold,
        Kind::EngineHeavy,
        Kind::Mixed,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Kind::AnalyzeHot => "analyze_hot",
            Kind::AnalyzeCold => "analyze_cold",
            Kind::EngineHeavy => "engine_heavy",
            Kind::Mixed => "mixed",
        }
    }

    pub fn from_name(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Analyze,
    Couple,
    Optimize,
    Lint,
}

impl Verb {
    fn word(self) -> &'static str {
        match self {
            Verb::Analyze => "analyze",
            Verb::Couple => "couple",
            Verb::Optimize => "optimize",
            Verb::Lint => "lint",
        }
    }
}

/// The outcome a response must show; every response is checked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Expect {
    /// `type: result` whose verdict has `status: ok`.
    Ok,
    /// `type: result` whose verdict is a typed netlist error.
    NetlistError,
    /// `type: lint`, the full report.
    Lint,
    /// `type: error` with `kind: lint_denied`.
    LintDenied,
}

/// One request: its wire bytes and what its response must look like.
#[derive(Debug, Clone)]
pub struct Req {
    verb: Verb,
    pub name: String,
    pub wire: Vec<u8>,
    expect: Expect,
    /// The `cache` field the response must carry, where the workload fixes
    /// it; `None` accepts `hit` or `miss`.
    cache: Option<&'static str>,
    header_len: usize,
}

impl Req {
    fn new(verb: Verb, name: String, deny: bool, deck: &[&str], expect: Expect) -> Self {
        let header = format!(
            "{} name={name}{}\n",
            verb.word(),
            if deny { " lint=deny" } else { "" }
        );
        let mut wire =
            Vec::with_capacity(header.len() + deck.iter().map(|p| p.len()).sum::<usize>() + 2);
        wire.extend_from_slice(header.as_bytes());
        for part in deck {
            wire.extend_from_slice(part.as_bytes());
        }
        wire.extend_from_slice(b".\n");
        Req {
            verb,
            name,
            wire,
            expect,
            cache: None,
            header_len: header.len(),
        }
    }

    fn cached(mut self, cache: &'static str) -> Self {
        self.cache = Some(cache);
        self
    }

    /// The deck body, without the header line and the `.` terminator.
    fn deck(&self) -> &str {
        std::str::from_utf8(&self.wire[self.header_len..self.wire.len() - 2])
            .expect("decks are generated as UTF-8")
    }

    /// Whether `response` has the proto, type, kind, cache field and
    /// verdict status this request expects. Compares the fixed prefix the
    /// server renders, so the check costs no JSON parse in the timed loop.
    pub fn accepts(&self, response: &str) -> bool {
        let name = &self.name;
        let head = "{\"proto\": \"rlc-serve/1\", \"type\": ";
        let Some(rest) = response.strip_prefix(head) else {
            return false;
        };
        let status = match self.expect {
            Expect::Lint => {
                return rest.starts_with(&format!("\"lint\", \"report\": {{\"deck\": \"{name}\""))
            }
            Expect::LintDenied => {
                return rest.starts_with(&format!(
                    "\"error\", \"kind\": \"lint_denied\", \"net\": \"{name}\""
                ))
            }
            Expect::Ok => "ok",
            Expect::NetlistError => "error",
        };
        let verdict = match self.verb {
            Verb::Analyze => format!("\"net\": {{\"name\": \"{name}\", \"status\": \"{status}\""),
            Verb::Couple => format!(
                "\"group\": {{\"schema\": \"rlc-couple/1\", \"name\": \"{name}\", \"status\": \"{status}\""
            ),
            Verb::Optimize => format!(
                "\"synth\": {{\"schema\": \"rlc-synth/1\", \"name\": \"{name}\", \"status\": \"{status}\""
            ),
            Verb::Lint => return false,
        };
        let allowed: &[&str] = match self.cache {
            Some(cache) => &[cache][..],
            None => &["hit", "miss"],
        };
        allowed.iter().any(|cache| {
            rest.strip_prefix(&format!("\"result\", \"cache\": \"{cache}\", "))
                .is_some_and(|tail| tail.starts_with(&verdict))
        })
    }
}

/// SplitMix64: small, seedable and identical on every platform.
struct Rng(u64);

impl Rng {
    /// A generator for one `(seed, stream, a, b)` coordinate.
    fn at(seed: u64, stream: u64, a: u64, b: u64) -> Self {
        let mut rng = Rng(seed ^ 0x5851_f42d_4c95_7f2d);
        for word in [stream, a, b] {
            rng.0 ^= word.wrapping_mul(0x9e37_79b9_7f4a_7c15);
            rng.next_u64();
        }
        rng
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    fn range(&mut self, lo: u32, hi: u32) -> u32 {
        lo + self.below((hi - lo + 1) as usize) as u32
    }
}

/// One series card of a generated tree: node `k` (1-based, the card's
/// position) hangs off `parent` (0 is the source) through an R or an L,
/// with `cap_ff` femtofarads to ground at node `k`.
struct Section {
    parent: usize,
    inductor: bool,
    value: u32,
    cap_ff: u32,
}

/// A random RLC tree of exactly `n` sections: R-then-L segments that
/// mostly extend the last segment and sometimes branch off an earlier
/// node. Section 1 is always an R from the source.
fn random_tree(rng: &mut Rng, n: usize) -> Vec<Section> {
    let mut sections: Vec<Section> = Vec::with_capacity(n);
    let mut tip = 0;
    while sections.len() < n {
        let from = if sections.is_empty() || rng.unit() < 0.8 {
            tip
        } else {
            rng.below(sections.len()) + 1
        };
        sections.push(Section {
            parent: from,
            inductor: false,
            value: rng.range(5, 60),
            cap_ff: rng.range(10, 120),
        });
        tip = sections.len();
        if sections.len() < n {
            sections.push(Section {
                parent: tip,
                inductor: true,
                value: rng.range(100, 1500),
                cap_ff: rng.range(10, 120),
            });
            tip = sections.len();
        }
    }
    sections
}

/// A resistive line of `n` sections, the shape buffer insertion pays on.
fn rc_line(rng: &mut Rng, n: usize) -> Vec<Section> {
    (0..n)
        .map(|k| Section {
            parent: k,
            inductor: false,
            value: rng.range(40, 90),
            cap_ff: rng.range(50, 120),
        })
        .collect()
}

/// Marks where a request-unique value replaces section 1's resistance.
const FIRST_R: &str = "\u{1}";

/// Renders `sections` as netlist cards under one of four spellings: the
/// node names, card labels and source name differ, the card order and
/// values do not, so every spelling parses to the same tree.
fn render(sections: &[Section], spelling: usize, first_r: Option<&str>) -> String {
    use std::fmt::Write as _;

    let source = ["in", "src", "drv", "root"][spelling];
    let node = |k: usize| match (k, spelling) {
        (0, _) => source.to_owned(),
        (k, 0) => format!("n{k}"),
        (k, 1) => format!("a{k}"),
        (k, 2) => format!("net_{k}"),
        (k, _) => format!("x{k}y"),
    };
    let (r, l, c) = [
        ("R", "L", "C"),
        ("Rw", "Lw", "Cg"),
        ("Rseg", "Lseg", "Cload"),
        ("R_", "L_", "C_"),
    ][spelling];
    let mut out = String::new();
    if spelling != 0 {
        let _ = writeln!(out, ".input {source}");
    }
    for (i, s) in sections.iter().enumerate() {
        let k = i + 1;
        let (label, value) = match (s.inductor, k, first_r) {
            (false, 1, Some(first)) => (r, first.to_owned()),
            (false, _, _) => (r, s.value.to_string()),
            (true, _, _) => (l, format!("{}p", s.value)),
        };
        let _ = writeln!(out, "{label}{k} {} {} {value}", node(s.parent), node(k));
        let _ = writeln!(out, "{c}{k} {} 0 {}f", node(k), s.cap_ff);
    }
    out
}

/// A coupled group of `nets` trees of `sections` each, joined by
/// `couplings` K cards between nodes of different nets.
fn coupled_group(
    rng: &mut Rng,
    nets: usize,
    sections: usize,
    couplings: usize,
    first_r: Option<&str>,
) -> String {
    use std::fmt::Write as _;

    let names = ["v", "a", "b"];
    let mut out = String::new();
    for (net, name) in names.iter().enumerate().take(nets) {
        let _ = writeln!(out, ".net {name}");
        let tree = random_tree(rng, sections);
        out.push_str(&render(&tree, 0, if net == 0 { first_r } else { None }));
    }
    for k in 1..=couplings {
        let a = rng.below(nets);
        let b = (a + 1 + rng.below(nets - 1)) % nets;
        let (na, nb) = (rng.below(sections) + 1, rng.below(sections) + 1);
        let _ = writeln!(
            out,
            "K{k} {}.n{na} {}.n{nb} {}f",
            names[a],
            names[b],
            rng.range(10, 80)
        );
    }
    out
}

/// A synthesis deck: an RC line plus one buffer card and a driver.
fn synth_deck(rng: &mut Rng, sections: usize, first_r: Option<&str>) -> String {
    let line = rc_line(rng, sections);
    format!(
        "{}.lib buf r=120 cin=5f tin=15p\n.driver 100\n",
        render(&line, 0, first_r)
    )
}

/// A deck split around section 1's resistance, so a request-unique value
/// costs one concatenation instead of a re-render.
struct Template {
    head: String,
    tail: String,
    base_ohms: u32,
}

impl Template {
    fn new(rng: &mut Rng, deck: String) -> Self {
        let at = deck.find(FIRST_R).expect("template carries the marker");
        let base_ohms = rng.range(20, 60);
        Template {
            head: deck[..at].to_owned(),
            tail: deck[at + FIRST_R.len()..].to_owned(),
            base_ohms,
        }
    }

    /// The template's circuit with section 1 set to `base + unique·1e-9` Ω:
    /// distinct `unique` values give distinct trees and cache keys.
    fn request(&self, verb: Verb, name: String, unique: usize) -> Req {
        let value = format!("{}.{unique:09}", self.base_ohms);
        Req::new(
            verb,
            name,
            false,
            &[&self.head, &value, &self.tail],
            Expect::Ok,
        )
    }
}

/// Zipf(s = 1) ranks over `n` items.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut total = 0.0;
        let cdf = (1..=n)
            .map(|k| {
                total += 1.0 / k as f64;
                total
            })
            .collect::<Vec<_>>();
        Zipf(cdf.iter().map(|c| c / total).collect())
    }

    fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.0.partition_point(|&c| c < u).min(self.0.len() - 1)
    }
}

/// A workload's pools, built once per run before anything is timed.
pub struct Workload {
    kind: Kind,
    seed: u64,
    /// Hot: 64 circuits × 4 spellings. Mixed: the analyze pool.
    analyze: Vec<Vec<String>>,
    /// Cold: 511-section bases. Heavy: couple bases.
    templates: Vec<Template>,
    /// Heavy: optimize bases.
    synth_templates: Vec<Template>,
    couple: Vec<String>,
    optimize: Vec<String>,
    zipf_analyze: Zipf,
    zipf_other: Zipf,
}

const HOT_CIRCUITS: usize = 64;
const BASES: usize = 64;
const MIXED_ANALYZE: usize = 1024;
const MIXED_OTHER: usize = 256;

/// A size in `lo..=hi` for pool rank `rank`, spread evenly over the ranks.
/// Sizes follow the rank, not the seed, so a seed changes which circuits
/// are popular but not how large they are.
fn spread(rank: usize, lo: usize, hi: usize) -> usize {
    lo + rank * 151 % (hi - lo + 1)
}

/// The mixed workload's dangling-card deck: a typed netlist error.
fn dangling_deck() -> String {
    let body = RC_LINE.replace(".end\n", "");
    format!("{body}R9 x9 y9 40\n.end\n")
}

impl Workload {
    pub fn new(kind: Kind, seed: u64) -> Self {
        let mut rng = Rng::at(seed, kind as u64, u64::MAX, 0);
        let mut wl = Workload {
            kind,
            seed,
            analyze: Vec::new(),
            templates: Vec::new(),
            synth_templates: Vec::new(),
            couple: Vec::new(),
            optimize: Vec::new(),
            zipf_analyze: Zipf::new(MIXED_ANALYZE),
            zipf_other: Zipf::new(MIXED_OTHER),
        };
        match kind {
            Kind::AnalyzeHot => {
                wl.analyze = (0..HOT_CIRCUITS)
                    .map(|_| {
                        let tree = random_tree(&mut rng, 128);
                        (0..4).map(|s| render(&tree, s, None)).collect()
                    })
                    .collect();
            }
            Kind::AnalyzeCold => {
                wl.templates = (0..BASES)
                    .map(|_| {
                        let deck = render(&random_tree(&mut rng, 511), 0, Some(FIRST_R));
                        Template::new(&mut rng, deck)
                    })
                    .collect();
            }
            Kind::EngineHeavy => {
                wl.templates = (0..BASES)
                    .map(|_| {
                        let deck = coupled_group(&mut rng, 3, 48, 12, Some(FIRST_R));
                        Template::new(&mut rng, deck)
                    })
                    .collect();
                wl.synth_templates = (0..BASES)
                    .map(|_| {
                        let deck = synth_deck(&mut rng, 48, Some(FIRST_R));
                        Template::new(&mut rng, deck)
                    })
                    .collect();
            }
            Kind::Mixed => {
                let fixed = [CLOCK_SPINE, RC_LINE, UNDERDAMPED_BUS];
                wl.analyze = (0..MIXED_ANALYZE)
                    .map(|i| match fixed.get(i) {
                        Some(deck) => vec![(*deck).to_owned()],
                        None => {
                            let tree = random_tree(&mut rng, spread(i, 16, 256));
                            vec![render(&tree, i % 4, None)]
                        }
                    })
                    .collect();
                wl.couple = (0..MIXED_OTHER)
                    .map(|i| match i {
                        0 => COUPLED_BUS.to_owned(),
                        _ => coupled_group(
                            &mut rng,
                            spread(i, 2, 3),
                            spread(i, 8, 48),
                            spread(i, 2, 12),
                            None,
                        ),
                    })
                    .collect();
                wl.optimize = (0..MIXED_OTHER)
                    .map(|i| match i {
                        0 => SYNTH_CLOCKNET.to_owned(),
                        _ => synth_deck(&mut rng, spread(i, 16, 64), None),
                    })
                    .collect();
            }
        }
        wl
    }

    /// Request `i` of connection `conn`. Indices below
    /// [`WARMUP_PER_CONN`] are the warm-up.
    pub fn request(&self, conn: usize, i: usize) -> Req {
        let mut rng = Rng::at(self.seed, self.kind as u64, conn as u64, i as u64);
        let name = format!("c{conn}i{i}");
        let unique = i * CONNECTIONS + conn;
        match self.kind {
            Kind::AnalyzeHot => {
                // Each connection first analyzes all 64 circuits itself, so
                // from index 64 on every analyze it sends is a hit.
                if i < HOT_CIRCUITS {
                    let circuit = (conn * HOT_CIRCUITS / CONNECTIONS + i) % HOT_CIRCUITS;
                    return Req::new(
                        Verb::Analyze,
                        name,
                        false,
                        &[&self.analyze[circuit][i % 4]],
                        Expect::Ok,
                    );
                }
                let lint = rng.unit() < 0.1;
                let deck = &self.analyze[rng.below(HOT_CIRCUITS)][rng.below(4)];
                if lint {
                    Req::new(Verb::Lint, name, false, &[deck], Expect::Lint)
                } else {
                    Req::new(Verb::Analyze, name, false, &[deck], Expect::Ok).cached("hit")
                }
            }
            Kind::AnalyzeCold => self.templates[unique % BASES]
                .request(Verb::Analyze, name, unique)
                .cached("miss"),
            Kind::EngineHeavy => {
                let (verb, pool) = if i.is_multiple_of(2) {
                    (Verb::Couple, &self.templates)
                } else {
                    (Verb::Optimize, &self.synth_templates)
                };
                pool[(i / 2) % BASES]
                    .request(verb, name, unique)
                    .cached("miss")
            }
            Kind::Mixed => {
                let u = rng.unit();
                if u < 0.45 {
                    let deck = &self.analyze[self.zipf_analyze.sample(&mut rng)][0];
                    Req::new(Verb::Analyze, name, false, &[deck], Expect::Ok)
                } else if u < 0.60 {
                    let deck = &self.couple[self.zipf_other.sample(&mut rng)];
                    Req::new(Verb::Couple, name, false, &[deck], Expect::Ok)
                } else if u < 0.75 {
                    let deck = &self.optimize[self.zipf_other.sample(&mut rng)];
                    Req::new(Verb::Optimize, name, false, &[deck], Expect::Ok)
                } else if u < 0.95 {
                    let deck = &self.analyze[self.zipf_analyze.sample(&mut rng)][0];
                    Req::new(Verb::Lint, name, false, &[deck], Expect::Lint)
                } else if u < 0.975 {
                    Req::new(
                        Verb::Analyze,
                        name,
                        true,
                        &[UNDERDAMPED_BUS],
                        Expect::LintDenied,
                    )
                } else {
                    Req::new(
                        Verb::Analyze,
                        name,
                        false,
                        &[&dangling_deck()],
                        Expect::NetlistError,
                    )
                    .cached("miss")
                }
            }
        }
    }

    /// Requests `range` of connection `conn`.
    pub fn requests(&self, conn: usize, range: std::ops::Range<usize>) -> Vec<Req> {
        range.map(|i| self.request(conn, i)).collect()
    }

    /// `per_conn` requests of each connection interleaved round-robin from
    /// index `from`: the order a single-threaded replay sends them in.
    pub fn interleaved(&self, from: usize, per_conn: usize) -> Vec<Req> {
        (from..from + per_conn)
            .flat_map(|i| (0..CONNECTIONS).map(move |c| (c, i)))
            .map(|(c, i)| self.request(c, i))
            .collect()
    }
}

/// The server's cache key for a deck, or `None` when the deck does not
/// parse (or the verb never reaches the cache).
fn cache_key(verb: Verb, deck: &str) -> Option<String> {
    match verb {
        Verb::Analyze => Netlist::parse(deck)
            .ok()
            .map(|n| ResultCache::key("eed", &n.into_tree().canonical_deck())),
        Verb::Couple => CoupledGroup::parse(deck)
            .ok()
            .map(|g| ResultCache::key("couple", &g.canonical_deck())),
        Verb::Optimize => SynthDeck::parse(deck)
            .ok()
            .map(|d| ResultCache::key("synth", &d.canonical_deck())),
        Verb::Lint => None,
    }
}

/// Checks the generator before anything is timed: determinism, key
/// sharing and uniqueness, and the expected-error decks.
pub fn self_check(workload: &Workload) -> Result<(), String> {
    let again = Workload::new(workload.kind, workload.seed);
    for conn in 0..CONNECTIONS {
        for i in 0..CHECK_PER_CONN {
            if workload.request(conn, i).wire != again.request(conn, i).wire {
                return Err(format!(
                    "seed {} is not deterministic at c{conn}i{i}",
                    workload.seed
                ));
            }
        }
    }
    match workload.kind {
        Kind::AnalyzeHot => {
            let mut keys = HashSet::new();
            for (circuit, spellings) in workload.analyze.iter().enumerate() {
                let key = cache_key(Verb::Analyze, &spellings[0])
                    .ok_or_else(|| format!("hot circuit {circuit} does not parse"))?;
                if spellings[1..]
                    .iter()
                    .any(|deck| cache_key(Verb::Analyze, deck).as_ref() != Some(&key))
                {
                    return Err(format!(
                        "hot circuit {circuit}: respellings do not share one key"
                    ));
                }
                if !keys.insert(key) {
                    return Err(format!("hot circuit {circuit} duplicates another circuit"));
                }
            }
        }
        Kind::AnalyzeCold | Kind::EngineHeavy => {
            // Distinct keys across both connections: no request repeats a
            // circuit and the connections never share one.
            let mut keys = HashSet::new();
            for conn in 0..CONNECTIONS {
                for i in 0..KEY_CHECK_PER_CONN {
                    let req = workload.request(conn, i);
                    let key = cache_key(req.verb, req.deck())
                        .ok_or_else(|| format!("c{conn}i{i} does not parse"))?;
                    if !keys.insert(key) {
                        return Err(format!("c{conn}i{i} repeats an earlier circuit"));
                    }
                }
            }
        }
        Kind::Mixed => {
            if lint_deck(UNDERDAMPED_BUS).passes(true) {
                return Err("underdamped_bus.sp passes lint=deny".into());
            }
            if Netlist::parse(&dangling_deck()).is_ok() {
                return Err("the dangling-card deck parses".into());
            }
        }
    }
    Ok(())
}
