//! No-panic property over the five hand-written text parsers (ROADMAP H(3)):
//! `FaultPlan::parse`, `Catalog::parse`, `Json::parse`, `openmetrics::parse`
//! and `alert::parse_rules`, fed seeded mutations of documents the repo
//! ships or renders — byte flips, truncations, duplicated, dropped, joined
//! and shuffled lines, numbers pushed to their extremes and one byte repeated
//! up to 2¹⁷ times. Each call returns `Ok` or its `Err`; a panic (a slice
//! off a char boundary, an index past the end, an overflow) fails the test.
//! The two grammars with a typed error also keep their line number inside
//! the document.

use ap3esm::comm::faultplan::FaultPlan;
use ap3esm::obs::alert::{parse_rules, serve_rules, sim_rules};
use ap3esm::obs::json::Json;
use ap3esm::obs::metrics::Metrics;
use ap3esm::obs::openmetrics;
use ap3esm::obs::tsdb::SeriesStore;
use ap3esm::obs::RunReport;
use ap3esm::scenario::dsl::Catalog;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const MUTANTS_PER_SEED: u64 = 500;

/// An index into `n` things (0 when there are none).
fn below(rng: &mut StdRng, n: usize) -> usize {
    rng.gen_range(0..n.max(1))
}

/// Numbers at and past the edges of what a field can hold.
const EXTREMES: [&str; 8] = [
    "0",
    "-1",
    "18446744073709551615",
    "18446744073709551616",
    "1e308",
    "-1e-320",
    "NaN",
    "inf",
];

/// One to four mutations of `doc`. Flipped bytes go through
/// `from_utf8_lossy`, so mutants also carry multi-byte replacement
/// characters wherever a flip broke the encoding.
fn mutate(doc: &str, rng: &mut StdRng) -> String {
    let mut text = doc.to_string();
    for _ in 0..1 + below(rng, 4) {
        text = match below(rng, 8) {
            0 => {
                let mut bytes = text.into_bytes();
                for _ in 0..1 + below(rng, 3) {
                    if !bytes.is_empty() {
                        let at = below(rng, bytes.len());
                        bytes[at] ^= 1 << below(rng, 8);
                    }
                }
                String::from_utf8_lossy(&bytes).into_owned()
            }
            1 => {
                let cut = below(rng, text.len() + 1);
                String::from_utf8_lossy(&text.as_bytes()[..cut]).into_owned()
            }
            2 => {
                // A run of digits becomes an extreme number.
                let digits: Vec<usize> = text
                    .char_indices()
                    .filter(|&(i, c)| {
                        c.is_ascii_digit() && !text[..i].ends_with(|p: char| p.is_ascii_digit())
                    })
                    .map(|(i, _)| i)
                    .collect();
                let Some(&start) = digits.get(below(rng, digits.len())) else {
                    continue;
                };
                let end = text[start..]
                    .find(|c: char| !c.is_ascii_digit())
                    .map_or(text.len(), |n| start + n);
                format!(
                    "{}{}{}",
                    &text[..start],
                    EXTREMES[below(rng, EXTREMES.len())],
                    &text[end..]
                )
            }
            3 => {
                // One byte of the document repeated: deep nesting, long tokens.
                if text.is_empty() {
                    continue;
                }
                let mut bytes = text.into_bytes();
                let at = below(rng, bytes.len());
                let run = vec![bytes[at]; 1 << (4 + below(rng, 14))];
                bytes.splice(at..at, run);
                String::from_utf8_lossy(&bytes).into_owned()
            }
            op => {
                let mut lines: Vec<&str> = text.split('\n').collect();
                let (a, b) = (below(rng, lines.len()), below(rng, lines.len()));
                match op {
                    4 => lines.insert(b, lines[a]),
                    5 => lines.swap(a, b),
                    6 => drop(lines.remove(a)),
                    _ => {}
                }
                // 7 joins every line: one statement's tokens run into the next's.
                lines.join(if op == 7 { "" } else { "\n" })
            }
        };
    }
    text
}

/// Every seed document unmutated first, then `MUTANTS_PER_SEED` mutants of it.
fn for_each_mutant(seeds: &[String], mut check: impl FnMut(&str)) {
    for (i, doc) in seeds.iter().enumerate() {
        check(doc);
        // The mutants are a function of the document's index and nothing else.
        let mut rng = StdRng::seed_from_u64(i as u64);
        for _ in 0..MUTANTS_PER_SEED {
            check(&mutate(doc, &mut rng));
        }
    }
}

fn shipped_catalogs() -> Vec<String> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("scenarios");
    let mut paths: Vec<_> = std::fs::read_dir(&dir)
        .expect("scenarios/ is shipped with the repo")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "scn"))
        .collect();
    paths.sort();
    assert!(!paths.is_empty(), "no .scn catalog under {}", dir.display());
    paths
        .iter()
        .map(|p| std::fs::read_to_string(p).expect("catalog is UTF-8 text"))
        .collect()
}

/// A registry with one metric of every kind, names that need sanitising
/// and a label value that needs escaping.
fn sample_metrics() -> (Metrics, SeriesStore) {
    let metrics = Metrics::default();
    metrics.counter("serve.served").add(1234);
    metrics.gauge("sim.sypd").set(1087.5);
    metrics.gauge("atm.lanes").set(f64::NAN);
    let h = metrics.histogram("serve.latency_us");
    for v in [120, 450, 451, 9000, 72_000] {
        h.record(v);
    }
    let store = SeriesStore::new(64);
    for i in 0..20 {
        store.record_at("sim.sypd", i as f64, 1000.0 + i as f64);
        store.record_at("odd \"name\"\\with\nescapes", i as f64, -0.5 * i as f64);
    }
    (metrics, store)
}

#[test]
fn fault_plan_parser_never_panics() {
    // The plans the shipped catalogs embed, in the plan file grammar.
    let mut seeds: Vec<String> = shipped_catalogs()
        .iter()
        .map(|text| Catalog::parse(text).expect("shipped catalog parses"))
        .flat_map(|catalog| catalog.scenarios)
        .map(|s| s.plan.to_string())
        .filter(|plan| !plan.trim().is_empty())
        .collect();
    seeds.push("seed 7\nkill rank=2 step=3\ndelay from=0 to=1 nth=2 ms=40\n".to_string());
    for_each_mutant(&seeds, |text| {
        if let Err(e) = FaultPlan::parse(text) {
            assert!(
                e.line <= text.lines().count().max(1),
                "line {} of a {}-line plan: {}",
                e.line,
                text.lines().count(),
                e.message
            );
        }
    });
}

#[test]
fn scenario_catalog_parser_never_panics() {
    for_each_mutant(&shipped_catalogs(), |text| {
        match Catalog::parse(text) {
            // What parses must also survive validation and rendering.
            Ok(catalog) => {
                let _ = catalog.validate();
                let _ = catalog.to_string();
            }
            Err(e) => assert!(
                e.line <= text.lines().count().max(1),
                "line {} of a {}-line catalog: {}",
                e.line,
                text.lines().count(),
                e.message
            ),
        }
    });
}

#[test]
fn json_parser_never_panics() {
    let (metrics, _) = sample_metrics();
    let mut report = RunReport::new("fuzz \"seed\"\t\u{1F30A}").meta("days", 2.5);
    report.metrics = metrics.snapshot();
    let seeds = [
        report.to_json(),
        r#"{"a":[1,-2.5e3,true,false,null,"\u00e9\ud83c\udf0a\n\\"],"b":{"c":{}}}"#.to_string(),
    ];
    for_each_mutant(&seeds, |text| {
        let _ = Json::parse(text);
    });
}

#[test]
fn openmetrics_parser_never_panics() {
    let (metrics, store) = sample_metrics();
    let scrape = openmetrics::render(&metrics, Some(&store));
    openmetrics::parse(&scrape).expect("a rendered scrape parses");
    for_each_mutant(&[scrape], |text| {
        let _ = openmetrics::parse(text);
    });
}

#[test]
fn alert_rule_parser_never_panics() {
    let render = |rules: Vec<ap3esm::obs::alert::Rule>| {
        rules.iter().map(|r| r.to_line() + "\n").collect::<String>()
    };
    let seeds = [
        "# built-in simulation rules\n".to_string() + &render(sim_rules()),
        render(serve_rules(2.0e6, 0.05)),
    ];
    for_each_mutant(&seeds, |text| {
        let _ = parse_rules(text);
    });
}
