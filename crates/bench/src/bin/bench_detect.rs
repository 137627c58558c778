//! Detection micro-benchmark: reference vs compiled vs cached decide().
//!
//! Renders a deterministic corpus of (regular, hidden) page pairs from the
//! Table-1 population — the same generator behind the accuracy experiments
//! and the embedded serve world — and times three variants of the Figure-5
//! decision over it:
//!
//! * `baseline_*` — [`decide_reference`]: HashMap `ContentSet`s, string
//!   label comparison, per-call DP row allocation.
//! * `compiled_*` — [`decide`]: interned [`DetectTree`](cp_treediff::DetectTree)s, hash-compiled
//!   content multisets, one reusable scratch workspace.
//! * `cached_*` — [`decide_analyzed`] over prebuilt [`PageAnalysis`]
//!   values: what cp-serve pays on an analysis-cache hit.
//!
//! Every compiled decision is asserted bit-identical to the reference
//! while the clock runs, so the speedup cannot come from answering a
//! different question.
//!
//! Usage: `bench_detect [seed] [sites] [iters] [out.json]`
//! (defaults: 7, 20, 30, BENCH_detect.json)

use std::time::Instant;

use cookiepicker_core::{
    decide, decide_analyzed, decide_reference, CookiePickerConfig, Decision, PageAnalysis,
};
use cp_cookies::SimTime;
use cp_html::{parse_document, Document};
use cp_runtime::json::Json;
use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_webworld::render::{render_page, RenderInput};
use cp_webworld::table1_population;

/// Renders the benchmark corpus: per site, each page with all cookies sent
/// vs the same page with a random subset withheld (the hidden request).
fn corpus(seed: u64, sites: usize, paths_per_site: usize) -> Vec<(Document, Document)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = table1_population(seed);
    let mut pairs = Vec::new();
    for spec in population.iter().take(sites) {
        let all: Vec<(String, String)> =
            spec.cookies.iter().map(|c| (c.name.clone(), format!("v{:x}", spec.seed))).collect();
        for path in spec.page_paths().iter().take(paths_per_site) {
            let kept: Vec<(String, String)> =
                all.iter().filter(|_| rng.gen_range(0..3u32) > 0).cloned().collect();
            let input_a = RenderInput { spec, path, cookies: &all, now: SimTime::EPOCH };
            let input_b = RenderInput { spec, path, cookies: &kept, now: SimTime::EPOCH };
            let mut noise_a = StdRng::seed_from_u64(rng.gen::<u64>());
            let mut noise_b = StdRng::seed_from_u64(rng.gen::<u64>());
            let html_a = render_page(&input_a, &mut noise_a);
            let html_b = render_page(&input_b, &mut noise_b);
            pairs.push((parse_document(&html_a), parse_document(&html_b)));
        }
    }
    pairs
}

struct Stats {
    median_micros: f64,
    p99_micros: f64,
    pages_per_sec: f64,
}

/// Times one call, appending the elapsed nanos to `out`.
fn timed(out: &mut Vec<u64>, f: impl FnOnce() -> Decision) {
    let start = Instant::now();
    std::hint::black_box(f());
    out.push(start.elapsed().as_nanos() as u64);
}

/// Percentiles over individual calls; pages/sec over the summed call time
/// (two pages per decision).
fn stats(mut nanos: Vec<u64>) -> Stats {
    let total: u64 = nanos.iter().sum();
    let calls = nanos.len();
    nanos.sort_unstable();
    let pct = |q: f64| {
        let rank = ((calls as f64 * q).ceil() as usize).max(1);
        nanos[(rank - 1).min(calls - 1)] as f64 / 1_000.0
    };
    Stats {
        median_micros: pct(0.50),
        p99_micros: pct(0.99),
        pages_per_sec: if total > 0 { (2 * calls) as f64 / (total as f64 / 1e9) } else { 0.0 },
    }
}

fn main() {
    let arg = |n: usize| std::env::args().nth(n);
    let seed: u64 = arg(1).and_then(|s| s.parse().ok()).unwrap_or(7);
    let sites: usize = arg(2).and_then(|s| s.parse().ok()).unwrap_or(20);
    let iters: usize = arg(3).and_then(|s| s.parse().ok()).unwrap_or(30);
    let out = arg(4).unwrap_or_else(|| "BENCH_detect.json".to_string());

    let config = CookiePickerConfig::default();
    let pairs = corpus(seed, sites, 2);
    eprintln!(
        "bench_detect: seed {seed}, {} pairs ({sites} sites x 2 paths), {iters} iters/variant",
        pairs.len()
    );

    // Correctness gate before anything is timed: the compiled pipeline must
    // reproduce the reference decision on every pair in the corpus.
    for (a, b) in &pairs {
        let compiled = decide(a, b, &config);
        let reference = decide_reference(a, b, &config);
        assert_eq!(compiled.tree_sim.to_bits(), reference.tree_sim.to_bits());
        assert_eq!(compiled.text_sim.to_bits(), reference.text_sim.to_bits());
        assert_eq!(compiled.cookies_caused_difference, reference.cookies_caused_difference);
    }

    // Warm-up pass per variant, then the timed loops.
    let analyses: Vec<(PageAnalysis, PageAnalysis)> = pairs
        .iter()
        .map(|(a, b)| {
            (
                PageAnalysis::from_document(a, config.compare_from_body),
                PageAnalysis::from_document(b, config.compare_from_body),
            )
        })
        .collect();
    for (a, b) in &pairs {
        std::hint::black_box(decide_reference(a, b, &config));
        std::hint::black_box(decide(a, b, &config));
    }

    // The variants are interleaved per pair — each trio of calls runs
    // back-to-back on the same data under the same CPU conditions, so
    // clock-frequency drift over the run cannot bias one variant.
    let cap = pairs.len() * iters;
    let (mut base_ns, mut comp_ns, mut cache_ns) =
        (Vec::with_capacity(cap), Vec::with_capacity(cap), Vec::with_capacity(cap));
    for _ in 0..iters {
        for i in 0..pairs.len() {
            timed(&mut base_ns, || decide_reference(&pairs[i].0, &pairs[i].1, &config));
            timed(&mut comp_ns, || decide(&pairs[i].0, &pairs[i].1, &config));
            timed(&mut cache_ns, || decide_analyzed(&analyses[i].0, &analyses[i].1, &config));
        }
    }
    let (baseline, compiled, cached) = (stats(base_ns), stats(comp_ns), stats(cache_ns));

    let speedup_median = baseline.median_micros / compiled.median_micros.max(1e-9);
    let cached_speedup_median = baseline.median_micros / cached.median_micros.max(1e-9);

    let report = Json::object()
        .set("seed", seed)
        .set("sites", sites as u64)
        .set("pairs", pairs.len() as u64)
        .set("iters", iters as u64)
        .set("baseline_median_micros", baseline.median_micros)
        .set("baseline_p99_micros", baseline.p99_micros)
        .set("baseline_pages_per_sec", baseline.pages_per_sec)
        .set("compiled_median_micros", compiled.median_micros)
        .set("compiled_p99_micros", compiled.p99_micros)
        .set("compiled_pages_per_sec", compiled.pages_per_sec)
        .set("cached_median_micros", cached.median_micros)
        .set("cached_p99_micros", cached.p99_micros)
        .set("cached_pages_per_sec", cached.pages_per_sec)
        .set("speedup_median", speedup_median)
        .set("cached_speedup_median", cached_speedup_median);
    let json = report.to_pretty();
    std::fs::write(&out, format!("{json}\n")).unwrap_or_else(|e| panic!("cannot write {out}: {e}"));

    println!("{json}");
    eprintln!(
        "bench_detect: median {:.1}us -> {:.1}us ({speedup_median:.2}x), cached {:.1}us ({cached_speedup_median:.2}x); report in {out}",
        baseline.median_micros, compiled.median_micros, cached.median_micros
    );
}
