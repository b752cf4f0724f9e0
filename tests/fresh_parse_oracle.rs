//! Fresh-parse differential oracle for the production frontend.
//!
//! `YearPipeline::try_build` never re-parses what it already parsed:
//! chain steps hand their rewritten ASTs through, features assemble
//! from per-item partials, diagnostics and fingerprints come off
//! unit-hash caches. This suite checks every one of those cached
//! products against a from-scratch computation on the emitted text.
//! For every transformed entry:
//!
//! 1. `features` equal `extract(parse(source))`;
//! 2. `oracle_label` equals a fresh prediction on those features;
//! 3. `fingerprint(parse(source))` equals the seed's fingerprint;
//! 4. each (challenge, setting) sample sequence equals the plain text
//!    drivers `gpt::chain::try_run_{nct,ct}` on the same seed and RNG
//!    stream (whenever every step of the cell is faithful).
//!
//! Summing the analyzer over fresh parses of the human corpus and every
//! transformed sample must reproduce `pipeline.diagnostics`.
//!
//! Coverage follows the paper's experimental grid at a deliberately
//! tiny scale: all nine style pools (years 2017–2019 × root seeds 1–3),
//! both protocols (NCT and CT run inside every build via the four
//! settings of Table II), and fault rates 0%, 5% and 20%.

use std::collections::HashSet;
use synthattr::analysis::{fingerprint, Analyzer};
use synthattr::core::config::{ExperimentConfig, Scale};
use synthattr::core::pipeline::{DiagnosticStats, Setting, YearPipeline};
use synthattr::faults::FaultProfile;
use synthattr::features::FeatureExtractor;
use synthattr::gen::corpus::{solution_in_style, Origin};
use synthattr::gpt::chain::{try_run_ct, try_run_nct};
use synthattr::gpt::incr::{try_run_ct_steps_cached, FrontendCache};
use synthattr::gpt::pool::YearPool;
use synthattr::gpt::transform::Transformer;
use synthattr::lang::parse;
use synthattr::util::Pcg64;

const YEARS: [u32; 3] = [2017, 2018, 2019];
const SEEDS: [u64; 3] = [1, 2, 3];
const RATES: [f64; 3] = [0.0, 0.05, 0.20];

/// A deliberately tiny scale: the grid builds 27 pipelines, and the
/// oracle is scale-free (the same code paths run at paper scale with
/// bigger loops).
fn tiny(seed: u64, rate: f64) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::smoke();
    cfg.seed = seed;
    cfg.scale = Scale {
        authors: 6,
        challenges: 2,
        transforms: 4,
        n_trees: 4,
    };
    if rate > 0.0 {
        cfg = cfg.with_faults(FaultProfile::recoverable(seed, rate));
    }
    cfg
}

/// The seed text and origin of one (challenge, setting) cell, derived
/// from the root seed exactly as the pipeline documents it.
fn seed_for(p: &YearPipeline, pool: &YearPool, ci: usize, setting: Setting) -> (String, Origin) {
    let (year, root) = (p.year.to_string(), p.config.seed);
    if setting.human_seed() {
        let human = p
            .corpus
            .samples
            .iter()
            .find(|s| s.author == p.seed_author && s.challenge == ci)
            .expect("corpus covers author x challenge");
        return (human.source.clone(), Origin::Human);
    }
    let mut gen_rng = Pcg64::seed_from(root, &["gpt-gen", &year, &ci.to_string()]);
    let style = pool.style(pool.sample_index(&mut gen_rng));
    let code = solution_in_style(
        p.challenges()[ci],
        style,
        root,
        &["gpt-gen-code", &year, &ci.to_string()],
    );
    (code, Origin::ChatGpt)
}

/// Checks every cached product of `p` against a fresh parse. Returns
/// how many cells were compared against the plain text drivers.
fn assert_matches_fresh_parse(p: &YearPipeline, ctx: &str) -> usize {
    let extractor = FeatureExtractor::new(p.config.features.clone());
    let analyzer = Analyzer::new();
    let pool = YearPool::calibrated(p.year, p.config.seed);
    let transformer = Transformer::new(&pool);

    for t in &p.transformed {
        let at = format!(
            "{ctx} ch{} {} step {}",
            t.challenge,
            t.setting.notation(),
            t.sample.step
        );
        let features = extractor
            .extract(&t.sample.source)
            .unwrap_or_else(|e| panic!("{at}: emitted text must parse: {e}"));
        assert_eq!(*t.features, features, "features diverged ({at})");
        assert_eq!(
            t.oracle_label,
            p.oracle.predict_features(&features),
            "label diverged ({at})"
        );
    }

    let mut compared = 0;
    for ci in 0..p.n_challenges() {
        for setting in Setting::all() {
            let at = format!("{ctx} ch{ci} {}", setting.notation());
            let cell: Vec<_> = p
                .transformed
                .iter()
                .filter(|t| t.challenge == ci && t.setting == setting)
                .collect();
            let (seed, origin) = seed_for(p, &pool, ci, setting);
            let seed_fp = fingerprint(&parse(&seed).unwrap());
            for t in &cell {
                let unit = parse(&t.sample.source).unwrap();
                assert_eq!(fingerprint(&unit), seed_fp, "fingerprint drifted ({at})");
            }
            if !cell.iter().all(|t| t.outcome.is_faithful()) {
                continue;
            }
            let mut rng = Pcg64::seed_from(
                p.config.seed,
                &[
                    "transform",
                    &p.year.to_string(),
                    &ci.to_string(),
                    setting.notation(),
                ],
            );
            let n = cell.len();
            let plain = if setting.chaining() {
                try_run_ct(&transformer, &seed, n, origin, &mut rng)
            } else {
                try_run_nct(&transformer, &seed, n, origin, &mut rng)
            }
            .unwrap_or_else(|e| panic!("plain driver failed ({at}): {e}"));
            let cached: Vec<_> = cell.iter().map(|t| t.sample.clone()).collect();
            assert_eq!(cached, plain, "sample sequence diverged ({at})");
            compared += 1;
        }
    }

    let mut fresh = DiagnosticStats::default();
    let sources = p
        .corpus
        .samples
        .iter()
        .map(|s| &s.source)
        .chain(p.transformed.iter().map(|t| &t.sample.source));
    for src in sources {
        fresh.absorb(&analyzer.analyze(&parse(src).unwrap()));
    }
    assert_eq!(p.diagnostics, fresh, "diagnostics diverged ({ctx})");
    compared
}

/// The grid: 9 pools × 3 fault rates, NCT and CT in every build. Under
/// the recoverable profile every step is faithful, so every cell is
/// also compared against the plain text drivers.
#[test]
fn cached_pipeline_matches_fresh_parse_across_pools_and_fault_rates() {
    for year in YEARS {
        for seed in SEEDS {
            for rate in RATES {
                let ctx = format!("year={year} seed={seed} rate={rate}");
                let cfg = tiny(seed, rate);
                let p = YearPipeline::try_build(year, &cfg)
                    .unwrap_or_else(|e| panic!("build failed ({ctx}): {e}"));
                let cells = cfg.scale.challenges * Setting::all().len();
                assert_eq!(assert_matches_fresh_parse(&p, &ctx), cells, "{ctx}");
                assert!(
                    p.frontend.node_hits > 0,
                    "{ctx}: node cache unused: {:?}",
                    p.frontend
                );
            }
        }
    }
}

/// Degraded runs thread region structure through fallback paths (held
/// CT steps reuse the chain's last regions, NCT seed fallbacks carry
/// none); their cached products must still equal a fresh parse.
#[test]
fn degraded_builds_match_fresh_parse() {
    let cfg = tiny(3, 0.0).with_faults(FaultProfile::brutal(3));
    let p = YearPipeline::try_build(2018, &cfg).unwrap();
    assert!(
        p.resilience.degraded + p.resilience.failed > 0,
        "brutal profile should degrade: {:?}",
        p.resilience
    );
    assert_matches_fresh_parse(&p, "brutal 2018");
}

/// A long CT chain re-featurizes only what changed. Runs a 50-step
/// chain through the cached driver and, step by step, checks that the
/// node cache's misses during featurization are at most the sub-trees
/// and regions this step introduced, and that the assembled features
/// equal whole-file extraction.
#[test]
fn ct_chain_refeaturizes_only_changed_regions() {
    let cfg = ExperimentConfig::smoke();
    let pool = YearPool::calibrated(2018, cfg.seed);
    let transformer = Transformer::new(&pool);
    let mut gen_rng = Pcg64::seed_from(cfg.seed, &["gpt-gen", "2018", "0"]);
    let style_idx = pool.sample_index(&mut gen_rng);
    let seed = solution_in_style(
        synthattr::gen::challenges::ChallengeId::SumSeries,
        pool.style(style_idx),
        cfg.seed,
        &["gpt-gen-code", "2018", "0"],
    );
    let seed_unit = parse(&seed).unwrap();

    let mut fc = FrontendCache::new();
    let steps = try_run_ct_steps_cached(
        &transformer,
        &seed,
        &seed_unit,
        50,
        Origin::ChatGpt,
        &mut Pcg64::new(42),
        &mut fc,
    )
    .unwrap();
    assert_eq!(steps.len(), 50);

    let extractor = FeatureExtractor::new(cfg.features.clone());
    let mut seen_items: HashSet<u64> = HashSet::new();
    let mut seen_regions: HashSet<String> = HashSet::new();
    let mut total_new = 0u64;
    for (i, step) in steps.iter().enumerate() {
        // How many node products *can* this step introduce? One
        // feature partial per unseen item hash, one layout scan per
        // unseen region text.
        let new_items = step
            .regions
            .item_hashes
            .iter()
            .filter(|h| seen_items.insert(**h))
            .count() as u64;
        let new_regions = step
            .regions
            .spans
            .iter()
            .map(|sp| step.sample.source[sp.start..sp.end].to_string())
            .filter(|r| seen_regions.insert(r.clone()))
            .count() as u64;
        total_new += new_items + new_regions;

        let before = fc.node_misses();
        let items: Vec<_> = step
            .regions
            .item_hashes
            .iter()
            .zip(&step.unit.items)
            .map(|(h, item)| fc.item_features_for(*h, item))
            .collect();
        let layouts: Vec<_> = step
            .regions
            .spans
            .iter()
            .map(|sp| {
                (
                    sp.sep_before,
                    fc.layout_for(&step.sample.source[sp.start..sp.end]),
                )
            })
            .collect();
        let features = extractor.extract_from_parts(
            step.sample.source.len(),
            items.iter().map(|a| a.as_ref()),
            layouts.iter().map(|(s, l)| (*s, l.as_ref())),
        );
        let misses = fc.node_misses() - before;

        assert_eq!(
            features,
            extractor.extract(&step.sample.source).unwrap(),
            "step {i}"
        );
        // Only the changed sub-trees were recomputed. (The chain
        // driver itself may have warmed some of them while rendering,
        // so featurization can even be all-hits.)
        assert!(
            misses <= new_items + new_regions,
            "step {i}: featurizing recomputed {misses} nodes but only {} changed",
            new_items + new_regions
        );
    }
    // The reuse the speedup comes from: across 50 chained steps, far
    // fewer distinct nodes exist than `steps × items-per-step` naive
    // featurization would touch.
    let touched: u64 = steps
        .iter()
        .map(|s| 2 * s.regions.item_hashes.len() as u64)
        .sum();
    assert!(
        total_new * 2 < touched,
        "chain steps share sub-trees: {total_new} distinct vs {touched} touched"
    );
}
