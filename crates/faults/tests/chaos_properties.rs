//! The chaos property suite: the fault layer's headline invariant.
//!
//! Sweeps fault rates {0%, 5%, 20%} across every calibrated pool
//! (3 years × 3 pool seeds) and both protocols (NCT, CT), asserting:
//!
//! 1. **Invisible retries** — under the recoverable profile, the
//!    resilient run's sample vector is *byte-identical* to the
//!    fault-free driver's, at every rate in the sweep.
//! 2. **Graceful exhaustion** — under the brutal profile the run
//!    still completes with `n` samples, losses show up as
//!    `Degraded`/`Failed` outcomes (never a panic), and the whole
//!    degraded trajectory is deterministic.
//!
//! Driven by the in-repo property harness (`synthattr_util::prop`).

use synthattr_faults::drivers::{run_ct_resilient_cached, run_nct_resilient_cached, CachedRun};
use synthattr_faults::{FaultProfile, FaultyTransformer, Outcome, StreamCx};
use synthattr_gen::challenges::ChallengeId;
use synthattr_gen::corpus::{solution_in_style, Origin};
use synthattr_gen::style::AuthorStyle;
use synthattr_gpt::incr::FrontendCache;
use synthattr_gpt::{try_run_ct, try_run_nct, Transformer, YearPool};
use synthattr_lang::parse;
use synthattr_util::prop::Runner;
use synthattr_util::{prop_assert, prop_assert_eq, Pcg64};

const YEARS: [u32; 3] = [2017, 2018, 2019];
const POOL_SEEDS: [u64; 3] = [1, 2, 3];
const RATES: [f64; 3] = [0.0, 0.05, 0.20];
const STEPS: usize = 10;

fn seed_code(seed: u64) -> String {
    let mut rng = Pcg64::new(seed);
    let style = AuthorStyle::sample(&mut rng);
    solution_in_style(ChallengeId::SumSeries, &style, seed, &["chaos-seed"])
}

fn service<'a>(pool: &'a YearPool, profile: &FaultProfile) -> FaultyTransformer<'a> {
    FaultyTransformer::new(pool, profile.plan(), profile.policy.clone())
}

/// A resilient run from a fresh parse of `seed` through a cold node
/// cache.
#[allow(clippy::too_many_arguments)]
fn resilient(
    chaining: bool,
    svc: &FaultyTransformer<'_>,
    seed: &str,
    n: usize,
    origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
) -> CachedRun {
    let seed_unit = parse(seed).expect("generated seed parses");
    let driver = if chaining {
        run_ct_resilient_cached
    } else {
        run_nct_resilient_cached
    };
    let fc = &mut FrontendCache::new();
    driver(svc, seed, &seed_unit, n, origin, rng, anchor, cx, fc).expect("resilient run completes")
}

/// The headline invariant: at every swept rate, with the recoverable
/// profile, resilient NCT and CT runs are byte-identical to their
/// fault-free counterparts across all nine calibrated pools.
#[test]
fn recoverable_faults_are_byte_invisible_across_the_sweep() {
    let mut recovered_total = 0u64;
    for year in YEARS {
        for pool_seed in POOL_SEEDS {
            let pool = YearPool::calibrated(year, pool_seed);
            let bare = Transformer::new(&pool);
            let seed = seed_code(year as u64 * 100 + pool_seed);
            for rate in RATES {
                let profile = FaultProfile::recoverable(911, rate);
                let svc = service(&pool, &profile);
                let anchor = format!("{year}/p{pool_seed}");

                let rng_seed = year as u64 + pool_seed * 7 + (rate * 100.0) as u64;
                let plain = try_run_nct(
                    &bare,
                    &seed,
                    STEPS,
                    Origin::ChatGpt,
                    &mut Pcg64::new(rng_seed),
                )
                .unwrap();
                let run = resilient(
                    false,
                    &svc,
                    &seed,
                    STEPS,
                    Origin::ChatGpt,
                    &mut Pcg64::new(rng_seed),
                    &anchor,
                    &mut profile.stream_cx(1),
                );
                assert_eq!(
                    run.samples, plain,
                    "NCT year={year} pool={pool_seed} rate={rate}"
                );
                assert!(
                    run.outcomes.iter().all(|o| o.is_faithful()),
                    "NCT year={year} pool={pool_seed} rate={rate}: {:?}",
                    run.stats
                );
                recovered_total += run.stats.recovered;

                let plain = try_run_ct(
                    &bare,
                    &seed,
                    STEPS,
                    Origin::ChatGpt,
                    &mut Pcg64::new(rng_seed + 1),
                )
                .unwrap();
                let run = resilient(
                    true,
                    &svc,
                    &seed,
                    STEPS,
                    Origin::ChatGpt,
                    &mut Pcg64::new(rng_seed + 1),
                    &anchor,
                    &mut profile.stream_cx(1),
                );
                assert_eq!(
                    run.samples, plain,
                    "CT year={year} pool={pool_seed} rate={rate}"
                );
                assert!(
                    run.outcomes.iter().all(|o| o.is_faithful()),
                    "CT year={year} pool={pool_seed} rate={rate}: {:?}",
                    run.stats
                );
                recovered_total += run.stats.recovered;
            }
        }
    }
    assert!(
        recovered_total > 0,
        "the 5% and 20% legs must actually exercise recovery"
    );
}

/// Zero-rate resilient runs spend zero overhead: no retries, no
/// backoff, no faults, unit fidelity.
#[test]
fn zero_rate_runs_are_free() {
    for year in YEARS {
        let pool = YearPool::calibrated(year, 1);
        let profile = FaultProfile::recoverable(1, 0.0);
        let svc = service(&pool, &profile);
        let seed = seed_code(year as u64);
        let run = resilient(
            false,
            &svc,
            &seed,
            STEPS,
            Origin::ChatGpt,
            &mut Pcg64::new(2),
            "free",
            &mut profile.stream_cx(1),
        );
        assert_eq!(run.stats.retries, 0);
        assert_eq!(run.stats.backoff_ms, 0);
        assert!(run.stats.faults_by_tag.is_empty());
        assert_eq!(run.stats.fidelity(), 1.0);
    }
}

/// Budget exhaustion degrades instead of panicking: under the brutal
/// profile every pool completes all steps, losses are visible in the
/// stats, and the whole trajectory replays identically.
#[test]
fn brutal_faults_degrade_gracefully_and_deterministically() {
    let mut lossy_runs = 0u32;
    for year in YEARS {
        for pool_seed in POOL_SEEDS {
            let pool = YearPool::calibrated(year, pool_seed);
            let profile = FaultProfile::brutal(666);
            let svc = service(&pool, &profile);
            let seed = seed_code(year as u64 * 10 + pool_seed);
            let anchor = format!("brutal/{year}/p{pool_seed}");
            let go = |mode: &str| {
                let mut cx = profile.stream_cx(4);
                let rng = &mut Pcg64::new(13);
                match mode {
                    "nct" => resilient(
                        false,
                        &svc,
                        &seed,
                        STEPS,
                        Origin::ChatGpt,
                        rng,
                        &anchor,
                        &mut cx,
                    ),
                    _ => resilient(
                        true,
                        &svc,
                        &seed,
                        STEPS,
                        Origin::ChatGpt,
                        rng,
                        &anchor,
                        &mut cx,
                    ),
                }
            };
            for mode in ["nct", "ct"] {
                let run = go(mode);
                assert_eq!(run.samples.len(), STEPS, "{anchor}/{mode} completes");
                assert_eq!(run.outcomes.len(), STEPS);
                assert_eq!(
                    run.stats.clean + run.stats.recovered + run.stats.degraded + run.stats.failed,
                    STEPS as u64,
                    "{anchor}/{mode}: every step is accounted"
                );
                if run.stats.degraded + run.stats.failed > 0 {
                    lossy_runs += 1;
                }
                assert_eq!(run, go(mode), "{anchor}/{mode} replays identically");
            }
        }
    }
    assert!(
        lossy_runs > 0,
        "a 45% rate with 2 attempts must exceed recovery somewhere"
    );
}

/// Property-sampled variant of the invariant: arbitrary seeds, years,
/// challenges and rates — recovered runs never drift by a byte.
#[test]
fn invisible_retry_invariant_holds_for_sampled_universes() {
    Runner::new("invisible_retry_invariant").cases(16).run(
        |rng| {
            (
                rng.next_below(3),
                1 + rng.next_below(5) as u64,
                rng.next_below(10_000) as u64,
                rng.next_below(3),
                rng.next_below(ChallengeId::all().len()),
            )
        },
        |&(year_idx, pool_seed, rng_seed, rate_idx, ch_idx)| {
            let year = YEARS[year_idx];
            let rate = RATES[rate_idx];
            let pool = YearPool::calibrated(year, pool_seed);
            let bare = Transformer::new(&pool);
            let profile = FaultProfile::recoverable(rng_seed ^ 0xD15EA5E, rate);
            let svc = service(&pool, &profile);
            let mut style_rng = Pcg64::new(rng_seed);
            let style = AuthorStyle::sample(&mut style_rng);
            let all = ChallengeId::all();
            let seed = solution_in_style(all[ch_idx], &style, rng_seed, &["prop-seed"]);

            let plain = try_run_nct(&bare, &seed, 6, Origin::ChatGpt, &mut Pcg64::new(rng_seed))
                .expect("generated seed transforms");
            let run = resilient(
                false,
                &svc,
                &seed,
                6,
                Origin::ChatGpt,
                &mut Pcg64::new(rng_seed),
                "prop",
                &mut profile.stream_cx(1),
            );
            prop_assert_eq!(run.samples.len(), plain.len());
            for (a, b) in run.samples.iter().zip(&plain) {
                prop_assert_eq!(&a.source, &b.source);
            }
            prop_assert!(run.outcomes.iter().all(|o| o.is_faithful()));
            prop_assert!(run
                .outcomes
                .iter()
                .all(|o| !matches!(o, Outcome::Degraded { .. })));
            Ok(())
        },
    );
}
