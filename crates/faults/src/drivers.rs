//! Resilient NCT/CT drivers: `synthattr_gpt::chain` under chaos.
//!
//! These mirror the fault-free drivers **draw for draw** — the style
//! index comes off the caller's RNG before the service call, exactly
//! as in `run_nct`/`run_ct` — so with a zero-rate plan (or a plan
//! whose every fault recovers within policy) the output sample vector
//! is byte-identical to the fault-free run. When recovery fails the
//! drivers degrade instead of erroring:
//!
//! * **NCT** steps are independent, so a lost step is *resampled* on a
//!   fresh derived RNG stream (a different but equally valid transform
//!   of the same seed); if every resample also fails, the seed code
//!   stands in and the step is [`Outcome::Failed`].
//! * **CT** steps feed forward, so a lost step *holds* the chain's
//!   last good source ([`Fallback::HeldStep`]) and the chain continues
//!   from there; a breaker-rejected step is [`Outcome::Failed`].
//!
//! Either way the run completes with `n` samples and a full
//! [`ResilienceStats`] accounting — the pipeline never panics because
//! the simulated service had a bad day.

use crate::breaker::CircuitBreaker;
use crate::outcome::{Fallback, Outcome, ResilienceStats};
use crate::plan::CallScope;
use crate::retry::RetryBudget;
use crate::service::{CallTrace, FaultyTransformer};
use synthattr_gen::corpus::Origin;
use synthattr_gpt::incr::{FrontendCache, RegionInfo};
use synthattr_gpt::{GptError, TransformMode, TransformedSample};
use synthattr_lang::TranslationUnit;
use synthattr_util::Pcg64;

/// Mutable per-stream state: one retry budget and one breaker guard a
/// whole NCT/CT call stream (DESIGN.md §9 explains why resilience
/// state is sharded per stream rather than shared across workers).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StreamCx {
    /// Retries this stream may still spend.
    pub budget: RetryBudget,
    /// The stream's circuit breaker.
    pub breaker: CircuitBreaker,
    /// NCT resample attempts per degraded step.
    pub resamples: u32,
}

impl StreamCx {
    /// A forgiving context: unlimited budget, default breaker, three
    /// resamples.
    pub fn lenient() -> Self {
        StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::default(),
            resamples: 3,
        }
    }
}

fn absorb(stats: &mut ResilienceStats, trace: &CallTrace) {
    stats.record_trace(trace.attempts, trace.backoff_ms);
    for tag in &trace.fault_tags {
        stats.record_fault(tag);
    }
}

/// A completed resilient run: `n` samples, the AST and region
/// structure of each (`None` when the step fell back to raw seed text
/// the cached frontend never rendered), one outcome per sample, and
/// the stream's aggregated stats.
#[derive(Debug, Clone, PartialEq)]
pub struct CachedRun {
    /// The transformed samples, in step order. Always `n` long.
    pub samples: Vec<TransformedSample>,
    /// `units[i]` is the AST of `samples[i].source`, carried out of
    /// the validation gate (or cloned from the seed for failed steps)
    /// so downstream stages never re-parse accepted responses.
    pub units: Vec<TranslationUnit>,
    /// `regions[i]` is the node structure of `samples[i].source`, when
    /// the step came out of the cached frontend.
    pub regions: Vec<Option<RegionInfo>>,
    /// `outcomes[i]` describes how `samples[i]` survived the chaos.
    pub outcomes: Vec<Outcome>,
    /// Aggregated accounting for the stream.
    pub stats: ResilienceStats,
}

/// Runs non-chaining transformation under fault injection. The caller
/// supplies the seed's already-parsed AST, the validation expectation
/// is computed once for the whole stream (every step transforms the
/// same seed), every attempt runs through `fc`, and each produced
/// step's AST and region structure are returned for incremental
/// downstream featurization.
///
/// # Errors
///
/// Only [`GptError::Parse`], and only from a transformer bug surfaced
/// by the debug semantics gate. Service faults never surface as
/// errors; they degrade.
#[allow(clippy::too_many_arguments)]
pub fn run_nct_resilient_cached(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
    fc: &mut FrontendCache,
) -> Result<CachedRun, GptError> {
    let pool = svc.pool();
    let year = pool.year;
    let seed_exp = svc.prepare(seed_unit);
    let mut samples = Vec::with_capacity(n);
    let mut units = Vec::with_capacity(n);
    let mut regions: Vec<Option<RegionInfo>> = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ResilienceStats::default();
    let trips_before = cx.breaker.trips();
    for step in 1..=n {
        let pool_index = pool.sample_index(rng);
        // Call 0 is the step itself, on the caller's stream. NCT steps
        // are independent, so a lost step is re-drawn on fresh derived
        // streams; each resample has its own anchor, hence its own
        // fault coordinates — a deterministic "new request".
        let mut accepted = None;
        for k in 0..=cx.resamples {
            let re_anchor;
            let mut re_rng;
            let (call_anchor, call_rng) = if k == 0 {
                (anchor, &mut *rng)
            } else {
                re_anchor = format!("{anchor}/resample{k}");
                re_rng = Pcg64::seed_from(
                    svc.plan().seed,
                    &[
                        "nct-resample",
                        &year.to_string(),
                        anchor,
                        &step.to_string(),
                        &k.to_string(),
                    ],
                );
                (re_anchor.as_str(), &mut re_rng)
            };
            let scope = CallScope {
                year,
                anchor: call_anchor,
                step,
            };
            let mut trace = CallTrace::default();
            let result = svc.transform_prepared_cached(
                seed_code,
                seed_unit,
                None,
                &seed_exp,
                pool_index,
                call_rng,
                &scope,
                &mut cx.budget,
                &mut cx.breaker,
                &mut trace,
                fc,
            );
            absorb(&mut stats, &trace);
            match result {
                Ok(step_out) => {
                    accepted = Some((step_out, k, trace.attempts));
                    break;
                }
                Err(GptError::Parse(e)) => return Err(GptError::Parse(e)),
                Err(GptError::CircuitOpen { .. }) => stats.record_fault("circuit-open"),
                Err(_) => {}
            }
        }
        let (source, unit, region, outcome) = match accepted {
            Some((a, 0, attempts)) => {
                let outcome = if attempts > 1 {
                    Outcome::Recovered { attempts }
                } else {
                    Outcome::Clean
                };
                (a.source, a.unit, Some(a.regions), outcome)
            }
            Some((a, k, _)) => {
                let fallback = Fallback::Resampled { resamples: k };
                (
                    a.source,
                    a.unit,
                    Some(a.regions),
                    Outcome::Degraded { fallback },
                )
            }
            None => (
                seed_code.to_string(),
                seed_unit.clone(),
                None,
                Outcome::Failed,
            ),
        };
        samples.push(sample(
            source,
            step,
            TransformMode::NonChaining,
            seed_origin,
            pool_index,
        ));
        units.push(unit);
        regions.push(region);
        stats.record(outcome);
        outcomes.push(outcome);
    }
    stats.breaker_trips = cx.breaker.trips() - trips_before;
    Ok(CachedRun {
        samples,
        units,
        regions,
        outcomes,
        stats,
    })
}

/// Runs chaining transformation under fault injection. The chain
/// threads each accepted step's AST, expectation and region structure
/// (byproducts of the validation gate) into the next call, so
/// unchanged items are never re-rendered, re-parsed or re-scanned.
///
/// # Errors
///
/// Only [`GptError::Parse`], and only from a transformer bug surfaced
/// by the debug semantics gate.
#[allow(clippy::too_many_arguments)]
pub fn run_ct_resilient_cached(
    svc: &FaultyTransformer<'_>,
    seed_code: &str,
    seed_unit: &TranslationUnit,
    n: usize,
    seed_origin: Origin,
    rng: &mut Pcg64,
    anchor: &str,
    cx: &mut StreamCx,
    fc: &mut FrontendCache,
) -> Result<CachedRun, GptError> {
    let pool = svc.pool();
    let year = pool.year;
    let mut samples: Vec<TransformedSample> = Vec::with_capacity(n);
    let mut units: Vec<TranslationUnit> = Vec::with_capacity(n);
    let mut regions: Vec<Option<RegionInfo>> = Vec::with_capacity(n);
    let mut outcomes = Vec::with_capacity(n);
    let mut stats = ResilienceStats::default();
    let trips_before = cx.breaker.trips();
    let mut current_source = seed_code.to_string();
    let mut current_unit = seed_unit.clone();
    let mut current_regions: Option<RegionInfo> = None;
    let mut current_exp = svc.prepare(seed_unit);
    let mut style_idx = pool.sample_index(rng);
    for step in 1..=n {
        if step > 1 && !rng.next_bool(pool.ct_stickiness) {
            style_idx = pool.sample_index(rng);
        }
        let scope = CallScope { year, anchor, step };
        let mut trace = CallTrace::default();
        let result = svc.transform_prepared_cached(
            &current_source,
            &current_unit,
            current_regions.as_ref(),
            &current_exp,
            style_idx,
            rng,
            &scope,
            &mut cx.budget,
            &mut cx.breaker,
            &mut trace,
            fc,
        );
        absorb(&mut stats, &trace);
        // CT degradation: a chain cannot resample a mid-chain step
        // without rewriting history, so a lost step *holds* — the
        // sample repeats the last good source and the next step
        // transforms from it.
        let outcome = match result {
            Ok(accepted) => {
                current_source = accepted.source;
                current_unit = accepted.unit;
                current_regions = Some(accepted.regions);
                current_exp = accepted.expectation;
                if trace.attempts > 1 {
                    Outcome::Recovered {
                        attempts: trace.attempts,
                    }
                } else {
                    Outcome::Clean
                }
            }
            Err(GptError::Parse(e)) => return Err(GptError::Parse(e)),
            Err(GptError::CircuitOpen { .. }) => {
                stats.record_fault("circuit-open");
                Outcome::Failed
            }
            Err(_) => Outcome::Degraded {
                fallback: Fallback::HeldStep,
            },
        };
        samples.push(sample(
            current_source.clone(),
            step,
            TransformMode::Chaining,
            seed_origin,
            style_idx,
        ));
        units.push(current_unit.clone());
        regions.push(current_regions.clone());
        stats.record(outcome);
        outcomes.push(outcome);
    }
    stats.breaker_trips = cx.breaker.trips() - trips_before;
    Ok(CachedRun {
        samples,
        units,
        regions,
        outcomes,
        stats,
    })
}

fn sample(
    source: String,
    step: usize,
    mode: TransformMode,
    seed_origin: Origin,
    pool_index: usize,
) -> TransformedSample {
    TransformedSample {
        source,
        step,
        mode,
        seed_origin,
        pool_index,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::breaker::BreakerConfig;
    use crate::plan::FaultPlan;
    use crate::retry::RetryPolicy;
    use synthattr_gen::challenges::ChallengeId;
    use synthattr_gen::corpus::solution_in_style;
    use synthattr_gen::style::AuthorStyle;
    use synthattr_gpt::{try_run_ct, try_run_nct, Transformer, YearPool};
    use synthattr_lang::hash::{item_hash, unit_hash};
    use synthattr_lang::parse;

    fn seed_code(seed: u64) -> String {
        let mut rng = Pcg64::new(seed);
        let style = AuthorStyle::sample(&mut rng);
        solution_in_style(ChallengeId::SumSeries, &style, seed, &["drv-seed"])
    }

    fn lenient_svc(pool: &YearPool, fault_seed: u64, rate: f64) -> FaultyTransformer<'_> {
        FaultyTransformer::new(
            pool,
            FaultPlan::new(fault_seed, rate),
            RetryPolicy {
                max_attempts: 12,
                ..RetryPolicy::default()
            },
        )
    }

    fn lenient_cx() -> StreamCx {
        StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 64,
                cooldown_calls: 16,
            }),
            resamples: 3,
        }
    }

    /// One resilient run from a fresh parse of `seed` through a cold
    /// node cache.
    #[allow(clippy::too_many_arguments)]
    fn run(
        chaining: bool,
        svc: &FaultyTransformer<'_>,
        seed: &str,
        n: usize,
        origin: Origin,
        rng_seed: u64,
        anchor: &str,
        cx: &mut StreamCx,
    ) -> CachedRun {
        let seed_unit = parse(seed).unwrap();
        let mut fc = FrontendCache::new();
        let rng = &mut Pcg64::new(rng_seed);
        let driver = if chaining {
            run_ct_resilient_cached
        } else {
            run_nct_resilient_cached
        };
        driver(svc, seed, &seed_unit, n, origin, rng, anchor, cx, &mut fc).unwrap()
    }

    #[test]
    fn zero_rate_matches_fault_free_drivers_exactly() {
        let pool = YearPool::calibrated(2018, 1);
        let bare = Transformer::new(&pool);
        let svc = lenient_svc(&pool, 99, 0.0);
        let seed = seed_code(1);

        let plain = try_run_nct(&bare, &seed, 10, Origin::ChatGpt, &mut Pcg64::new(4)).unwrap();
        let nct = run(
            false,
            &svc,
            &seed,
            10,
            Origin::ChatGpt,
            4,
            "a",
            &mut lenient_cx(),
        );
        assert_eq!(nct.samples, plain);
        assert!(nct.outcomes.iter().all(|o| *o == Outcome::Clean));
        assert_eq!(nct.stats.clean, 10);
        assert_eq!(nct.stats.retries, 0);

        let plain = try_run_ct(&bare, &seed, 10, Origin::Human, &mut Pcg64::new(5)).unwrap();
        let ct = run(
            true,
            &svc,
            &seed,
            10,
            Origin::Human,
            5,
            "a",
            &mut lenient_cx(),
        );
        assert_eq!(ct.samples, plain);
        assert_eq!(ct.stats.fidelity(), 1.0);
    }

    #[test]
    fn recoverable_faults_are_byte_invisible() {
        // 20% fault rate, generous retries: every step must recover
        // and the sample vectors must be *identical* to fault-free.
        let pool = YearPool::calibrated(2019, 2);
        let bare = Transformer::new(&pool);
        let svc = lenient_svc(&pool, 7, 0.2);
        let seed = seed_code(2);

        let plain = try_run_nct(&bare, &seed, 15, Origin::ChatGpt, &mut Pcg64::new(8)).unwrap();
        let nct = run(
            false,
            &svc,
            &seed,
            15,
            Origin::ChatGpt,
            8,
            "b",
            &mut lenient_cx(),
        );
        assert_eq!(nct.samples, plain, "recovered NCT must be byte-identical");
        assert!(nct.outcomes.iter().all(|o| o.is_faithful()));
        assert!(nct.stats.recovered > 0, "20% rate must hit something");
        assert!(nct.stats.backoff_ms > 0);

        let plain = try_run_ct(&bare, &seed, 15, Origin::ChatGpt, &mut Pcg64::new(9)).unwrap();
        let ct = run(
            true,
            &svc,
            &seed,
            15,
            Origin::ChatGpt,
            9,
            "b",
            &mut lenient_cx(),
        );
        assert_eq!(ct.samples, plain, "recovered CT must be byte-identical");
        assert!(ct.outcomes.iter().all(|o| o.is_faithful()));
    }

    #[test]
    fn nct_degrades_by_resampling_and_completes() {
        // Harsh service: no retries, so ~35% of calls fail outright
        // and must be rescued by resampling.
        let pool = YearPool::calibrated(2018, 3);
        let svc =
            FaultyTransformer::new(&pool, FaultPlan::new(21, 0.35), RetryPolicy::no_retries());
        let seed = seed_code(3);
        let mut cx = StreamCx {
            budget: RetryBudget::unlimited(),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 1_000,
                cooldown_calls: 4,
            }),
            resamples: 3,
        };
        let nct = run(false, &svc, &seed, 40, Origin::ChatGpt, 10, "c", &mut cx);
        assert_eq!(nct.samples.len(), 40, "degraded runs still complete");
        let resampled = nct
            .outcomes
            .iter()
            .filter(|o| {
                matches!(
                    o,
                    Outcome::Degraded {
                        fallback: Fallback::Resampled { .. }
                    }
                )
            })
            .count();
        assert!(resampled > 0, "expected resampled steps: {:?}", nct.stats);
        // Resampled steps still carry valid, parseable transforms.
        for (s, o) in nct.samples.iter().zip(&nct.outcomes) {
            if !matches!(o, Outcome::Failed) {
                parse(&s.source).unwrap_or_else(|e| panic!("step {}: {e}", s.step));
            }
        }
        assert_eq!(
            nct.stats.clean + nct.stats.recovered + nct.stats.degraded + nct.stats.failed,
            40
        );
    }

    #[test]
    fn ct_holds_last_good_step_under_total_outage() {
        // Rate 1.0 with no retries: every call fails, the chain never
        // advances, and every sample is the seed itself.
        let pool = YearPool::calibrated(2017, 1);
        let svc = FaultyTransformer::new(&pool, FaultPlan::new(33, 1.0), RetryPolicy::no_retries());
        let seed = seed_code(4);
        let mut cx = StreamCx {
            budget: RetryBudget::new(5),
            breaker: CircuitBreaker::new(BreakerConfig {
                failure_threshold: 4,
                cooldown_calls: 3,
            }),
            resamples: 0,
        };
        let ct = run(true, &svc, &seed, 20, Origin::Human, 11, "d", &mut cx);
        assert_eq!(ct.samples.len(), 20);
        assert!(ct.samples.iter().all(|s| s.source == seed));
        assert!(ct.outcomes.iter().all(|o| matches!(
            o,
            Outcome::Degraded {
                fallback: Fallback::HeldStep
            } | Outcome::Failed
        )));
        assert!(
            ct.outcomes.iter().any(|o| matches!(o, Outcome::Failed)),
            "the tripped breaker must reject some calls outright: {:?}",
            ct.stats
        );
        assert!(ct.stats.breaker_trips > 0);
        assert_eq!(ct.stats.fidelity(), 0.0);
    }

    #[test]
    fn resilient_runs_are_deterministic() {
        let pool = YearPool::calibrated(2019, 5);
        let svc = lenient_svc(&pool, 17, 0.3);
        let seed = seed_code(5);
        for chaining in [false, true] {
            let go = || {
                run(
                    chaining,
                    &svc,
                    &seed,
                    12,
                    Origin::ChatGpt,
                    14,
                    "e",
                    &mut lenient_cx(),
                )
            };
            assert_eq!(go(), go(), "chaining {chaining}");
        }
    }

    #[test]
    fn carried_units_match_a_fresh_parse_of_each_sample() {
        // Every AST and region structure the drivers hand downstream
        // must be exactly what re-parsing the sample text would
        // produce — including held CT steps and failed NCT steps that
        // fall back to the seed. Accepted steps never re-parse their
        // own render (`transform_step_cached` hands the rewritten AST
        // through), so this is the end-to-end check of that
        // render/parse identity across fault rates.
        let pool = YearPool::calibrated(2018, 2);
        let seed = seed_code(6);
        for rate in [0.0, 0.05, 0.20, 0.35] {
            let svc =
                FaultyTransformer::new(&pool, FaultPlan::new(77, rate), RetryPolicy::no_retries());
            for chaining in [false, true] {
                let label = format!("rate {rate} chaining {chaining}");
                let out = run(
                    chaining,
                    &svc,
                    &seed,
                    12,
                    Origin::Human,
                    19,
                    "u",
                    &mut lenient_cx(),
                );
                assert_eq!(out.units.len(), out.samples.len(), "{label}");
                assert_eq!(out.regions.len(), out.samples.len(), "{label}");
                for ((s, u), ri) in out.samples.iter().zip(&out.units).zip(&out.regions) {
                    let fresh = parse(&s.source).unwrap();
                    assert_eq!(*u, fresh, "{label} step {}", s.step);
                    let Some(ri) = ri else { continue };
                    assert_eq!(ri.spans.len(), fresh.items.len(), "{label} step {}", s.step);
                    let mut pos = 0usize;
                    for ((sp, item), h) in ri.spans.iter().zip(&fresh.items).zip(&ri.item_hashes) {
                        assert_eq!(sp.start, pos + sp.sep_before, "{label} step {}", s.step);
                        assert_eq!(*h, item_hash(item), "{label} step {}", s.step);
                        pos = sp.end;
                    }
                    assert_eq!(pos, s.source.len(), "{label} step {}", s.step);
                    assert_eq!(ri.unit_hash, unit_hash(&fresh), "{label} step {}", s.step);
                }
            }
        }
    }
}
