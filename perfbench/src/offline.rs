//! The offline workloads: `paper-year` (a paper-scale GCJ 2018 build
//! plus its Table VIII and IX attribution runs) and `chain-chaos`
//! (chain-heavy builds of all three years under recoverable faults).
//!
//! The measured runs call the production entry points only:
//! [`YearPipeline::try_build`] and [`attribution::run`]. The traced run
//! replays those entry points' public calls in pipeline order with a
//! span around each call into a layer, and checks that the replay's
//! counts equal the pipeline's own `FrontendStats`, `DiagnosticStats`
//! and `ResilienceStats`.

use std::sync::Arc;
use std::time::Instant;

use synthattr_analysis::{fingerprint, Analyzer, Diagnostic, Severity};
use synthattr_core::config::{ExperimentConfig, Scale};
use synthattr_core::experiments::attribution::{self, AttributionResult, Grouping};
use synthattr_core::pipeline::{DiagnosticStats, Setting, TransformedEntry, YearPipeline};
use synthattr_core::{Artifact, ArtifactCache, AuthorshipModel, FrontendStats};
use synthattr_faults::drivers::{run_ct_resilient_cached, run_nct_resilient_cached};
use synthattr_faults::{FaultProfile, FaultyTransformer, Outcome, ResilienceStats};
use synthattr_features::FeatureExtractor;
use synthattr_gen::challenges::ChallengeId;
use synthattr_gen::corpus::{generate_year, solution_in_style, Origin, YearSpec};
use synthattr_gpt::incr::{try_run_ct_steps_cached, try_run_nct_steps_cached, FrontendCache};
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_lang::parser::parse;
use synthattr_ml::cv::group_folds;
use synthattr_ml::dataset::Dataset;
use synthattr_ml::forest::RandomForest;
use synthattr_ml::metrics::accuracy;
use synthattr_util::stats::ranked_histogram;
use synthattr_util::Pcg64;

use crate::stats::{median, ratio, Metrics};
use crate::trace::Tracer;
use crate::{cpu, Size};

/// The year `paper-year` builds.
pub const PAPER_YEAR: u32 = 2018;
/// Years `chain-chaos` builds.
pub const CHAIN_YEARS: [u32; 3] = [2017, 2018, 2019];
/// Pinned `paper-year` results (see [`pin_line`]).
const PINS: &str = include_str!("../pins/paper_year.txt");

/// The `paper-year` configuration: the paper's own corpus seed at
/// every workload seed. Another corpus changes the Table IX set and so
/// the amount of training work, which would make runs on different
/// seeds incomparable.
pub fn paper_year_config(size: Size) -> ExperimentConfig {
    let mut config = ExperimentConfig::paper();
    if size == Size::Tiny {
        config.scale = Scale {
            authors: 12,
            challenges: 8,
            transforms: 4,
            n_trees: 8,
        };
    }
    config
}

/// The fault-free and the faulty `chain-chaos` configurations for a
/// workload seed: the paper's corpus seed with a tiny corpus and
/// shallow forest, all 8 challenges and 256-step chains, and faults
/// from `FaultProfile::recoverable(seed, 0.20)`. The workload seed
/// picks the fault schedule, which changes where retries happen but
/// hardly how many, so runs on different seeds do the same work.
pub fn chain_configs(seed: u64, size: Size) -> (ExperimentConfig, ExperimentConfig) {
    let mut clean = ExperimentConfig::paper();
    clean.scale = match size {
        Size::Full => Scale {
            authors: 8,
            challenges: 8,
            transforms: 256,
            n_trees: 6,
        },
        Size::Tiny => Scale {
            authors: 4,
            challenges: 2,
            transforms: 16,
            n_trees: 3,
        },
    };
    let chaos = clean
        .clone()
        .with_faults(FaultProfile::recoverable(seed, 0.20));
    (clean, chaos)
}

/// The fault seed of the `chain-chaos` set-up, the same at every
/// workload seed.
const WARM_UP_FAULT_SEED: u64 = 0;

/// Every value of a Table VIII + IX result pair, as one comparable line.
pub fn digest(naive: &AttributionResult, feature: &AttributionResult) -> String {
    fn accs(r: &AttributionResult) -> String {
        let v: Vec<String> = r.fold_accuracy.iter().map(|a| format!("{a:.9}")).collect();
        v.join(",")
    }
    fn marks(v: &[bool]) -> String {
        v.iter().map(|&b| if b { 'v' } else { 'x' }).collect()
    }
    format!(
        "naive={} N={} feature={} T={} F={} target={} set={}",
        accs(naive),
        marks(&naive.chatgpt_ok),
        accs(feature),
        marks(feature.target_ok.as_deref().unwrap_or(&[])),
        marks(&feature.chatgpt_ok),
        feature.target_label,
        feature.set_size
    )
}

/// The pinned digest for `size`, if any.
pub fn pinned(size: Size) -> Option<&'static str> {
    let key = format!("{} ", size.name());
    PINS.lines().find_map(|l| l.strip_prefix(key.as_str()))
}

/// One production `paper-year` job: build, then both attribution runs.
pub struct PaperYearJob {
    pub pipeline: YearPipeline,
    pub digest: String,
}

impl PaperYearJob {
    pub fn samples(&self) -> usize {
        self.pipeline.corpus.len() + self.pipeline.transformed.len()
    }
}

/// Runs one `paper-year` job through the production entry points.
pub fn paper_year_job(config: &ExperimentConfig) -> Result<PaperYearJob, String> {
    let pipeline = YearPipeline::try_build(PAPER_YEAR, config).map_err(|e| e.to_string())?;
    let naive = attribution::run(&pipeline, Grouping::Naive);
    let feature = attribution::run(&pipeline, Grouping::FeatureBased);
    Ok(PaperYearJob {
        digest: digest(&naive, &feature),
        pipeline,
    })
}

/// The pins file's line for `size`, from the production entry points.
pub fn pin_line(size: Size) -> Result<String, String> {
    let job = paper_year_job(&paper_year_config(size))?;
    Ok(format!("{} {}", size.name(), job.digest))
}

/// The fault-free reference of one `chain-chaos` year: every
/// transformed source with its oracle label.
pub type Reference = Vec<(String, usize)>;

pub fn chain_reference(year: u32, clean: &ExperimentConfig) -> Result<Reference, String> {
    let p = YearPipeline::try_build(year, clean).map_err(|e| e.to_string())?;
    Ok(reference_of(&p))
}

fn reference_of(p: &YearPipeline) -> Reference {
    p.transformed
        .iter()
        .map(|t| (t.sample.source.clone(), t.oracle_label))
        .collect()
}

/// Why a chaos build differs from its fault-free reference, if it does
/// (the invisible-retry invariant).
pub fn chain_mismatch(p: &YearPipeline, reference: &Reference) -> Option<String> {
    let r = &p.resilience;
    if r.degraded != 0 || r.failed != 0 {
        return Some(format!(
            "{}: degraded={} failed={}",
            p.year, r.degraded, r.failed
        ));
    }
    if reference_of(p) != *reference {
        return Some(format!(
            "{}: sources or labels differ from the fault-free build",
            p.year
        ));
    }
    None
}

// ---------------------------------------------------------------------
// The traced replay
// ---------------------------------------------------------------------

fn year_spec(year: u32, config: &ExperimentConfig) -> Result<YearSpec, String> {
    let offset = match year {
        2017 => 0,
        2018 => 3,
        2019 => 6,
        other => return Err(format!("unsupported year {other}")),
    };
    Ok(YearSpec {
        year,
        authors: config.scale.authors,
        challenges: ChallengeId::all()[offset..offset + config.scale.challenges].to_vec(),
    })
}

fn absorb(stats: &mut DiagnosticStats, diags: &[Diagnostic]) {
    stats.units += 1;
    for d in diags {
        *stats.per_pass.entry(d.pass.to_string()).or_insert(0) += 1;
        match d.severity {
            Severity::Error => stats.errors += 1,
            Severity::Warning => stats.warnings += 1,
        }
    }
}

fn parse_traced(t: &mut Tracer, source: &str) -> Result<synthattr_lang::TranslationUnit, String> {
    t.span("lang.parse", |t| {
        t.add("lang.parse.bytes", source.len() as f64);
        parse(source).map_err(|e| e.to_string())
    })
}

/// Replays [`YearPipeline::try_build`] serially through the same
/// public calls, with a span around each call into a layer. Returns a
/// pipeline equal to the production one.
pub fn replay_build(
    year: u32,
    config: &ExperimentConfig,
    t: &mut Tracer,
) -> Result<YearPipeline, String> {
    t.span("core.try_build", |t| replay_build_inner(year, config, t))
}

/// The human-corpus and oracle stage of a build (what the serving
/// registry trains through), replayed with spans.
pub struct OracleStage {
    pub corpus: synthattr_gen::corpus::YearCorpus,
    pub human_features: Vec<Vec<f64>>,
    pub diagnostics: DiagnosticStats,
    pub frontend: FrontendStats,
    pub oracle: AuthorshipModel,
}

pub fn replay_oracle_stage(
    year: u32,
    config: &ExperimentConfig,
    t: &mut Tracer,
) -> Result<OracleStage, String> {
    let err = |e: synthattr_lang::error::ParseError| e.to_string();
    let spec = year_spec(year, config)?;
    let corpus = t.span("gen.generate_year", |_| generate_year(&spec, config.seed));
    let analyzer = Analyzer::new();
    let extractor = FeatureExtractor::new(config.features.clone());
    let mut diagnostics = DiagnosticStats::default();
    let mut frontend = FrontendStats::default();
    let mut human_features = Vec::with_capacity(corpus.samples.len());
    for sample in &corpus.samples {
        let unit = parse_traced(t, &sample.source)?;
        let artifact = t.span("core.artifact", |_| {
            Artifact::with_unit(sample.source.as_str(), unit)
        });
        let features = artifact
            .features_with(|src, unit| {
                t.span("features.extract", |_| extractor.extract_parsed(src, unit))
            })
            .map_err(err)?
            .as_ref()
            .clone();
        let diags = artifact
            .diagnostics_with(|unit| {
                t.span("analysis.analyze", |_| Arc::new(analyzer.analyze(unit)))
            })
            .map_err(err)?;
        absorb(&mut diagnostics, diags);
        frontend.cache_misses += 1;
        human_features.push(features);
    }
    let human_ds = t.span("ml.dataset", |_| {
        let mut ds = Dataset::new(spec.authors);
        for (sample, features) in corpus.samples.iter().zip(&human_features) {
            ds.push(features.clone(), sample.author);
        }
        ds
    });
    let mut rng = Pcg64::seed_from(config.seed, &["oracle", &year.to_string()]);
    let oracle = t.span("ml.fit", |t| {
        t.add("ml.fit.rows", human_ds.len() as f64);
        AuthorshipModel::from_features(extractor, &human_ds, &config.forest(), &mut rng)
    });
    Ok(OracleStage {
        corpus,
        human_features,
        diagnostics,
        frontend,
        oracle,
    })
}

fn replay_build_inner(
    year: u32,
    config: &ExperimentConfig,
    t: &mut Tracer,
) -> Result<YearPipeline, String> {
    let err = |e: synthattr_lang::error::ParseError| e.to_string();
    let spec = year_spec(year, config)?;
    let OracleStage {
        corpus,
        human_features,
        mut diagnostics,
        mut frontend,
        oracle,
    } = replay_oracle_stage(year, config, t)?;
    let analyzer = Analyzer::new();

    let pool = t.span("gpt.pool", |_| YearPool::calibrated(year, config.seed));
    let transformer = Transformer::new(&pool);
    let seed_author = (year as usize * 7) % spec.authors;
    let n_streams = spec.challenges.len() * Setting::all().len();
    let mut resilience = ResilienceStats::default();
    let mut transformed: Vec<TransformedEntry> = Vec::new();
    for (ci, &challenge) in spec.challenges.iter().enumerate() {
        let service = config
            .faults
            .as_ref()
            .map(|p| FaultyTransformer::new(&pool, p.plan(), p.policy.clone()));
        let mut cache = ArtifactCache::bounded(4096);
        let mut fc = FrontendCache::new();
        let mut parsed_seeds: Vec<String> = Vec::new();
        let mut gen_rng = Pcg64::seed_from(
            config.seed,
            &["gpt-gen", &year.to_string(), &ci.to_string()],
        );
        let gen_style_idx = pool.sample_index(&mut gen_rng);
        let gpt_seed = t.span("gen.solution_in_style", |_| {
            solution_in_style(
                challenge,
                pool.style(gen_style_idx),
                config.seed,
                &["gpt-gen-code", &year.to_string(), &ci.to_string()],
            )
        });
        let human_seed = corpus
            .samples
            .iter()
            .find(|s| s.author == seed_author && s.challenge == ci)
            .ok_or("corpus misses the seed author")?
            .source
            .clone();
        for setting in Setting::all() {
            let (seed_code, origin) = if setting.human_seed() {
                (&human_seed, Origin::Human)
            } else {
                (&gpt_seed, Origin::ChatGpt)
            };
            let mut rng = Pcg64::seed_from(
                config.seed,
                &[
                    "transform",
                    &year.to_string(),
                    &ci.to_string(),
                    setting.notation(),
                ],
            );
            let seed_artifact = if parsed_seeds.contains(seed_code) {
                t.span("core.artifact", |_| cache.intern(seed_code))
            } else {
                let unit = parse_traced(t, seed_code)?;
                parsed_seeds.push(seed_code.clone());
                t.span("core.artifact", |_| cache.intern_with_unit(seed_code, unit))
            };
            let seed_unit = seed_artifact.unit().map_err(err)?;
            let n = config.scale.transforms;
            let (samples, units, regions, outcomes) = match (&service, &config.faults) {
                (Some(svc), Some(profile)) => {
                    let anchor = format!("ch{ci}/{}", setting.notation());
                    let mut cx = profile.stream_cx(n_streams);
                    let run = t
                        .span("faults.run", |_| {
                            if setting.chaining() {
                                run_ct_resilient_cached(
                                    svc, seed_code, seed_unit, n, origin, &mut rng, &anchor,
                                    &mut cx, &mut fc,
                                )
                            } else {
                                run_nct_resilient_cached(
                                    svc, seed_code, seed_unit, n, origin, &mut rng, &anchor,
                                    &mut cx, &mut fc,
                                )
                            }
                        })
                        .map_err(|e| e.to_string())?;
                    resilience.merge(&run.stats);
                    (run.samples, run.units, run.regions, run.outcomes)
                }
                _ => {
                    let steps = t
                        .span("gpt.transform", |_| {
                            if setting.chaining() {
                                try_run_ct_steps_cached(
                                    &transformer,
                                    seed_code,
                                    seed_unit,
                                    n,
                                    origin,
                                    &mut rng,
                                    &mut fc,
                                )
                            } else {
                                try_run_nct_steps_cached(
                                    &transformer,
                                    seed_code,
                                    seed_unit,
                                    n,
                                    origin,
                                    &mut rng,
                                    &mut fc,
                                )
                            }
                        })
                        .map_err(|e| e.to_string())?;
                    t.add("gpt.transform.steps", steps.len() as f64);
                    let outcomes = vec![Outcome::Clean; steps.len()];
                    for o in &outcomes {
                        resilience.record(*o);
                    }
                    let mut samples = Vec::with_capacity(steps.len());
                    let mut units = Vec::with_capacity(steps.len());
                    let mut regions = Vec::with_capacity(steps.len());
                    for step in steps {
                        samples.push(step.sample);
                        units.push(step.unit);
                        regions.push(Some(step.regions));
                    }
                    (samples, units, regions, outcomes)
                }
            };
            for (((sample, unit), region), outcome) in
                samples.into_iter().zip(units).zip(regions).zip(outcomes)
            {
                let artifact = t.span("core.artifact", |_| {
                    cache.intern_with_unit(&sample.source, unit)
                });
                let mut computed = false;
                let features = artifact
                    .features_with(|src, unit| {
                        computed = true;
                        t.span("features.extract", |_| match &region {
                            Some(ri) => {
                                let items: Vec<_> = ri
                                    .item_hashes
                                    .iter()
                                    .zip(&unit.items)
                                    .map(|(h, item)| fc.item_features_for(*h, item))
                                    .collect();
                                let layouts: Vec<_> = ri
                                    .spans
                                    .iter()
                                    .map(|sp| {
                                        (sp.sep_before, fc.layout_for(&src[sp.start..sp.end]))
                                    })
                                    .collect();
                                oracle.extractor().extract_from_parts(
                                    src.len(),
                                    items.iter().map(|a| a.as_ref()),
                                    layouts.iter().map(|(s, l)| (*s, l.as_ref())),
                                )
                            }
                            None => oracle.extractor().extract_parsed(src, unit),
                        })
                    })
                    .map_err(err)?
                    .clone();
                let oracle_label = t
                    .span("ml.predict", |t| {
                        if computed {
                            t.add("ml.predict.rows", 1.0);
                        }
                        artifact.oracle_label(&oracle)
                    })
                    .map_err(err)?;
                let diags = artifact
                    .diagnostics_with(|unit| {
                        t.span("analysis.analyze", |_| match &region {
                            Some(ri) => fc.diags_for(ri.unit_hash, unit, &analyzer),
                            None => Arc::new(analyzer.analyze(unit)),
                        })
                    })
                    .map_err(err)?;
                absorb(&mut diagnostics, diags);
                transformed.push(TransformedEntry {
                    sample,
                    challenge: ci,
                    setting,
                    features,
                    oracle_label,
                    outcome,
                });
            }
        }
        let mut stats = cache.stats();
        stats.node_hits = fc.node_hits();
        stats.node_misses = fc.node_misses();
        frontend.merge(&stats);
    }
    Ok(YearPipeline {
        year,
        config: config.clone(),
        corpus,
        human_features,
        oracle,
        transformed,
        seed_author,
        diagnostics,
        resilience,
        frontend,
    })
}

/// Why a replayed pipeline differs from the production one, if it does.
pub fn replay_mismatch(replay: &YearPipeline, production: &YearPipeline) -> Option<String> {
    let year = production.year;
    if replay.frontend != production.frontend {
        return Some(format!(
            "{year}: replay FrontendStats {:?} != pipeline {:?}",
            replay.frontend, production.frontend
        ));
    }
    if replay.diagnostics != production.diagnostics {
        return Some(format!(
            "{year}: replay DiagnosticStats differ from the pipeline's"
        ));
    }
    if replay.resilience != production.resilience {
        return Some(format!(
            "{year}: replay ResilienceStats {:?} != pipeline {:?}",
            replay.resilience, production.resilience
        ));
    }
    if replay.human_features != production.human_features
        || reference_of(replay) != reference_of(production)
    {
        return Some(format!("{year}: replay outputs differ from the pipeline's"));
    }
    None
}

/// A class counts as recognized in a fold when at least half of its
/// test samples are predicted correctly (as in the attribution driver).
fn class_recognized(pred: &[usize], truth: &[usize], class: usize) -> bool {
    let total = truth.iter().filter(|&&t| t == class).count();
    let correct = pred
        .iter()
        .zip(truth)
        .filter(|(p, t)| **t == class && **p == class)
        .count();
    total == 0 || correct * 2 >= total
}

/// Replays [`attribution::run`] with spans around its dataset, fit and
/// predict calls.
pub fn replay_attribution(
    p: &YearPipeline,
    grouping: Grouping,
    t: &mut Tracer,
) -> AttributionResult {
    t.span("core.attribution", |t| {
        let labels = p.all_labels();
        let target_label = ranked_histogram(&labels).first().map_or(0, |(l, _)| *l);
        let set: Vec<usize> = p
            .transformed
            .iter()
            .enumerate()
            .filter(|(_, e)| match grouping {
                Grouping::Naive => e.sample.step == 1 && e.setting == Setting::GptNct,
                Grouping::FeatureBased => e.oracle_label == target_label,
            })
            .map(|(i, _)| i)
            .collect();
        let gpt_class = p.n_authors();
        let (ds, groups) = t.span("ml.dataset", |_| {
            let mut ds = Dataset::new(gpt_class + 1);
            let mut groups = Vec::new();
            for (sample, features) in p.corpus.samples.iter().zip(&p.human_features) {
                ds.push(features.clone(), sample.author);
                groups.push(sample.challenge);
            }
            for &i in &set {
                let entry = &p.transformed[i];
                ds.push(entry.features.as_ref().clone(), gpt_class);
                groups.push(entry.challenge);
            }
            (ds, groups)
        });
        let folds = t.span("ml.dataset", |_| group_folds(&groups));
        let (mut fold_accuracy, mut chatgpt_ok, mut target_ok) =
            (Vec::new(), Vec::new(), Vec::new());
        for (fi, fold) in folds.into_iter().enumerate() {
            let train = t.span("ml.dataset", |_| ds.subset(&fold.train));
            let mut rng = Pcg64::seed_from(
                p.config.seed,
                &[
                    "attribution",
                    &p.year.to_string(),
                    if grouping == Grouping::Naive {
                        "naive"
                    } else {
                        "feature"
                    },
                    &fi.to_string(),
                ],
            );
            let forest = t.span("ml.fit", |t| {
                t.add("ml.fit.rows", train.len() as f64);
                RandomForest::fit(&train, &p.config.forest(), &mut rng)
            });
            let truth: Vec<usize> = fold.test.iter().map(|&i| ds.label(i)).collect();
            let rows: Vec<&[f64]> = fold.test.iter().map(|&i| ds.row(i)).collect();
            let pred = t.span("ml.predict", |t| {
                t.add("ml.predict.rows", rows.len() as f64);
                forest.predict_batch(&rows)
            });
            fold_accuracy.push(accuracy(&pred, &truth));
            chatgpt_ok.push(class_recognized(&pred, &truth, gpt_class));
            target_ok.push(class_recognized(&pred, &truth, target_label));
        }
        AttributionResult {
            year: p.year,
            grouping,
            fold_accuracy,
            chatgpt_ok,
            target_ok: (grouping == Grouping::FeatureBased).then_some(target_ok),
            target_label,
            set_size: set.len(),
        }
    })
}

// ---------------------------------------------------------------------
// Workload drivers
// ---------------------------------------------------------------------

/// What a measured offline run saw.
#[derive(Debug, Default)]
pub struct Run {
    pub attempted: u64,
    pub failed: u64,
    pub errors: Vec<String>,
    pub metrics: Metrics,
}

impl Run {
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.errors.push(why);
    }
}

/// One measured job: samples through it, wall and process CPU seconds.
struct Job {
    samples: usize,
    wall_s: f64,
    cpu_s: f64,
}

/// Repeats `job` (which returns its sample count) while another fits
/// in `seconds` with a quarter to spare, at least once, so a job that
/// takes a little over half the run still runs twice.
fn measure(seconds: f64, mut job: impl FnMut(&mut Run) -> usize, run: &mut Run) -> Vec<Job> {
    let start = Instant::now();
    let mut jobs = Vec::new();
    loop {
        let (t, cpu0) = (Instant::now(), cpu::process_s());
        let samples = job(run);
        jobs.push(Job {
            samples,
            wall_s: t.elapsed().as_secs_f64(),
            cpu_s: cpu::process_s() - cpu0,
        });
        let j = jobs.last().expect("just pushed");
        eprintln!(
            "[perfbench] job {}: {} samples, {:.3} s wall, {:.2} s cpu",
            jobs.len(),
            j.samples,
            j.wall_s,
            j.cpu_s
        );
        let elapsed = start.elapsed().as_secs_f64();
        if elapsed + elapsed / jobs.len() as f64 > 1.25 * seconds {
            return jobs;
        }
    }
}

/// End-to-end metrics from the measured jobs: medians over jobs, so
/// one disturbed job does not move them.
fn end_to_end(run: &mut Run, setup: &[f64], jobs: &[Job]) {
    let per = |f: &dyn Fn(&Job) -> f64| median(&jobs.iter().map(f).collect::<Vec<_>>());
    eprintln!("[perfbench] set-ups {setup:.4?} s");
    let m = &mut run.metrics;
    m.set("setup_s", median(setup), "s");
    m.set(
        "samples_per_s",
        per(&|j| j.samples as f64 / j.wall_s),
        "1/s",
    );
    m.set("latency_p50_ms", per(&|j| j.wall_s * 1e3), "ms");
    m.set(
        "cpu_ms_per_sample",
        per(&|j| j.cpu_s * 1e3 / j.samples.max(1) as f64),
        "ms",
    );
    m.set("peak_heap_mib", crate::alloc::peak_mib(), "MiB");
}

/// Set-ups per run; `setup_s` is their median.
pub const SETUPS: usize = 7;

/// Set-up: the same job at tiny size on inputs that no workload seed
/// changes, [`SETUPS`] times; the median counts. It runs before the
/// measured phase, so the measured jobs find every layer warm.
fn warm_up(mut job: impl FnMut()) -> Vec<f64> {
    (0..SETUPS)
        .map(|_| {
            let t = Instant::now();
            job();
            t.elapsed().as_secs_f64()
        })
        .collect()
}

pub fn paper_year(seconds: f64, size: Size) -> Run {
    let mut run = Run::default();
    let config = paper_year_config(size);
    let expected = pinned(size);
    let tiny = paper_year_config(Size::Tiny);
    let setup = warm_up(|| {
        let _ = paper_year_job(&tiny);
    });
    crate::alloc::reset_peak();
    let jobs = measure(
        seconds,
        |run| {
            run.attempted += 1;
            match paper_year_job(&config) {
                Ok(job) => {
                    if Some(job.digest.as_str()) != expected {
                        run.fail(format!(
                            "paper-year results {} != pinned {expected:?}",
                            job.digest
                        ));
                    }
                    job.samples()
                }
                Err(e) => {
                    run.fail(format!("paper-year build failed: {e}"));
                    0
                }
            }
        },
        &mut run,
    );
    end_to_end(&mut run, &setup, &jobs);
    run
}

pub fn chain_chaos(seed: u64, seconds: f64, size: Size) -> Run {
    let mut run = Run::default();
    let (clean, chaos) = chain_configs(seed, size);
    let references: Vec<Reference> = match CHAIN_YEARS
        .iter()
        .map(|&y| chain_reference(y, &clean))
        .collect()
    {
        Ok(r) => r,
        Err(e) => {
            run.attempted = 1;
            run.fail(format!("fault-free reference build failed: {e}"));
            return run;
        }
    };
    let (_, tiny_chaos) = chain_configs(WARM_UP_FAULT_SEED, Size::Tiny);
    let setup = warm_up(|| {
        for &y in &CHAIN_YEARS {
            let _ = YearPipeline::try_build(y, &tiny_chaos);
        }
    });
    crate::alloc::reset_peak();
    let jobs = measure(
        seconds,
        |run| {
            let mut samples = 0;
            for (&year, reference) in CHAIN_YEARS.iter().zip(&references) {
                run.attempted += 1;
                match YearPipeline::try_build(year, &chaos) {
                    Ok(p) => {
                        samples += p.corpus.len() + p.transformed.len();
                        if let Some(why) = chain_mismatch(&p, reference) {
                            run.fail(why);
                        }
                    }
                    Err(e) => run.fail(format!("{year}: chaos build failed: {e}")),
                }
            }
            samples
        },
        &mut run,
    );
    end_to_end(&mut run, &setup, &jobs);
    run
}

/// Per-layer metrics every traced offline run reports.
fn layer_metrics(
    t: &Tracer,
    production: &[&YearPipeline],
    overhead_share: f64,
    fingerprint_s: f64,
) -> Metrics {
    let mut m = Metrics::default();
    let busy = |name: &str| t.self_s(name);
    m.set(
        "gen.generate_year.calls",
        t.calls("gen.generate_year"),
        "count",
    );
    m.set("gen.generate_year.busy_s", busy("gen.generate_year"), "s");
    m.set("lang.parse.calls", t.calls("lang.parse"), "count");
    m.set("lang.parse.busy_s", busy("lang.parse"), "s");
    m.set(
        "lang.parse.mb_per_s",
        ratio(t.count("lang.parse.bytes") / 1e6, busy("lang.parse")),
        "MB/s",
    );
    m.set(
        "analysis.analyze.calls",
        t.calls("analysis.analyze"),
        "count",
    );
    m.set("analysis.analyze.busy_s", busy("analysis.analyze"), "s");
    m.set("analysis.fingerprint.busy_s", fingerprint_s, "s");
    m.set(
        "features.extract.calls",
        t.calls("features.extract"),
        "count",
    );
    m.set("features.extract.busy_s", busy("features.extract"), "s");
    let fe = production
        .iter()
        .fold(FrontendStats::default(), |mut acc, p| {
            acc.merge(&p.frontend);
            acc
        });
    m.set(
        "features.node_hit_ratio",
        ratio(fe.node_hits as f64, (fe.node_hits + fe.node_misses) as f64),
        "ratio",
    );
    m.set(
        "gpt.transform.steps",
        t.count("gpt.transform.steps"),
        "count",
    );
    m.set("gpt.transform.busy_s", busy("gpt.transform"), "s");
    m.set("ml.fit.calls", t.calls("ml.fit"), "count");
    m.set("ml.fit.rows", t.count("ml.fit.rows"), "count");
    m.set("ml.fit.busy_s", busy("ml.fit"), "s");
    m.set("ml.predict.rows", t.count("ml.predict.rows"), "count");
    m.set("ml.predict.busy_s", busy("ml.predict"), "s");
    m.set("core.try_build.busy_s", t.total_s("core.try_build"), "s");
    m.set(
        "core.attribution.busy_s",
        t.total_s("core.attribution"),
        "s",
    );
    m.set(
        "core.artifact.hit_ratio",
        ratio(
            fe.cache_hits as f64,
            (fe.cache_hits + fe.cache_misses) as f64,
        ),
        "ratio",
    );
    m.set("core.frontend_busy_s", fe.frontend_ns as f64 / 1e9, "s");
    m.set("bench.unattributed_share", t.unattributed_share(), "ratio");
    m.set("bench.tracing_overhead_share", overhead_share, "ratio");
    m
}

/// Fault-layer metrics from the replay's `faults.run` spans and the
/// resilience stats those runs returned.
fn fault_metrics(m: &mut Metrics, t: &Tracer, faulty: &ResilienceStats) {
    let attempts = faulty.calls + faulty.retries;
    m.set("faults.calls", faulty.calls as f64, "count");
    m.set("faults.attempts", attempts as f64, "count");
    m.set(
        "faults.useful_ratio",
        ratio((faulty.clean + faulty.recovered) as f64, attempts as f64),
        "ratio",
    );
    m.set("faults.degraded", faulty.degraded as f64, "count");
    m.set("faults.busy_s", t.self_s("faults.run"), "s");
}

/// Serial production config for a traced run: one worker, so spans
/// nest on one thread.
fn serial(config: &ExperimentConfig) -> ExperimentConfig {
    let mut c = config.clone();
    c.workers = Some(1);
    c
}

/// Runs `replay` untraced, then traced into `t`, then untraced again,
/// and returns the traced run's output with the tracing overhead: the
/// traced wall time over the mean of the two untraced ones, less one.
/// The untraced runs bracket the traced one, so a steady drift of the
/// machine's speed cancels.
fn bracketed<R>(t: &mut Tracer, mut replay: impl FnMut(&mut Tracer) -> R) -> (R, f64) {
    let mut wall = |what: &str, t: &mut Tracer| {
        let start = Instant::now();
        let out = replay(t);
        let secs = start.elapsed().as_secs_f64();
        eprintln!("[perfbench] {what} replay: {secs:.3} s");
        (out, secs)
    };
    let (_, before) = wall("untraced", &mut Tracer::disabled());
    let (out, traced) = wall("traced", t);
    let (_, after) = wall("untraced", &mut Tracer::disabled());
    (out, traced / ((before + after) / 2.0) - 1.0)
}

pub fn paper_year_traced(size: Size) -> Run {
    let mut run = Run {
        attempted: 1,
        ..Run::default()
    };
    let config = serial(&paper_year_config(size));
    let expected = pinned(size);
    let job = match paper_year_job(&config) {
        Ok(job) => job,
        Err(e) => {
            run.fail(format!("paper-year build failed: {e}"));
            return run;
        }
    };
    if Some(job.digest.as_str()) != expected {
        run.fail(format!(
            "paper-year results {} != pinned {expected:?}",
            job.digest
        ));
    }
    let mut t = Tracer::default();
    let (replayed, overhead) = bracketed(&mut t, |t| {
        let replay = replay_build(PAPER_YEAR, &config, t)?;
        let naive = replay_attribution(&replay, Grouping::Naive, t);
        let feature = replay_attribution(&replay, Grouping::FeatureBased, t);
        Ok::<_, String>((digest(&naive, &feature), replay))
    });
    match replayed {
        Ok((replay_digest, replay)) => {
            if let Some(why) = replay_mismatch(&replay, &job.pipeline) {
                run.fail(why);
            }
            if replay_digest != job.digest {
                run.fail("replayed attribution differs from the pipeline's".to_string());
            }
        }
        Err(e) => run.fail(format!("replay failed: {e}")),
    }
    run.metrics = layer_metrics(&t, &[&job.pipeline], overhead, 0.0);
    fault_metrics(&mut run.metrics, &t, &ResilienceStats::default());
    run
}

pub fn chain_chaos_traced(seed: u64, size: Size) -> Run {
    let mut run = Run::default();
    let (clean, chaos) = chain_configs(seed, size);
    let (clean, chaos) = (serial(&clean), serial(&chaos));
    let mut production = Vec::new();
    for &year in &CHAIN_YEARS {
        run.attempted += 1;
        let built = YearPipeline::try_build(year, &clean)
            .and_then(|c| Ok((c, YearPipeline::try_build(year, &chaos)?)));
        match built {
            Ok((c, f)) => {
                if let Some(why) = chain_mismatch(&f, &reference_of(&c)) {
                    run.fail(why);
                }
                production.push(c);
                production.push(f);
            }
            Err(e) => {
                run.fail(format!("{year}: build failed: {e}"));
                return run;
            }
        }
    }
    let mut t = Tracer::default();
    let (replays, overhead) = bracketed(&mut t, |t| {
        production
            .iter()
            .enumerate()
            .map(|(i, p)| {
                t.set_request(i as u64);
                replay_build(p.year, &p.config, t)
            })
            .collect::<Vec<_>>()
    });
    let mut faulty = ResilienceStats::default();
    for (replay, p) in replays.into_iter().zip(&production) {
        match replay {
            Ok(replay) => {
                if let Some(why) = replay_mismatch(&replay, p) {
                    run.fail(why);
                }
                if p.config.faults.is_some() {
                    faulty.merge(&replay.resilience);
                }
            }
            Err(e) => run.fail(format!("{}: replay failed: {e}", p.year)),
        }
    }
    let fingerprint_s = fingerprint_probe(production.iter().filter(|p| p.config.faults.is_some()));
    let refs: Vec<&YearPipeline> = production.iter().collect();
    run.metrics = layer_metrics(&t, &refs, overhead, fingerprint_s);
    fault_metrics(&mut run.metrics, &t, &faulty);
    run
}

/// Seconds to fingerprint every distinct transformed unit once: the
/// work the fault layer's validator does per accepted response,
/// measured outside the replay because it happens inside that layer.
fn fingerprint_probe<'a>(pipelines: impl Iterator<Item = &'a YearPipeline>) -> f64 {
    let mut seen = std::collections::HashSet::new();
    let mut busy = 0.0;
    for p in pipelines {
        for e in &p.transformed {
            if !seen.insert(e.sample.source.as_str()) {
                continue;
            }
            let Ok(unit) = parse(&e.sample.source) else {
                continue;
            };
            let t = Instant::now();
            std::hint::black_box(fingerprint(&unit));
            busy += t.elapsed().as_secs_f64();
        }
    }
    busy
}
