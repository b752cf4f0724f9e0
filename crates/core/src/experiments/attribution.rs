//! Tables VIII and IX: 205-class attribution of transformed code.
//!
//! Protocol (paper §V-C, §VI-D):
//!
//! 1. build a "ChatGPT set" from the transformed samples — **naive**:
//!    the first response of every `(challenge, setting)` run, ignoring
//!    styles; **feature-based**: all samples sharing the dominant
//!    oracle label (the *target label*);
//! 2. combine the set (as class 205) with the 204 human authors;
//! 3. evaluate with one fold per challenge: train on 7 challenges,
//!    test on the held-out one;
//! 4. report per-fold 205-class accuracy, whether the ChatGPT set was
//!    recognized in the fold (`N`/`F` checkmark columns), and — for the
//!    feature-based approach — whether the *target* human author is
//!    still recognized (`T` column).

use crate::pipeline::YearPipeline;
use synthattr_ml::cv::group_folds;
use synthattr_ml::dataset::Dataset;
use synthattr_ml::forest::RandomForest;
use synthattr_ml::metrics::accuracy;
use synthattr_ml::rank::RankIndex;
use synthattr_util::stats::ranked_histogram;
use synthattr_util::{table, Pcg64, Table};

/// How the ChatGPT class is assembled.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Grouping {
    /// First responses only, no style grouping (Table VIII).
    Naive,
    /// Samples sharing the dominant predicted style (Table IX).
    FeatureBased,
}

/// Result of one attribution experiment (one year, one grouping).
#[derive(Debug, Clone, PartialEq)]
pub struct AttributionResult {
    /// The year.
    pub year: u32,
    /// The grouping used.
    pub grouping: Grouping,
    /// 205-class accuracy per challenge fold.
    pub fold_accuracy: Vec<f64>,
    /// Whether the ChatGPT set was recognized in each fold.
    pub chatgpt_ok: Vec<bool>,
    /// Whether the target author was recognized in each fold
    /// (feature-based only).
    pub target_ok: Option<Vec<bool>>,
    /// The dominant oracle label (the paper's "target label").
    pub target_label: usize,
    /// Size of the assembled ChatGPT set.
    pub set_size: usize,
}

impl AttributionResult {
    /// Mean fold accuracy (the paper's `A` row, `205` column).
    pub fn avg_accuracy(&self) -> f64 {
        mean(&self.fold_accuracy)
    }

    /// Fraction of folds where the ChatGPT set was recognized (the
    /// paper's `N`/`F` average: 100 / 50 / 37.5 …).
    pub fn chatgpt_pct(&self) -> f64 {
        fraction_true(&self.chatgpt_ok)
    }

    /// Fraction of folds where the target author was recognized.
    pub fn target_pct(&self) -> Option<f64> {
        self.target_ok.as_ref().map(|v| fraction_true(v))
    }
}

fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

fn fraction_true(xs: &[bool]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().filter(|&&b| b).count() as f64 / xs.len() as f64
    }
}

/// Runs the attribution experiment for one year and grouping.
pub fn run(p: &YearPipeline, grouping: Grouping) -> AttributionResult {
    run_with_selection(p, grouping, None)
}

/// Like [`run`], but optionally reduces the feature space to the
/// `top_k` highest-information-gain features before training (the
/// Caliskan-Islam/WEKA feature-selection step; selection is computed
/// on each fold's training split only, so no test leakage).
pub fn run_with_selection(
    p: &YearPipeline,
    grouping: Grouping,
    top_k: Option<usize>,
) -> AttributionResult {
    let labels = p.all_labels();
    let target_label = ranked_histogram(&labels)
        .first()
        .map(|(l, _)| *l)
        .expect("transformed set is non-empty");

    // Assemble the ChatGPT set.
    let set: Vec<usize> = match grouping {
        // "Users typically accept the first response": the naive class
        // is exactly one sample per challenge — the initial transformed
        // response of the ChatGPT-seeded run — with no style grouping.
        Grouping::Naive => p
            .transformed
            .iter()
            .enumerate()
            .filter(|(_, t)| t.sample.step == 1 && t.setting == crate::pipeline::Setting::GptNct)
            .map(|(i, _)| i)
            .collect(),
        Grouping::FeatureBased => p
            .transformed
            .iter()
            .enumerate()
            .filter(|(_, t)| t.oracle_label == target_label)
            .map(|(i, _)| i)
            .collect(),
    };

    // Combined 205-class dataset with per-challenge groups.
    let n_authors = p.n_authors();
    let gpt_class = n_authors;
    let mut ds = Dataset::new(n_authors + 1);
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

    // One fold per challenge. Without feature selection every fold
    // trains on rows of one rank index, built by the first fold;
    // selection picks each fold's own columns, so it trains on a
    // projected copy instead.
    let mut index = None;
    let mut fold_accuracy = Vec::new();
    let mut chatgpt_ok = Vec::new();
    let mut target_ok = Vec::new();
    for (fi, fold) in group_folds(&groups).into_iter().enumerate() {
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
        let (forest, columns) = match top_k {
            None => {
                let index = index.get_or_insert_with(|| RankIndex::build(&ds));
                let forest =
                    RandomForest::fit_rows(index, &fold.train, &p.config.forest(), &mut rng);
                (forest, None)
            }
            // Information-gain selection, fitted on the fold's
            // training split only.
            Some(k) => {
                let train = ds.subset(&fold.train);
                let cols = synthattr_ml::select::select_top_k(&train, k);
                let forest = RandomForest::fit(&train.project(&cols), &p.config.forest(), &mut rng);
                (forest, Some(cols))
            }
        };
        let truth: Vec<usize> = fold.test.iter().map(|&i| ds.label(i)).collect();
        // Bulk prediction through the pool-parallel batch API (order-
        // preserving, so results match the per-row loop exactly).
        let pred: Vec<usize> = match &columns {
            Some(cols) => {
                let projected: Vec<Vec<f64>> = fold
                    .test
                    .iter()
                    .map(|&i| cols.iter().map(|&c| ds.row(i)[c]).collect())
                    .collect();
                let rows: Vec<&[f64]> = projected.iter().map(Vec::as_slice).collect();
                forest.predict_batch(&rows)
            }
            None => {
                let rows: Vec<&[f64]> = fold.test.iter().map(|&i| ds.row(i)).collect();
                forest.predict_batch(&rows)
            }
        };
        fold_accuracy.push(accuracy(&pred, &truth));
        chatgpt_ok.push(class_recognized(&pred, &truth, gpt_class));
        target_ok.push(class_recognized(&pred, &truth, target_label));
    }

    AttributionResult {
        year: p.year,
        grouping,
        fold_accuracy,
        chatgpt_ok,
        target_ok: match grouping {
            Grouping::FeatureBased => Some(target_ok),
            Grouping::Naive => None,
        },
        target_label,
        set_size: set.len(),
    }
}

/// A class counts as recognized in a fold when at least half of its
/// test samples are predicted correctly (vacuously true when the fold
/// holds none of its samples).
fn class_recognized(pred: &[usize], truth: &[usize], class: usize) -> bool {
    let total = truth.iter().filter(|&&t| t == class).count();
    if total == 0 {
        return true;
    }
    let correct = pred
        .iter()
        .zip(truth)
        .filter(|(p, t)| **t == class && **p == class)
        .count();
    correct * 2 >= total
}

/// Renders Table VIII (naive results for up to three years).
pub fn render_naive(results: &[AttributionResult]) -> Table {
    let mut header = vec!["C".to_string()];
    for r in results {
        header.push(format!("{} 205", r.year));
        header.push(format!("{} N", r.year));
    }
    let mut t = Table::new(header).with_title("Table VIII: accuracy (naive) for 205 authors");
    render_rows(results, &mut t, false);
    t
}

/// Renders Table IX (feature-based results for up to three years).
pub fn render_feature_based(results: &[AttributionResult]) -> Table {
    let mut header = vec!["C".to_string()];
    for r in results {
        header.push(format!("{} 205", r.year));
        header.push(format!("{} T", r.year));
        header.push(format!("{} F", r.year));
    }
    let mut t = Table::new(header).with_title("Table IX: accuracy (feature-based) for 205 authors");
    render_rows(results, &mut t, true);
    t
}

fn render_rows(results: &[AttributionResult], t: &mut Table, with_target: bool) {
    let folds = results
        .iter()
        .map(|r| r.fold_accuracy.len())
        .max()
        .unwrap_or(0);
    for fi in 0..folds {
        let mut row = vec![format!("C{}", fi + 1)];
        for r in results {
            row.push(
                r.fold_accuracy
                    .get(fi)
                    .map(|a| table::pct(*a))
                    .unwrap_or_default(),
            );
            if with_target {
                if let Some(target) = &r.target_ok {
                    row.push(target.get(fi).map(|&b| table::mark(b)).unwrap_or_default());
                }
            }
            row.push(
                r.chatgpt_ok
                    .get(fi)
                    .map(|&b| table::mark(b))
                    .unwrap_or_default(),
            );
        }
        t.row(row);
    }
    let mut avg = vec!["A".to_string()];
    for r in results {
        avg.push(table::pct(r.avg_accuracy()));
        if with_target {
            if let Some(tp) = r.target_pct() {
                avg.push(table::pct(tp));
            }
        }
        avg.push(table::pct(r.chatgpt_pct()));
    }
    t.row(avg);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    fn pipeline(year: u32) -> YearPipeline {
        YearPipeline::build(year, &ExperimentConfig::smoke())
    }

    #[test]
    fn feature_based_set_is_style_pure() {
        let p = pipeline(2018);
        let r = run(&p, Grouping::FeatureBased);
        assert!(r.set_size > 0);
        // Every member of the set carries the target label by
        // construction.
        let members = p
            .transformed
            .iter()
            .filter(|t| t.oracle_label == r.target_label)
            .count();
        assert_eq!(members, r.set_size);
        assert!(r.target_ok.is_some());
    }

    #[test]
    fn naive_set_is_one_first_response_per_challenge() {
        let p = pipeline(2018);
        let r = run(&p, Grouping::Naive);
        assert_eq!(r.set_size, p.n_challenges());
        assert!(r.target_ok.is_none());
    }

    #[test]
    fn fold_counts_match_challenges() {
        let p = pipeline(2017);
        let r = run(&p, Grouping::FeatureBased);
        assert_eq!(r.fold_accuracy.len(), p.n_challenges());
        assert_eq!(r.chatgpt_ok.len(), p.n_challenges());
        for a in &r.fold_accuracy {
            assert!((0.0..=1.0).contains(a));
        }
    }

    #[test]
    fn feature_based_recognizes_chatgpt_at_least_as_often_as_naive() {
        // The paper's central comparison (Tables VIII vs IX).
        let p = pipeline(2018);
        let naive = run(&p, Grouping::Naive);
        let feature = run(&p, Grouping::FeatureBased);
        assert!(
            feature.chatgpt_pct() >= naive.chatgpt_pct(),
            "feature-based {:.2} should be >= naive {:.2}",
            feature.chatgpt_pct(),
            naive.chatgpt_pct()
        );
    }

    #[test]
    fn renders_paper_layout() {
        let p = pipeline(2017);
        let naive = run(&p, Grouping::Naive);
        let feature = run(&p, Grouping::FeatureBased);
        let t8 = render_naive(&[naive]).to_string();
        assert!(t8.contains("2017 205"));
        assert!(t8.contains("| A"));
        let t9 = render_feature_based(&[feature]).to_string();
        assert!(t9.contains("2017 T"));
        assert!(t9.contains("2017 F"));
    }

    #[test]
    fn feature_selection_variant_runs_and_stays_sane() {
        let p = pipeline(2017);
        let full = run(&p, Grouping::FeatureBased);
        let selected = run_with_selection(&p, Grouping::FeatureBased, Some(60));
        assert_eq!(selected.fold_accuracy.len(), full.fold_accuracy.len());
        // A 60-feature model should stay in the same accuracy ballpark
        // as the full model (information gain keeps the signal).
        assert!(
            selected.avg_accuracy() > full.avg_accuracy() - 0.25,
            "selected {:.2} vs full {:.2}",
            selected.avg_accuracy(),
            full.avg_accuracy()
        );
    }

    #[test]
    fn class_recognized_logic() {
        // 2 of 3 correct -> recognized; 1 of 3 -> not.
        assert!(class_recognized(&[5, 5, 0], &[5, 5, 5], 5));
        assert!(!class_recognized(&[5, 0, 0], &[5, 5, 5], 5));
        // Vacuous truth when absent.
        assert!(class_recognized(&[1], &[1], 7));
    }
}
