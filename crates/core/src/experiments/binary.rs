//! Table X: binary classification (ChatGPT vs. human).
//!
//! Per year: the 1,600 transformed samples (class "ChatGPT") against a
//! challenge-balanced subsample of the human corpus (class "human"),
//! evaluated with one fold per challenge. The combined experiment
//! merges three years at 5 challenges each (6,000 samples) and reports
//! per-(year, challenge) cell accuracies.

use crate::pipeline::YearPipeline;
use synthattr_ml::cv::group_folds;
use synthattr_ml::dataset::Dataset;
use synthattr_ml::forest::RandomForest;
use synthattr_ml::metrics::accuracy;
use synthattr_ml::rank::RankIndex;
use synthattr_util::{table, Pcg64, Table};

/// Binary result for one year.
#[derive(Debug, Clone, PartialEq)]
pub struct BinaryResult {
    /// The year.
    pub year: u32,
    /// Accuracy per challenge fold.
    pub per_challenge: Vec<f64>,
}

impl BinaryResult {
    /// Mean accuracy (the paper's `A` row).
    pub fn avg(&self) -> f64 {
        if self.per_challenge.is_empty() {
            0.0
        } else {
            self.per_challenge.iter().sum::<f64>() / self.per_challenge.len() as f64
        }
    }
}

/// Combined three-year result.
#[derive(Debug, Clone, PartialEq)]
pub struct CombinedBinaryResult {
    /// Years in column order.
    pub years: Vec<u32>,
    /// `cells[challenge][year]` accuracy.
    pub cells: Vec<Vec<f64>>,
}

impl CombinedBinaryResult {
    /// Column (per-year) averages.
    pub fn year_avgs(&self) -> Vec<f64> {
        (0..self.years.len())
            .map(|y| {
                let col: Vec<f64> = self.cells.iter().map(|row| row[y]).collect();
                col.iter().sum::<f64>() / col.len().max(1) as f64
            })
            .collect()
    }

    /// Overall average (the paper's "All" column).
    pub fn all_avg(&self) -> f64 {
        let flat: Vec<f64> = self.cells.iter().flatten().copied().collect();
        flat.iter().sum::<f64>() / flat.len().max(1) as f64
    }
}

/// Builds the per-year binary dataset: all transformed samples vs a
/// challenge-balanced human subsample of the same size.
fn binary_dataset(p: &YearPipeline, challenges: usize) -> (Dataset, Vec<usize>) {
    let per_challenge_gpt = p.transformed.len() / p.n_challenges();
    let humans_per_challenge = p.n_authors();
    // Both classes contribute the same count per challenge (the paper
    // uses 200 each; reduced scales balance to whichever side is
    // smaller).
    let per_class = per_challenge_gpt.min(humans_per_challenge);
    let mut ds = Dataset::new(2);
    let mut groups = Vec::new();
    let mut rng = Pcg64::seed_from(p.config.seed, &["binary-subsample", &p.year.to_string()]);
    for ci in 0..challenges {
        // ChatGPT class (label 1).
        let gpt: Vec<usize> = p
            .transformed
            .iter()
            .enumerate()
            .filter(|(_, t)| t.challenge == ci)
            .map(|(i, _)| i)
            .collect();
        for idx in rng.sample_indices(gpt.len(), per_class.min(gpt.len())) {
            ds.push(p.transformed[gpt[idx]].features.as_ref().clone(), 1);
            groups.push(ci);
        }
        // Human class (label 0).
        let humans: Vec<usize> = p
            .corpus
            .samples
            .iter()
            .enumerate()
            .filter(|(_, s)| s.challenge == ci)
            .map(|(i, _)| i)
            .collect();
        for idx in rng.sample_indices(humans.len(), per_class.min(humans.len())) {
            ds.push(p.human_features[humans[idx]].clone(), 0);
            groups.push(ci);
        }
    }
    (ds, groups)
}

/// Runs the individual-year binary experiment.
pub fn run_individual(p: &YearPipeline) -> BinaryResult {
    let (ds, groups) = binary_dataset(p, p.n_challenges());
    let index = RankIndex::build(&ds);
    let mut per_challenge = Vec::new();
    for (fi, fold) in group_folds(&groups).into_iter().enumerate() {
        let mut rng = Pcg64::seed_from(
            p.config.seed,
            &["binary", &p.year.to_string(), &fi.to_string()],
        );
        let forest = RandomForest::fit_rows(&index, &fold.train, &p.config.forest(), &mut rng);
        let truth: Vec<usize> = fold.test.iter().map(|&i| ds.label(i)).collect();
        let rows: Vec<&[f64]> = fold.test.iter().map(|&i| ds.row(i)).collect();
        per_challenge.push(accuracy(&forest.predict_batch(&rows), &truth));
    }
    BinaryResult {
        year: p.year,
        per_challenge,
    }
}

/// Runs the combined experiment over multiple years (the paper uses 5
/// challenges per year to keep the combined dataset balanced).
pub fn run_combined(pipelines: &[YearPipeline]) -> CombinedBinaryResult {
    assert!(!pipelines.is_empty(), "need at least one year");
    let challenges = pipelines
        .iter()
        .map(|p| p.n_challenges())
        .min()
        .unwrap()
        .min(5);

    // Merge: group id = year_index * challenges + challenge.
    let mut ds = Dataset::new(2);
    let mut groups = Vec::new();
    for (yi, p) in pipelines.iter().enumerate() {
        let (yds, ygroups) = binary_dataset(p, challenges);
        for (i, &group) in ygroups.iter().enumerate() {
            ds.push(yds.row(i).to_vec(), yds.label(i));
            groups.push(yi * challenges + group);
        }
    }

    let index = RankIndex::build(&ds);
    let mut cells = vec![vec![0.0f64; pipelines.len()]; challenges];
    for (fi, fold) in group_folds(&groups).into_iter().enumerate() {
        let yi = fi / challenges;
        let ci = fi % challenges;
        let mut rng = Pcg64::seed_from(
            pipelines[0].config.seed,
            &["binary-combined", &fi.to_string()],
        );
        let forest =
            RandomForest::fit_rows(&index, &fold.train, &pipelines[0].config.forest(), &mut rng);
        let truth: Vec<usize> = fold.test.iter().map(|&i| ds.label(i)).collect();
        let rows: Vec<&[f64]> = fold.test.iter().map(|&i| ds.row(i)).collect();
        cells[ci][yi] = accuracy(&forest.predict_batch(&rows), &truth);
    }
    CombinedBinaryResult {
        years: pipelines.iter().map(|p| p.year).collect(),
        cells,
    }
}

/// Renders Table X from individual and combined results.
pub fn render(individual: &[BinaryResult], combined: Option<&CombinedBinaryResult>) -> Table {
    let mut header: Vec<String> = vec!["C".into()];
    for r in individual {
        header.push(format!("Ind {}", r.year));
    }
    if let Some(c) = combined {
        for y in &c.years {
            header.push(format!("Comb {y}"));
        }
        header.push("All".into());
    }
    let mut t = Table::new(header).with_title("Table X: binary classification accuracy");
    let rows = individual
        .iter()
        .map(|r| r.per_challenge.len())
        .max()
        .unwrap_or(0);
    for ci in 0..rows {
        let mut row = vec![format!("C{}", ci + 1)];
        for r in individual {
            row.push(
                r.per_challenge
                    .get(ci)
                    .map(|a| table::pct(*a))
                    .unwrap_or_default(),
            );
        }
        if let Some(c) = combined {
            for yi in 0..c.years.len() {
                row.push(
                    c.cells
                        .get(ci)
                        .map(|r| table::pct(r[yi]))
                        .unwrap_or_default(),
                );
            }
            row.push(String::new());
        }
        t.row(row);
    }
    let mut avg = vec!["A".to_string()];
    for r in individual {
        avg.push(table::pct(r.avg()));
    }
    if let Some(c) = combined {
        for a in c.year_avgs() {
            avg.push(table::pct(a));
        }
        avg.push(table::pct(c.all_avg()));
    }
    t.row(avg);
    t
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ExperimentConfig;

    fn pipeline(year: u32) -> YearPipeline {
        YearPipeline::build(year, &ExperimentConfig::smoke())
    }

    #[test]
    fn individual_binary_is_accurate() {
        let p = pipeline(2018);
        let r = run_individual(&p);
        assert_eq!(r.per_challenge.len(), p.n_challenges());
        // The paper reports ~90%; the smoke-scale floor is generous but
        // must be far above chance.
        assert!(r.avg() > 0.7, "binary accuracy too low: {:.3}", r.avg());
    }

    #[test]
    fn binary_dataset_is_balanced_per_challenge() {
        let p = pipeline(2017);
        let (ds, groups) = binary_dataset(&p, p.n_challenges());
        for ci in 0..p.n_challenges() {
            let gpt = groups
                .iter()
                .enumerate()
                .filter(|(i, &g)| g == ci && ds.label(*i) == 1)
                .count();
            let human = groups
                .iter()
                .enumerate()
                .filter(|(i, &g)| g == ci && ds.label(*i) == 0)
                .count();
            assert_eq!(gpt, human, "challenge {ci} unbalanced");
        }
    }

    #[test]
    fn combined_has_year_cells() {
        let ps = vec![pipeline(2017), pipeline(2018)];
        let r = run_combined(&ps);
        assert_eq!(r.years, vec![2017, 2018]);
        assert_eq!(
            r.cells.len(),
            ps[0].n_challenges().min(5).min(ps[1].n_challenges())
        );
        for row in &r.cells {
            assert_eq!(row.len(), 2);
            for &a in row {
                assert!((0.0..=1.0).contains(&a));
            }
        }
        assert!(r.all_avg() > 0.6, "combined accuracy: {:.3}", r.all_avg());
        assert_eq!(r.year_avgs().len(), 2);
    }

    #[test]
    fn render_contains_all_columns() {
        let p = pipeline(2017);
        let ind = run_individual(&p);
        let comb = run_combined(std::slice::from_ref(&p));
        let text = render(&[ind], Some(&comb)).to_string();
        assert!(text.contains("Ind 2017"));
        assert!(text.contains("Comb 2017"));
        assert!(text.contains("All"));
    }
}
