//! The Adult-income study data (Section V-B of the paper).
//!
//! The UCI Adult file cannot be downloaded in this offline environment, so
//! the default source is [`AdultSynth`]: a calibrated synthetic generator
//! reproducing the group-conditional structure the paper's Table II
//! depends on:
//!
//! * `s = 1` for males (≈ 67% of the population, as in Adult);
//! * `u = 1` for college-level education or above (more common among
//!   males, the paper's "structural unfairness" which repair must NOT
//!   touch);
//! * `age` — truncated-normal group conditionals with a modest gender gap;
//! * `hours/week` — a 40-hour heap plus group-dependent spread, with a
//!   pronounced gender gap (males work longer hours in Adult), making it
//!   the more `s`-dependent feature exactly as in Table II.
//!
//! When a real `adult.data` CSV is available, [`load_adult_csv`] parses it
//! into the same `Dataset` shape, so every experiment can be re-run on the
//! genuine file without code changes.

use rand::Rng;
use serde::{Deserialize, Serialize};

use otr_stats::dist::{AliasTable, Bernoulli, ContinuousDistribution, TruncatedNormal};

use crate::dataset::{Dataset, LabelledPoint, SplitData};
use crate::error::{DataError, Result};

/// Calibrated synthetic Adult-like generator.
///
/// Feature layout of the produced [`Dataset`]: `x[0] = age`,
/// `x[1] = hours/week`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdultSynth {
    /// `Pr[s = 1]` (male fraction). Adult: ≈ 0.67.
    pub pr_male: f64,
    /// `Pr[u = 1 | s]` (college-educated fraction), indexed by `s`.
    pub pr_college_given_s: [f64; 2],
    /// Age mean by `[u][s]`.
    pub age_mean: [[f64; 2]; 2],
    /// Age SD by `[u][s]`.
    pub age_sd: [[f64; 2]; 2],
    /// Hours mean (the non-heap component) by `[u][s]`.
    pub hours_mean: [[f64; 2]; 2],
    /// Hours SD (the non-heap component) by `[u][s]`.
    pub hours_sd: [[f64; 2]; 2],
    /// Probability of the 40-hour heap component, indexed by `s`. In the
    /// real file the exactly-40 atom is notably heavier for women (~0.45)
    /// than men (~0.28) — this asymmetry is what defeats the point-wise
    /// geometric repair on hours (paper Table II, observation iii).
    pub pr_forty_hour_heap: [f64; 2],
    /// Fractional shrink of group-mean gaps applied to archival data to
    /// emulate the non-stationarity the paper observes between its
    /// research and archive splits (0 = fully stationary).
    pub archive_drift: f64,
    /// Round features to whole numbers, as in the real Adult file (age and
    /// hours/week are integers there). Heavy ties — especially the 40-hour
    /// atom — are what break the point-wise geometric repair on hours in
    /// the paper's Table II.
    pub integer_features: bool,
}

impl Default for AdultSynth {
    fn default() -> Self {
        Self {
            pr_male: 0.67,
            pr_college_given_s: [0.22, 0.28],
            // [u][s]: rows u=0 (no college), u=1 (college+); cols s=0
            // (female), s=1 (male).
            age_mean: [[36.0, 37.5], [38.5, 41.5]],
            age_sd: [[14.0, 13.5], [11.0, 11.5]],
            hours_mean: [[35.0, 43.0], [40.0, 46.5]],
            hours_sd: [[10.0, 11.0], [9.0, 10.0]],
            pr_forty_hour_heap: [0.45, 0.28],
            archive_drift: 0.3,
            integer_features: true,
        }
    }
}

/// Age truncation bounds matching the Adult file.
pub const AGE_RANGE: (f64, f64) = (17.0, 90.0);
/// Hours-per-week truncation bounds matching the Adult file.
pub const HOURS_RANGE: (f64, f64) = (1.0, 99.0);

impl AdultSynth {
    /// Validate parameter domains.
    ///
    /// # Errors
    /// Rejects probabilities outside `(0,1)`, non-positive SDs, drift
    /// outside `[0,1)`.
    pub fn validate(&self) -> Result<()> {
        let probs = [
            self.pr_male,
            self.pr_college_given_s[0],
            self.pr_college_given_s[1],
            self.pr_forty_hour_heap[0],
            self.pr_forty_hour_heap[1],
        ];
        if probs.iter().any(|p| !(0.0 < *p && *p < 1.0)) {
            return Err(DataError::InvalidParameter {
                name: "probabilities",
                reason: "all probabilities must be in (0,1)".into(),
            });
        }
        for u in 0..2 {
            for s in 0..2 {
                if !(self.age_sd[u][s] > 0.0) || !(self.hours_sd[u][s] > 0.0) {
                    return Err(DataError::InvalidParameter {
                        name: "sd",
                        reason: format!("sd[u={u}][s={s}] must be positive"),
                    });
                }
            }
        }
        if !(0.0..1.0).contains(&self.archive_drift) {
            return Err(DataError::InvalidParameter {
                name: "archive_drift",
                reason: format!("must be in [0,1), got {}", self.archive_drift),
            });
        }
        Ok(())
    }

    /// Group-conditional means after applying a drift `gamma` that shrinks
    /// each group mean toward the `u`-conditional pooled mean (the archive
    /// population is "less gender-divided" than the research snapshot).
    fn drifted_mean(&self, base: &[[f64; 2]; 2], u: usize, s: usize, gamma: f64) -> f64 {
        let pooled = 0.5 * (base[u][0] + base[u][1]);
        base[u][s] * (1.0 - gamma) + pooled * gamma
    }

    fn sample_point<R: Rng + ?Sized>(&self, rng: &mut R, gamma: f64) -> Result<LabelledPoint> {
        let s = u8::from(Bernoulli::new(self.pr_male)?.sample(rng));
        let u = u8::from(Bernoulli::new(self.pr_college_given_s[s as usize])?.sample(rng));
        let (ui, si) = (u as usize, s as usize);

        let age_mean = self.drifted_mean(&self.age_mean, ui, si, gamma);
        let age = TruncatedNormal::new(age_mean, self.age_sd[ui][si], AGE_RANGE.0, AGE_RANGE.1)?
            .sample(rng);

        let hours_mean = self.drifted_mean(&self.hours_mean, ui, si, gamma);
        // Mixture: a 40-hour heap (tight component) and the group-specific
        // spread component.
        let heap_p = self.pr_forty_hour_heap[si];
        let heap = AliasTable::new([&[heap_p, 1.0 - heap_p][..]]).map_err(|(_, e)| e)?;
        let hours = if heap.sample(0, rng) == 0 {
            // The 40-hour heap: a tight bump that integer rounding turns
            // into heavy ties at 39/40/41. We deliberately do NOT emit the
            // real file's exact single-value atom: a pure atom makes the
            // KDE-plug-in E estimator non-comparable across repair methods.
            TruncatedNormal::new(40.0, 2.0, HOURS_RANGE.0, HOURS_RANGE.1)?.sample(rng)
        } else {
            TruncatedNormal::new(
                hours_mean,
                self.hours_sd[ui][si],
                HOURS_RANGE.0,
                HOURS_RANGE.1,
            )?
            .sample(rng)
        };

        let (age, hours) = if self.integer_features {
            (age.round(), hours.round())
        } else {
            (age, hours)
        };
        Ok(LabelledPoint {
            x: vec![age, hours],
            s,
            u,
        })
    }

    /// Generate a stationary sample of `n` observations (no drift).
    ///
    /// # Errors
    /// Requires `n ≥ 1` and valid parameters.
    pub fn sample_dataset<R: Rng + ?Sized>(&self, n: usize, rng: &mut R) -> Result<Dataset> {
        self.validate()?;
        if n == 0 {
            return Err(DataError::InvalidParameter {
                name: "n",
                reason: "must be at least 1".into(),
            });
        }
        let mut points = Vec::with_capacity(n);
        for _ in 0..n {
            points.push(self.sample_point(rng, 0.0)?);
        }
        Dataset::from_points(points)
    }

    /// Generate the paper's Table II split: `n_research` stationary
    /// research observations plus `n_archive` archival observations whose
    /// group gaps are shrunk by [`AdultSynth::archive_drift`] — the mild
    /// non-stationarity Section V-B attributes the research/archive `E`
    /// difference to.
    ///
    /// # Errors
    /// Requires both sizes ≥ 1 and valid parameters.
    pub fn generate<R: Rng + ?Sized>(
        &self,
        n_research: usize,
        n_archive: usize,
        rng: &mut R,
    ) -> Result<SplitData> {
        self.validate()?;
        if n_research == 0 || n_archive == 0 {
            return Err(DataError::InvalidParameter {
                name: "n_research/n_archive",
                reason: "both must be at least 1".into(),
            });
        }
        let mut research = Vec::with_capacity(n_research);
        for _ in 0..n_research {
            research.push(self.sample_point(rng, 0.0)?);
        }
        let mut archive = Vec::with_capacity(n_archive);
        for _ in 0..n_archive {
            archive.push(self.sample_point(rng, self.archive_drift)?);
        }
        Ok(SplitData {
            research: Dataset::from_points(research)?,
            archive: Dataset::from_points(archive)?,
        })
    }
}

/// Column indices in the raw UCI `adult.data` file.
mod col {
    pub const AGE: usize = 0;
    pub const EDUCATION_NUM: usize = 4;
    pub const SEX: usize = 9;
    pub const HOURS: usize = 12;
    pub const MIN_COLUMNS: usize = 15;
}

/// `education-num` threshold for "college level or above" (10 =
/// some-college in the UCI coding).
pub const COLLEGE_EDUCATION_NUM: f64 = 10.0;

/// Load the real UCI `adult.data` CSV into the `(age, hours)`-feature
/// `Dataset` used by the Table II experiment: `s = 1` ⇔ male,
/// `u = 1` ⇔ `education-num ≥ 10`.
///
/// Rows with missing fields (`?`) in the used columns are skipped, as the
/// paper's preprocessing drops NA rows.
///
/// # Errors
/// Propagates I/O and parse failures; requires at least one usable row.
pub fn load_adult_csv<R: std::io::BufRead>(reader: R) -> Result<Dataset> {
    let rows = crate::csv::read_rows(reader)?;
    let mut points = Vec::new();
    for (idx, row) in rows.iter().enumerate() {
        if row.len() < col::MIN_COLUMNS {
            continue; // trailing junk line in the UCI file
        }
        let get = |i: usize| row[i].trim();
        if [col::AGE, col::EDUCATION_NUM, col::SEX, col::HOURS]
            .iter()
            .any(|&i| get(i) == "?")
        {
            continue;
        }
        let age: f64 = get(col::AGE).parse().map_err(|_| DataError::Csv {
            line: idx + 1,
            reason: format!("bad age {:?}", get(col::AGE)),
        })?;
        let edu: f64 = get(col::EDUCATION_NUM)
            .parse()
            .map_err(|_| DataError::Csv {
                line: idx + 1,
                reason: format!("bad education-num {:?}", get(col::EDUCATION_NUM)),
            })?;
        let hours: f64 = get(col::HOURS).parse().map_err(|_| DataError::Csv {
            line: idx + 1,
            reason: format!("bad hours {:?}", get(col::HOURS)),
        })?;
        let s = u8::from(get(col::SEX).eq_ignore_ascii_case("male"));
        let u = u8::from(edu >= COLLEGE_EDUCATION_NUM);
        points.push(LabelledPoint {
            x: vec![age, hours],
            s,
            u,
        });
    }
    if points.is_empty() {
        return Err(DataError::Shape("no usable rows in adult CSV".into()));
    }
    Dataset::from_points(points)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::GroupKey;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn defaults_validate() {
        AdultSynth::default().validate().unwrap();
    }

    #[test]
    fn invalid_parameters_rejected() {
        let mut g = AdultSynth::default();
        g.pr_male = 1.0;
        assert!(g.validate().is_err());
        let mut g = AdultSynth::default();
        g.age_sd[0][0] = 0.0;
        assert!(g.validate().is_err());
        let mut g = AdultSynth::default();
        g.archive_drift = 1.0;
        assert!(g.validate().is_err());
    }

    #[test]
    fn feature_ranges_respected() {
        let g = AdultSynth::default();
        let mut rng = StdRng::seed_from_u64(1);
        let d = g.sample_dataset(5_000, &mut rng).unwrap();
        for p in d.points() {
            assert!(
                (AGE_RANGE.0..=AGE_RANGE.1).contains(&p.x[0]),
                "age {}",
                p.x[0]
            );
            assert!(
                (HOURS_RANGE.0..=HOURS_RANGE.1).contains(&p.x[1]),
                "hours {}",
                p.x[1]
            );
        }
    }

    #[test]
    fn gender_hours_gap_present() {
        let g = AdultSynth::default();
        let mut rng = StdRng::seed_from_u64(2);
        let d = g.sample_dataset(30_000, &mut rng).unwrap();
        for u in 0..2u8 {
            let f = d.feature_column(GroupKey { u, s: 0 }, 1).unwrap();
            let m = d.feature_column(GroupKey { u, s: 1 }, 1).unwrap();
            let mf: f64 = f.iter().sum::<f64>() / f.len() as f64;
            let mm: f64 = m.iter().sum::<f64>() / m.len() as f64;
            assert!(
                mm - mf > 2.0,
                "u={u}: male hours {mm} vs female {mf} — gap too small"
            );
        }
    }

    #[test]
    fn male_fraction_matches() {
        let g = AdultSynth::default();
        let mut rng = StdRng::seed_from_u64(3);
        let d = g.sample_dataset(30_000, &mut rng).unwrap();
        let male = d.points().iter().filter(|p| p.s == 1).count() as f64 / d.len() as f64;
        assert!((male - 0.67).abs() < 0.02, "male fraction {male}");
    }

    #[test]
    fn archive_drift_shrinks_gap() {
        let g = AdultSynth::default();
        let mut rng = StdRng::seed_from_u64(4);
        let split = g.generate(20_000, 20_000, &mut rng).unwrap();
        let gap = |d: &Dataset| {
            let f = d.feature_column(GroupKey { u: 0, s: 0 }, 1).unwrap();
            let m = d.feature_column(GroupKey { u: 0, s: 1 }, 1).unwrap();
            m.iter().sum::<f64>() / m.len() as f64 - f.iter().sum::<f64>() / f.len() as f64
        };
        let research_gap = gap(&split.research);
        let archive_gap = gap(&split.archive);
        assert!(
            archive_gap < research_gap * 0.9,
            "drift should shrink the gap: research {research_gap}, archive {archive_gap}"
        );
    }

    #[test]
    fn load_adult_csv_happy_path() {
        let content = "\
39, State-gov, 77516, Bachelors, 13, Never-married, Adm-clerical, Not-in-family, White, Male, 2174, 0, 40, United-States, <=50K
50, Self-emp-not-inc, 83311, Bachelors, 13, Married-civ-spouse, Exec-managerial, Husband, White, Male, 0, 0, 13, United-States, <=50K
38, Private, 215646, HS-grad, 9, Divorced, Handlers-cleaners, Not-in-family, White, Female, 0, 0, 40, United-States, <=50K
";
        let d = load_adult_csv(content.as_bytes()).unwrap();
        assert_eq!(d.len(), 3);
        assert_eq!(d.points()[0].x, vec![39.0, 40.0]);
        assert_eq!(d.points()[0].s, 1);
        assert_eq!(d.points()[0].u, 1); // education-num 13 >= 10
        assert_eq!(d.points()[2].s, 0);
        assert_eq!(d.points()[2].u, 0); // HS-grad, education-num 9
    }

    #[test]
    fn load_adult_csv_skips_missing_and_short_rows() {
        let content = "\
39, ?, 77516, Bachelors, 13, Never-married, ?, Not-in-family, White, Male, 0, 0, 40, United-States, <=50K
?, Private, 1, HS-grad, 9, Divorced, X, N, White, Female, 0, 0, 40, United-States, <=50K
junk
25, Private, 226802, 11th, 7, Never-married, Machine-op-inspct, Own-child, Black, Male, 0, 0, 40, United-States, <=50K
";
        let d = load_adult_csv(content.as_bytes()).unwrap();
        // Row 1 keeps (its '?' fields are not in the used columns), row 2
        // drops (age missing), row 'junk' drops (too short), row 4 keeps.
        assert_eq!(d.len(), 2);
    }

    #[test]
    fn load_adult_csv_rejects_garbage_numbers() {
        let content = "x, A, 1, B, 13, C, D, E, F, Male, 0, 0, 40, G, H";
        assert!(load_adult_csv(content.as_bytes()).is_err());
    }

    #[test]
    fn load_adult_csv_rejects_empty() {
        assert!(load_adult_csv("".as_bytes()).is_err());
    }
}
