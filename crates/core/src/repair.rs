//! Streaming (online) archival repair — Algorithm 2 applied to a torrent.
//!
//! The paper's motivating deployment (Section I) is a stream of archival
//! observations arriving *after* the repair was designed. The
//! [`StreamingRepairer`] wraps a designed [`RepairPlan`] with an owned RNG
//! and running counters, so a data pipeline can push labelled points
//! through it one at a time with O(1) amortized cost per feature and no
//! further reference to the research data.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use otr_data::{ColumnarDataset, LabelledPoint};
use otr_par::{splitmix_seed, try_par_map_indexed};

use crate::config::MassSplit;
use crate::error::{RepairError, Result};
use crate::plan::RepairPlan;

/// Running statistics of a repair stream.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct StreamStats {
    /// Points repaired so far.
    pub repaired: u64,
    /// Feature values that fell outside the plan's support range and were
    /// clamped to a boundary state (a stationarity warning sign —
    /// Section V-A2a).
    pub out_of_range: u64,
}

/// An online repairer: a designed plan plus an owned RNG.
#[derive(Debug, Clone)]
pub struct StreamingRepairer {
    plan: RepairPlan,
    rng: StdRng,
    stats: StreamStats,
}

impl StreamingRepairer {
    /// Wrap a designed plan with a deterministic RNG seed.
    pub fn new(plan: RepairPlan, seed: u64) -> Self {
        Self {
            plan,
            rng: StdRng::seed_from_u64(seed),
            stats: StreamStats::default(),
        }
    }

    /// The wrapped plan.
    pub fn plan(&self) -> &RepairPlan {
        &self.plan
    }

    /// Stream statistics so far.
    pub fn stats(&self) -> StreamStats {
        self.stats
    }

    /// Repair one labelled point, updating stream statistics.
    ///
    /// # Errors
    /// Same requirements as [`RepairPlan::repair_point`].
    pub fn repair(&mut self, point: &LabelledPoint) -> Result<LabelledPoint> {
        let oob = out_of_range_features(&self.plan, point);
        let repaired = self.plan.repair_point(point, &mut self.rng)?;
        self.stats.out_of_range += oob;
        self.stats.repaired += 1;
        Ok(repaired)
    }

    /// Repair a batch, returning repaired points in order.
    ///
    /// The batch is repaired in parallel (`plan.config.threads`; `0` =
    /// auto / `OTR_THREADS`): the owned RNG is advanced **once** to
    /// derive a batch seed, and every point then draws from its own
    /// SplitMix64 stream, so the output is a pure function of the
    /// repairer's seed, the batches pushed so far, and the batch
    /// contents — bit-identical for any thread count.
    ///
    /// # Errors
    /// Fails atomically on the first invalid point (by batch order):
    /// stream statistics **and the owned RNG** are untouched on failure,
    /// and an empty batch is a strict no-op, so a caller that drops a
    /// bad batch and retries stays on the same random stream.
    pub fn repair_batch(&mut self, points: &[LabelledPoint]) -> Result<Vec<LabelledPoint>> {
        if points.is_empty() {
            return Ok(Vec::new());
        }
        // Validate the whole batch (cheap label/dimension checks) before
        // consuming any randomness — atomicity of the RNG stream.
        for p in points {
            self.plan.repair_point_domain(p)?;
        }
        let batch_seed = self.rng.next_u64();
        let plan = &self.plan;
        let repaired = try_par_map_indexed(points.len(), plan.config.threads, |i| {
            let p = &points[i];
            let oob = out_of_range_features(plan, p);
            let mut rng = StdRng::seed_from_u64(splitmix_seed(batch_seed, i as u64));
            plan.repair_point(p, &mut rng).map(|r| (r, oob))
        })?;
        let mut out = Vec::with_capacity(repaired.len());
        for (r, oob) in repaired {
            self.stats.repaired += 1;
            self.stats.out_of_range += oob;
            out.push(r);
        }
        Ok(out)
    }

    /// Repair a columnar batch through the column-slice kernels of
    /// [`RepairPlan::repair_columnar_par`], updating stream statistics.
    ///
    /// Same RNG contract as [`Self::repair_batch`]: the owned RNG is
    /// advanced **once** for the batch seed and every row then draws
    /// from its own SplitMix64 stream — so on equivalent inputs the two
    /// entry points produce byte-identical repairs and leave the
    /// repairer in byte-identical state. A pipeline can mix row and
    /// columnar batches freely.
    ///
    /// # Errors
    /// Fails atomically like [`Self::repair_batch`] (labels and column
    /// shapes are already guaranteed by [`ColumnarDataset`], so only a
    /// dimension mismatch or an uncompiled plan can fail): statistics
    /// and the owned RNG are untouched on failure, and an empty batch is
    /// a strict no-op.
    pub fn repair_batch_columnar(&mut self, batch: &ColumnarDataset) -> Result<ColumnarDataset> {
        if batch.is_empty() {
            return Ok(batch.clone());
        }
        // All failure modes checked before consuming any randomness —
        // atomicity of the RNG stream.
        if batch.dim() != self.plan.dim {
            return Err(RepairError::PlanMismatch(format!(
                "dataset dimension {} vs plan dimension {}",
                batch.dim(),
                self.plan.dim
            )));
        }
        if self.plan.config.mass_split == MassSplit::Randomized
            && self.plan.feature_plans().iter().any(|fp| !fp.is_compiled())
        {
            return Err(RepairError::PlanMismatch(
                "feature plan is not compiled; call compile() after deserialization".into(),
            ));
        }
        let batch_seed = self.rng.next_u64();
        let (repaired, oob) = self.plan.repair_columnar_shard(batch, batch_seed, 0)?;
        self.stats.repaired += batch.len() as u64;
        self.stats.out_of_range += oob;
        Ok(repaired)
    }

    /// Fraction of feature values seen so far that were out of range.
    pub fn out_of_range_rate(&self) -> f64 {
        if self.stats.repaired == 0 {
            return 0.0;
        }
        self.stats.out_of_range as f64 / (self.stats.repaired as f64 * self.plan.dim as f64)
    }
}

/// Feature values of `point` outside the plan's support range (they will
/// be clamped to boundary states at repair time — the stationarity
/// warning sign of Section V-A2a). The single definition behind both the
/// point-wise and batch stream counters.
fn out_of_range_features(plan: &RepairPlan, point: &LabelledPoint) -> u64 {
    point
        .x
        .iter()
        .enumerate()
        .filter(|&(k, &v)| {
            plan.feature_plan(point.u, k)
                .is_ok_and(|fp| v < fp.support[0] || v > fp.support[fp.support.len() - 1])
        })
        .count() as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::SimulationSpec;
    use rand::rngs::StdRng;

    fn setup() -> (RepairPlan, Vec<LabelledPoint>) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let research = spec.sample_dataset(400, &mut rng).unwrap();
        let archive = spec.sample_dataset(200, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&research)
            .unwrap();
        (plan, archive.points().to_vec())
    }

    #[test]
    fn stream_matches_batch_cardinality() {
        let (plan, points) = setup();
        let mut streamer = StreamingRepairer::new(plan, 7);
        let out = streamer.repair_batch(&points).unwrap();
        assert_eq!(out.len(), points.len());
        assert_eq!(streamer.stats().repaired, points.len() as u64);
    }

    #[test]
    fn labels_pass_through() {
        let (plan, points) = setup();
        let mut streamer = StreamingRepairer::new(plan, 8);
        for p in points.iter().take(50) {
            let r = streamer.repair(p).unwrap();
            assert_eq!(r.s, p.s);
            assert_eq!(r.u, p.u);
        }
    }

    #[test]
    fn out_of_range_counter_triggers() {
        let (plan, _) = setup();
        let mut streamer = StreamingRepairer::new(plan, 9);
        let extreme = LabelledPoint {
            x: vec![1e9, -1e9],
            s: 0,
            u: 0,
        };
        streamer.repair(&extreme).unwrap();
        assert_eq!(streamer.stats().out_of_range, 2);
        assert!(streamer.out_of_range_rate() > 0.99);
    }

    #[test]
    fn deterministic_given_seed() {
        let (plan, points) = setup();
        let a = StreamingRepairer::new(plan.clone(), 42)
            .repair_batch(&points)
            .unwrap();
        let b = StreamingRepairer::new(plan, 42)
            .repair_batch(&points)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn failed_or_empty_batch_leaves_rng_untouched() {
        let (plan, points) = setup();
        let bad = LabelledPoint {
            x: vec![0.0],
            s: 0,
            u: 0,
        };
        let mut poisoned = StreamingRepairer::new(plan.clone(), 42);
        assert!(poisoned.repair_batch(&[]).unwrap().is_empty());
        assert!(poisoned.repair_batch(std::slice::from_ref(&bad)).is_err());
        assert_eq!(poisoned.stats().repaired, 0);
        // After dropping the bad batch, the stream continues exactly as
        // if the failure never happened.
        let out_after_failure = poisoned.repair_batch(&points).unwrap();
        let out_fresh = StreamingRepairer::new(plan, 42)
            .repair_batch(&points)
            .unwrap();
        assert_eq!(out_after_failure, out_fresh);
    }

    #[test]
    fn batch_identical_across_thread_counts() {
        let (plan, points) = setup();
        let mut reference: Option<Vec<LabelledPoint>> = None;
        for threads in [1usize, 2, 7] {
            let mut plan = plan.clone();
            plan.config.threads = threads;
            let out = StreamingRepairer::new(plan, 42)
                .repair_batch(&points)
                .unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn columnar_batch_matches_row_batch_and_stats() {
        let (plan, points) = setup();
        let data = otr_data::Dataset::from_points(points.clone()).unwrap();
        let cols = ColumnarDataset::from_dataset(&data);
        let mut row_streamer = StreamingRepairer::new(plan.clone(), 42);
        let mut col_streamer = StreamingRepairer::new(plan, 42);
        // Two batches through each entry point: identical repairs,
        // identical stats, identical RNG state afterwards.
        for _ in 0..2 {
            let row_out = row_streamer.repair_batch(&points).unwrap();
            let col_out = col_streamer.repair_batch_columnar(&cols).unwrap();
            assert_eq!(col_out.to_dataset().points(), &row_out[..]);
        }
        assert_eq!(row_streamer.stats(), col_streamer.stats());
        // Mixing layouts keeps the stream aligned: the next row batch
        // agrees whichever entry point served the earlier ones.
        let row_next = row_streamer.repair_batch(&points).unwrap();
        let col_next = col_streamer.repair_batch(&points).unwrap();
        assert_eq!(row_next, col_next);
    }

    #[test]
    fn columnar_batch_counts_out_of_range() {
        let (plan, _) = setup();
        let extreme = LabelledPoint {
            x: vec![1e9, -1e9],
            s: 0,
            u: 0,
        };
        let data = otr_data::Dataset::from_points(vec![extreme]).unwrap();
        let mut streamer = StreamingRepairer::new(plan, 9);
        streamer
            .repair_batch_columnar(&ColumnarDataset::from_dataset(&data))
            .unwrap();
        assert_eq!(streamer.stats().out_of_range, 2);
        assert_eq!(streamer.stats().repaired, 1);
    }

    #[test]
    fn columnar_empty_or_failed_batch_leaves_rng_untouched() {
        let (plan, points) = setup();
        let data = otr_data::Dataset::from_points(points).unwrap();
        let cols = ColumnarDataset::from_dataset(&data);
        let wrong_dim = ColumnarDataset::from_columns(vec![vec![0.0]], vec![0], vec![0]).unwrap();
        let empty = ColumnarDataset::new(2).unwrap();
        let mut poisoned = StreamingRepairer::new(plan.clone(), 42);
        assert!(poisoned.repair_batch_columnar(&empty).unwrap().is_empty());
        assert!(poisoned.repair_batch_columnar(&wrong_dim).is_err());
        assert_eq!(poisoned.stats().repaired, 0);
        let after_failure = poisoned.repair_batch_columnar(&cols).unwrap();
        let fresh = StreamingRepairer::new(plan, 42)
            .repair_batch_columnar(&cols)
            .unwrap();
        assert_eq!(after_failure, fresh);
    }

    #[test]
    fn empty_stream_rate_is_zero() {
        let (plan, _) = setup();
        let streamer = StreamingRepairer::new(plan, 1);
        assert_eq!(streamer.out_of_range_rate(), 0.0);
    }
}
