//! Streaming (online) archival repair — Algorithm 2 applied to a torrent.
//!
//! The paper's motivating deployment (Section I) is a stream of archival
//! observations arriving *after* the repair was designed. The
//! [`StreamingRepairer`] wraps a designed [`RepairPlan`] with an owned RNG
//! and running counters, so a data pipeline can push columnar batches
//! through the kernel as they arrive, with O(1) amortized cost per
//! feature and no further reference to the research data.

use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};

use otr_data::ColumnarDataset;

use crate::error::Result;
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

    /// Repair a columnar batch through the kernel of
    /// [`RepairPlan::repair_columnar_par`], updating stream statistics.
    ///
    /// The batch is repaired in parallel (`plan.config.threads`; `0` =
    /// auto / `OTR_THREADS`): the owned RNG is advanced **once** to
    /// derive a batch seed, and every row then draws from its own
    /// SplitMix64 stream, so the output is a pure function of the
    /// repairer's seed, the batches pushed so far, and the batch
    /// contents — bit-identical for any thread count.
    ///
    /// # Errors
    /// Fails atomically (labels and column shapes are already guaranteed
    /// by [`ColumnarDataset`], so only a dimension mismatch or an
    /// uncompiled plan can fail): statistics **and the owned RNG** are
    /// untouched on failure, and an empty batch is a strict no-op, so a
    /// caller that drops a bad batch and retries stays on the same
    /// random stream.
    pub fn repair_batch(&mut self, batch: &ColumnarDataset) -> Result<ColumnarDataset> {
        if batch.is_empty() {
            return Ok(batch.clone());
        }
        // The kernel refuses a bad batch before it draws, and the owned
        // RNG advances only with a repaired batch: the stream stays
        // atomic.
        let mut rng = self.rng.clone();
        let mut out = vec![vec![0.0; batch.len()]; batch.dim()];
        let seed = rng.next_u64();
        let oob = self
            .plan
            .repair_columnar_into(batch, 0..batch.len(), seed, 0, &mut out)?;
        let repaired = batch.with_feature_columns(out)?;
        self.rng = rng;
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RepairConfig;
    use crate::plan::RepairPlanner;
    use otr_data::SimulationSpec;

    fn setup() -> (RepairPlan, ColumnarDataset) {
        let spec = SimulationSpec::paper_defaults();
        let mut rng = StdRng::seed_from_u64(1);
        let research = spec.sample_dataset(400, &mut rng).unwrap();
        let archive = spec.sample_dataset(200, &mut rng).unwrap();
        let plan = RepairPlanner::new(RepairConfig::with_n_q(30))
            .design(&research)
            .unwrap();
        (plan, ColumnarDataset::from_dataset(&archive))
    }

    #[test]
    fn stream_matches_batch_cardinality() {
        let (plan, batch) = setup();
        let mut streamer = StreamingRepairer::new(plan, 7);
        let out = streamer.repair_batch(&batch).unwrap();
        assert_eq!(out.len(), batch.len());
        assert_eq!(out.s(), batch.s());
        assert_eq!(out.u(), batch.u());
        assert_eq!(streamer.stats().repaired, batch.len() as u64);
    }

    #[test]
    fn labels_pass_through() {
        let (plan, batch) = setup();
        let mut streamer = StreamingRepairer::new(plan, 8);
        for start in (0..batch.len()).step_by(50) {
            let part = batch
                .slice_rows(start..(start + 50).min(batch.len()))
                .unwrap();
            let r = streamer.repair_batch(&part).unwrap();
            assert_eq!(r.s(), part.s());
            assert_eq!(r.u(), part.u());
        }
    }

    #[test]
    fn out_of_range_counters_trigger() {
        let (plan, _) = setup();
        let extreme =
            ColumnarDataset::from_columns(vec![vec![1e9], vec![-1e9]], vec![0], vec![0]).unwrap();
        let mut streamer = StreamingRepairer::new(plan, 9);
        streamer.repair_batch(&extreme).unwrap();
        assert_eq!(streamer.stats().out_of_range, 2);
        assert_eq!(streamer.stats().repaired, 1);
        assert!(streamer.out_of_range_rate() > 0.99);
    }

    #[test]
    fn batches_draw_one_seed_each_from_the_owned_rng() {
        let (plan, batch) = setup();
        let mut streamer = StreamingRepairer::new(plan.clone(), 42);
        let mut seeds = StdRng::seed_from_u64(42);
        for _ in 0..2 {
            let out = streamer.repair_batch(&batch).unwrap();
            let want = plan.repair_columnar_par(&batch, seeds.next_u64()).unwrap();
            assert_eq!(out, want);
        }
        assert_eq!(streamer.stats().repaired, 2 * batch.len() as u64);
    }

    #[test]
    fn empty_or_failed_batch_leaves_rng_untouched() {
        let (plan, batch) = setup();
        let wrong_dim = ColumnarDataset::from_columns(vec![vec![0.0]], vec![0], vec![0]).unwrap();
        let empty = ColumnarDataset::new(2).unwrap();
        let mut poisoned = StreamingRepairer::new(plan.clone(), 42);
        assert!(poisoned.repair_batch(&empty).unwrap().is_empty());
        assert!(poisoned.repair_batch(&wrong_dim).is_err());
        assert_eq!(poisoned.stats().repaired, 0);
        // After dropping the bad batch, the stream continues exactly as
        // if the failure never happened.
        let after_failure = poisoned.repair_batch(&batch).unwrap();
        let fresh = StreamingRepairer::new(plan, 42)
            .repair_batch(&batch)
            .unwrap();
        assert_eq!(after_failure, fresh);
    }

    #[test]
    fn batch_identical_across_thread_counts() {
        let (plan, batch) = setup();
        let mut reference: Option<ColumnarDataset> = None;
        for threads in [1usize, 2, 7] {
            let mut plan = plan.clone();
            plan.config.threads = threads;
            let out = StreamingRepairer::new(plan, 42)
                .repair_batch(&batch)
                .unwrap();
            match &reference {
                None => reference = Some(out),
                Some(r) => assert_eq!(&out, r, "threads = {threads}"),
            }
        }
    }

    #[test]
    fn empty_stream_rate_is_zero() {
        let (plan, _) = setup();
        let streamer = StreamingRepairer::new(plan, 1);
        assert_eq!(streamer.out_of_range_rate(), 0.0);
    }
}
