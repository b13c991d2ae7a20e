//! The CSP scheduler — Algorithm 2 of the paper.
//!
//! `SCHEDULE(L_q, L_f, L_SN, K)` scans the forward-task queue in order and
//! returns the first task whose causal dependencies are all resolved: a
//! forward of subnet `y` at stage `K` is admissible iff **no unfinished
//! subnet `w < y` activates any of the layers `y` uses at stage `K`**.
//! Backward tasks always take priority (they resolve dependencies,
//! enlarging the scheduling search space) and need no check of their own:
//! `y`'s backward at `K` runs after `y`'s forward at `K`, which the check
//! already ordered after every conflicting earlier write.
//!
//! # Soundness refinement over the paper's Algorithm 2
//!
//! With layer mirroring, a layer shared by subnets `w < y` may live at
//! stage `s_w` in `w`'s partition and stage `K > s_w` in `y`'s. Backward
//! passes run from the last stage towards stage 0, so `w`'s *write* at
//! `s_w` completes **after** `w`'s backward at `K` — checking only stage
//! `K`'s finished list could admit `y`'s read before `w`'s write. We
//! therefore check the finished list of `min(K, s_w)` for each shared
//! layer; with a static partition (`s_w == K` always) this reduces exactly
//! to the paper's local check.

use crate::partition::Partition;
use crate::task::{FinishedSet, StageId};
use naspipe_supernet::subnet::{Subnet, SubnetId};
use std::collections::BTreeMap;
use std::fmt;

/// A sequence ID was registered in a [`SubnetTable`] twice. Admitting two
/// in-flight subnets under one ID would let the scheduler check the wrong
/// architecture's layers, so registration refuses rather than overwrites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DuplicateSubnet(pub SubnetId);

impl fmt::Display for DuplicateSubnet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "subnet {} is already registered in-flight", self.0)
    }
}

impl std::error::Error for DuplicateSubnet {}

/// The runtime's view of in-flight subnets (`L_SN`): each entry pairs the
/// subnet's layer choices with the partition it executes under.
#[derive(Debug, Clone, Default)]
pub struct SubnetTable {
    entries: BTreeMap<u64, SubnetEntry>,
}

/// One in-flight subnet.
#[derive(Debug, Clone)]
pub struct SubnetEntry {
    /// The architecture.
    pub subnet: Subnet,
    /// The stage partition this subnet executes with.
    pub partition: Partition,
}

impl SubnetTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// Registers a retrieved subnet and its partition.
    ///
    /// # Errors
    ///
    /// Returns [`DuplicateSubnet`] (and leaves the existing entry
    /// untouched) if the sequence ID is already registered.
    pub fn insert(&mut self, subnet: Subnet, partition: Partition) -> Result<(), DuplicateSubnet> {
        let id = subnet.seq_id();
        if self.entries.contains_key(&id.0) {
            return Err(DuplicateSubnet(id));
        }
        self.entries.insert(id.0, SubnetEntry { subnet, partition });
        Ok(())
    }

    /// Looks up an in-flight subnet.
    pub fn get(&self, id: SubnetId) -> Option<&SubnetEntry> {
        self.entries.get(&id.0)
    }

    /// Tracked subnets with sequence ID strictly below `bound`, ascending.
    pub fn entries_below(&self, bound: SubnetId) -> impl Iterator<Item = (SubnetId, &SubnetEntry)> {
        self.entries
            .range(..bound.0)
            .map(|(&id, e)| (SubnetId(id), e))
    }

    /// Drops subnets below `bound` (they finished everywhere and can no
    /// longer participate in dependency checks).
    pub fn retire_below(&mut self, bound: SubnetId) {
        self.entries = self.entries.split_off(&bound.0);
    }

    /// Number of tracked subnets.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the table is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

/// Statistics of scheduler invocations (for the overhead bench; the paper
/// reports <0.01 s per call against second-scale subnet executions).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SchedulerStats {
    /// Number of `schedule()` calls. The DES engine skips the call for a
    /// stage found blocked whose inputs have not changed since, so this
    /// counts evaluations, not dispatch attempts.
    pub calls: u64,
    /// Total queue entries scanned.
    pub scanned: u64,
    /// Calls that found an admissible task.
    pub hits: u64,
}

/// The CSP scheduling policy.
#[derive(Debug, Clone, Default)]
pub struct CspScheduler {
    stats: SchedulerStats,
    // Scan order of the last call, kept so `schedule` does not allocate.
    order: Vec<(usize, SubnetId)>,
}

impl CspScheduler {
    /// Creates a scheduler.
    pub fn new() -> Self {
        Self::default()
    }

    /// Invocation statistics so far.
    pub fn stats(&self) -> SchedulerStats {
        self.stats
    }

    /// Algorithm 2: returns `(qidx, qval)` of the admissible forward task
    /// with the **lowest sequence ID** in `queue`, or `None` if every
    /// queued task is causally blocked.
    ///
    /// Lower IDs get priority (§3.1): earlier subnets head the causal
    /// dependency chains, so finishing them soonest unblocks the most
    /// downstream work.
    ///
    /// `queue` holds subnet IDs in arrival order; `finished[k]` is stage
    /// `k`'s `L_f`; `table` is `L_SN`; `stage` is `K`.
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub fn schedule(
        &mut self,
        queue: &[SubnetId],
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> Option<(usize, SubnetId)> {
        self.stats.calls += 1;
        self.order.clear();
        self.order.extend(queue.iter().copied().enumerate());
        // Keyed by `(id, qidx)`, the unstable sort orders exactly as a
        // stable sort by id would, without its scratch allocation.
        self.order.sort_unstable_by_key(|&(qidx, id)| (id, qidx));
        for &(qidx, qval) in &self.order {
            self.stats.scanned += 1;
            if Self::admissible(qval, finished, table, stage) {
                self.stats.hits += 1;
                return Some((qidx, qval));
            }
        }
        None
    }

    /// The dependency-preservation check for one candidate (Algorithm 2
    /// lines 3–12, with the cross-stage soundness refinement described in
    /// the module docs): admissible iff every earlier subnet sharing a
    /// layer of `candidate`'s stage-`stage` slice has already written that
    /// layer.
    ///
    /// # Panics
    ///
    /// Panics if `stage` indexes outside `finished`.
    pub fn admissible(
        candidate: SubnetId,
        finished: &[FinishedSet],
        table: &SubnetTable,
        stage: StageId,
    ) -> bool {
        let Some(entry) = table.get(candidate) else {
            // Unknown subnets cannot be checked; treat as blocked.
            return false;
        };
        let k = stage.0 as usize;
        assert!(k < finished.len(), "stage {stage} out of range");
        let range = entry.partition.stage_range(stage);
        for (wid, earlier) in table.entries_below(candidate) {
            if finished[k].contains(wid) {
                // Finished at K implies finished at every stage >= K and,
                // because backward flows towards stage 0, we still must
                // check shared layers owned by earlier stages below.
                let all_earlier_done = (0..k).all(|j| finished[j].contains(wid));
                if all_earlier_done {
                    continue;
                }
            }
            for b in range.clone() {
                if b >= earlier.subnet.num_layers()
                    || entry.subnet.choices()[b] != earlier.subnet.choices()[b]
                {
                    continue;
                }
                // Shared layer: `wid`'s write happens in its backward at
                // the stage owning block `b` in *its* partition.
                let owner = earlier
                    .partition
                    .stage_of_block(b)
                    .map(|s| s.0 as usize)
                    .unwrap_or(k);
                let need = owner.min(k);
                if !finished[need].contains(wid) {
                    return false;
                }
            }
        }
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::Partition;

    /// Builds a table of subnets over 4 blocks split into 2 stages of 2
    /// blocks each.
    fn table(choice_rows: &[&[u32]]) -> SubnetTable {
        let mut t = SubnetTable::new();
        for (i, row) in choice_rows.iter().enumerate() {
            t.insert(
                Subnet::new(SubnetId(i as u64), row.to_vec()),
                Partition::from_boundaries(vec![0, 2, 4]),
            )
            .expect("fresh sequence IDs");
        }
        t
    }

    fn fresh(stages: usize) -> Vec<FinishedSet> {
        vec![FinishedSet::new(); stages]
    }

    #[test]
    fn empty_queue_schedules_nothing() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0]]);
        assert_eq!(s.schedule(&[], &fresh(2), &t, StageId(0)), None);
        assert_eq!(s.stats().calls, 1);
        assert_eq!(s.stats().hits, 0);
    }

    #[test]
    fn lowest_id_is_always_admissible() {
        let mut s = CspScheduler::new();
        // SN0 and SN1 fully conflict.
        let t = table(&[&[0, 0, 0, 0], &[0, 0, 0, 0]]);
        let q = vec![SubnetId(0), SubnetId(1)];
        let got = s.schedule(&q, &fresh(2), &t, StageId(0));
        assert_eq!(got, Some((0, SubnetId(0))));
    }

    #[test]
    fn conflicting_later_subnet_is_blocked() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]); // share block 0
        let q = vec![SubnetId(1)];
        // SN0 unfinished and shares stage-0 block 0 -> SN1 blocked at stage 0.
        assert_eq!(s.schedule(&q, &fresh(2), &t, StageId(0)), None);
        // At stage 1 (blocks 2..4) there is no sharing -> admissible.
        assert_eq!(
            s.schedule(&q, &fresh(2), &t, StageId(1)),
            Some((0, SubnetId(1)))
        );
    }

    #[test]
    fn finishing_the_blocker_unblocks() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 5, 5, 5]]);
        let mut f = fresh(2);
        f[0].insert(SubnetId(0));
        assert_eq!(
            s.schedule(&[SubnetId(1)], &f, &t, StageId(0)),
            Some((0, SubnetId(1)))
        );
    }

    #[test]
    fn scheduler_skips_blocked_and_takes_independent() {
        let mut s = CspScheduler::new();
        // SN1 conflicts with SN0 at stage 0; SN2 is disjoint from both.
        let t = table(&[&[0, 0, 0, 0], &[0, 1, 1, 1], &[2, 2, 2, 2]]);
        let q = vec![SubnetId(1), SubnetId(2)];
        // SN0 is unfinished and not in the queue (already running).
        let got = s.schedule(&q, &fresh(2), &t, StageId(0));
        assert_eq!(
            got,
            Some((1, SubnetId(2))),
            "should leapfrog the blocked SN1"
        );
    }

    #[test]
    fn dependency_is_stage_local() {
        // SN1 shares only block 3 with SN0: blocked at stage 1, free at 0.
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[9, 9, 9, 0]]);
        let q = vec![SubnetId(1)];
        assert!(s.schedule(&q, &fresh(2), &t, StageId(0)).is_some());
        assert!(s.schedule(&q, &fresh(2), &t, StageId(1)).is_none());
    }

    #[test]
    fn mirrored_partitions_wait_for_owner_stage() {
        // SN0's partition places block 2 at stage 0; SN1's places it at
        // stage 1. SN1's stage-1 read of the shared block must wait for
        // SN0's *stage-0* backward even once SN0's stage-1 backward is
        // done (the write happens at stage 0 in SN0's partition).
        let mut t = SubnetTable::new();
        t.insert(
            Subnet::new(SubnetId(0), vec![0, 0, 7, 0]),
            Partition::from_boundaries(vec![0, 3, 4]), // block 2 -> stage 0
        )
        .unwrap();
        t.insert(
            Subnet::new(SubnetId(1), vec![1, 1, 7, 1]),
            Partition::from_boundaries(vec![0, 2, 4]), // block 2 -> stage 1
        )
        .unwrap();
        let mut f = fresh(2);
        f[1].insert(SubnetId(0)); // SN0 backward done at stage 1 only
        assert!(
            !CspScheduler::admissible(SubnetId(1), &f, &t, StageId(1)),
            "read must wait for the owner stage's write"
        );
        f[0].insert(SubnetId(0));
        assert!(CspScheduler::admissible(SubnetId(1), &f, &t, StageId(1)));
    }

    #[test]
    fn admissible_unknown_subnet_is_blocked() {
        let t = table(&[]);
        assert!(!CspScheduler::admissible(
            SubnetId(7),
            &fresh(2),
            &t,
            StageId(0)
        ));
    }

    #[test]
    fn retire_below_drops_entries() {
        let mut t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1], &[2, 2, 2, 2]]);
        assert_eq!(t.len(), 3);
        t.retire_below(SubnetId(2));
        assert_eq!(t.len(), 1);
        assert!(t.get(SubnetId(0)).is_none());
        assert!(t.get(SubnetId(2)).is_some());
        assert!(!t.is_empty());
    }

    #[test]
    fn entries_below_is_ascending_and_bounded() {
        let t = table(&[&[0, 0, 0, 0], &[1, 1, 1, 1], &[2, 2, 2, 2]]);
        let ids: Vec<u64> = t.entries_below(SubnetId(2)).map(|(id, _)| id.0).collect();
        assert_eq!(ids, vec![0, 1]);
    }

    #[test]
    fn double_insert_is_refused_and_keeps_the_original() {
        let mut t = table(&[&[0, 0, 0, 0]]);
        let err = t
            .insert(
                Subnet::new(SubnetId(0), vec![1, 1, 1, 1]),
                Partition::from_boundaries(vec![0, 2, 4]),
            )
            .unwrap_err();
        assert_eq!(err, DuplicateSubnet(SubnetId(0)));
        assert!(err.to_string().contains("SN0"));
        // The original registration survives the refused overwrite.
        assert_eq!(t.len(), 1);
        assert_eq!(t.get(SubnetId(0)).unwrap().subnet.choices(), &[0, 0, 0, 0]);
    }

    #[test]
    fn schedule_refuses_mirrored_forward_until_owner_stage_write() {
        // Satellite of mirrored_partitions_wait_for_owner_stage, at the
        // schedule() level: SN0 (w) owns shared block 2 at stage
        // s_w = 0 < K = 1; SN1 (y) reads it at stage K = 1. SN1's forward
        // at K must be refused until SN0's backward completes at s_w,
        // even though SN0's stage-K backward finished long before.
        let mut t = SubnetTable::new();
        t.insert(
            Subnet::new(SubnetId(0), vec![0, 0, 7, 0]),
            Partition::from_boundaries(vec![0, 3, 4]), // block 2 -> stage 0
        )
        .unwrap();
        t.insert(
            Subnet::new(SubnetId(1), vec![1, 1, 7, 1]),
            Partition::from_boundaries(vec![0, 2, 4]), // block 2 -> stage 1
        )
        .unwrap();
        let mut s = CspScheduler::new();
        let q = vec![SubnetId(1)];
        let mut f = fresh(2);
        f[1].insert(SubnetId(0)); // w's backward done at K, not yet at s_w
        assert_eq!(
            s.schedule(&q, &f, &t, StageId(1)),
            None,
            "y's forward must wait for w's backward at s_w, not just at K"
        );
        f[0].insert(SubnetId(0)); // w's backward reaches s_w: layer written
        assert_eq!(s.schedule(&q, &f, &t, StageId(1)), Some((0, SubnetId(1))));
    }

    #[test]
    fn stats_accumulate() {
        let mut s = CspScheduler::new();
        let t = table(&[&[0, 0, 0, 0], &[0, 0, 0, 0]]);
        let q = vec![SubnetId(1)];
        s.schedule(&q, &fresh(2), &t, StageId(0));
        s.schedule(&q, &fresh(2), &t, StageId(0));
        let st = s.stats();
        assert_eq!(st.calls, 2);
        assert_eq!(st.scanned, 2);
        assert_eq!(st.hits, 0);
    }
}
