//! Fault-injection plans for the durability pipeline.
//!
//! A [`FaultPlan`] describes damage to inflict on the persisted bytes
//! (and, via `kill_after_batches`, on the background writer) before a
//! recovery attempt — the same failure classes a real crash or sick disk
//! produces: torn tails, truncated files, flipped bits, and a writer that
//! dies between batches. The soak harness's fault matrix and the
//! durability proptests drive recovery through every arm of a plan and assert the
//! typed-error / last-consistent-point contract.

/// Declarative damage to apply to snapshot/journal bytes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultPlan {
    /// Keep only the first N bytes of the snapshot (crash mid-write of a
    /// non-atomic snapshot copy). Recovery must fail closed.
    pub snapshot_truncate: Option<usize>,
    /// XOR the snapshot byte at this offset with 0xFF (bit rot). The
    /// offset is clamped to the last byte. Recovery must fail closed.
    pub snapshot_corrupt_at: Option<usize>,
    /// Drop the last N bytes of the journal (torn tail append). Recovery
    /// replays to the last intact record.
    pub journal_torn_tail: Option<usize>,
    /// XOR the journal byte at this offset with 0xFF. Replay stops at the
    /// damaged record (indistinguishable from a torn tail by design).
    pub journal_corrupt_at: Option<usize>,
    /// Kill the background writer after it has persisted N batches: the
    /// journal simply ends at a batch boundary, the strongest "crash
    /// between batches" point.
    pub kill_after_batches: Option<u64>,
}

impl FaultPlan {
    /// The no-fault plan.
    pub fn none() -> Self {
        FaultPlan::default()
    }

    /// Applies the snapshot arms of the plan to `bytes`.
    pub fn damage_snapshot(&self, bytes: &mut Vec<u8>) {
        if let Some(keep) = self.snapshot_truncate {
            bytes.truncate(keep);
        }
        if let Some(at) = self.snapshot_corrupt_at {
            flip(bytes, at);
        }
    }

    /// Applies the journal arms of the plan to `bytes`.
    pub fn damage_journal(&self, bytes: &mut Vec<u8>) {
        if let Some(drop_tail) = self.journal_torn_tail {
            let keep = bytes.len().saturating_sub(drop_tail);
            bytes.truncate(keep);
        }
        if let Some(at) = self.journal_corrupt_at {
            flip(bytes, at);
        }
    }
}

fn flip(bytes: &mut [u8], at: usize) {
    if let Some(last) = bytes.len().checked_sub(1) {
        bytes[at.min(last)] ^= 0xFF;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn damage_is_deterministic_and_clamped() {
        let mut a = vec![1u8, 2, 3, 4, 5];
        let plan = FaultPlan {
            snapshot_truncate: Some(3),
            snapshot_corrupt_at: Some(99),
            ..FaultPlan::none()
        };
        plan.damage_snapshot(&mut a);
        assert_eq!(a, vec![1, 2, 3 ^ 0xFF]);

        let mut j = vec![9u8, 8, 7];
        let plan = FaultPlan {
            journal_torn_tail: Some(10),
            ..FaultPlan::none()
        };
        plan.damage_journal(&mut j);
        assert!(j.is_empty());
        // Flipping an empty buffer is a no-op, not a panic.
        let plan = FaultPlan {
            journal_corrupt_at: Some(0),
            ..FaultPlan::none()
        };
        plan.damage_journal(&mut j);
        assert!(j.is_empty());
    }
}
