//! Membership epochs: which locals contribute to which windows.
//!
//! A [`MembershipPlan`] describes when nodes
//! join or leave a run; the [`EpochLedger`] compiles it into a dense table
//! of epochs, each covering a contiguous window range under one fixed
//! member set. Epoch switches align to window boundaries: a change staged
//! at window `w` means the joining nodes produce windows `≥ w` and the
//! leaving nodes produce windows `< w`. Because the ledger is a pure
//! function of the plan — not of message arrival order — every replica of
//! the computation (the reactor runtime, the deterministic explorer in
//! `dema-model`) agrees on the member set of every window, which
//! is what makes churn runs bit-reproducible across thread counts and
//! transports (DESIGN.md §14).

use crate::config::MembershipPlan;
use crate::ClusterError;

/// One membership epoch: a contiguous window range under a fixed member set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochInfo {
    /// Epoch number (dense from 0).
    pub epoch: u64,
    /// First window computed under this epoch.
    pub first_window: u64,
    /// Member node ids, ascending.
    pub members: Vec<u32>,
    /// Nodes that joined at this epoch's boundary (empty for epoch 0).
    pub joined: Vec<u32>,
    /// Nodes that left at this epoch's boundary (empty for epoch 0).
    pub left: Vec<u32>,
}

/// The compiled epoch table of one run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EpochLedger {
    epochs: Vec<EpochInfo>,
}

impl EpochLedger {
    /// The single-epoch ledger of a fixed-membership run: nodes
    /// `0..n_locals`, no boundaries.
    pub fn trivial(n_locals: usize) -> EpochLedger {
        EpochLedger {
            epochs: vec![EpochInfo {
                epoch: 0,
                first_window: 0,
                members: (0..dema_core::numeric::len_to_u32(n_locals)).collect(),
                joined: Vec::new(),
                left: Vec::new(),
            }],
        }
    }

    /// Compile a plan against a run of `n_locals` distinct node ids.
    ///
    /// Epoch 0's members are the ids `0..n_locals` minus every node that
    /// joins later. Boundaries must be strictly increasing and non-zero;
    /// a node may join at most once, leave at most once, must be a member
    /// when it leaves, must not already be a member when it joins, and a
    /// joiner may leave only at a later boundary.
    ///
    /// # Errors
    /// [`ClusterError::Protocol`] describing the rejected change.
    pub fn from_plan(n_locals: usize, plan: &MembershipPlan) -> Result<EpochLedger, ClusterError> {
        let all: Vec<u32> = (0..dema_core::numeric::len_to_u32(n_locals)).collect();
        let joiners: std::collections::HashSet<u32> = plan
            .changes
            .iter()
            .flat_map(|c| c.joins.iter().copied())
            .collect();
        let mut members: Vec<u32> = all
            .iter()
            .copied()
            .filter(|n| !joiners.contains(n))
            .collect();
        if members.is_empty() {
            return Err(ClusterError::Protocol(
                "membership: epoch 0 has no members".into(),
            ));
        }
        let mut epochs = vec![EpochInfo {
            epoch: 0,
            first_window: 0,
            members: members.clone(),
            joined: Vec::new(),
            left: Vec::new(),
        }];
        let mut last_boundary = 0u64;
        let mut ever_joined: std::collections::HashSet<u32> = std::collections::HashSet::new();
        let mut ever_left: std::collections::HashSet<u32> = std::collections::HashSet::new();
        for change in &plan.changes {
            if change.window == 0 || change.window <= last_boundary {
                return Err(ClusterError::Protocol(format!(
                    "membership: boundary {} must exceed the previous boundary {last_boundary}",
                    change.window
                )));
            }
            last_boundary = change.window;
            if change.joins.is_empty() && change.leaves.is_empty() {
                return Err(ClusterError::Protocol(format!(
                    "membership: boundary {} changes nothing",
                    change.window
                )));
            }
            let mut joined = change.joins.clone();
            joined.sort_unstable();
            joined.dedup();
            let mut left = change.leaves.clone();
            left.sort_unstable();
            left.dedup();
            if joined.len() != change.joins.len() || left.len() != change.leaves.len() {
                return Err(ClusterError::Protocol(format!(
                    "membership: boundary {} lists a node twice",
                    change.window
                )));
            }
            for &n in &joined {
                if u64::from(n) >= n_locals as u64 {
                    return Err(ClusterError::Protocol(format!(
                        "membership: joiner n{n} outside the node range 0..{n_locals}"
                    )));
                }
                if members.contains(&n) || !ever_joined.insert(n) {
                    return Err(ClusterError::Protocol(format!(
                        "membership: n{n} joins while already a member"
                    )));
                }
            }
            for &n in &left {
                if joined.contains(&n) {
                    return Err(ClusterError::Protocol(format!(
                        "membership: n{n} joins and leaves at the same boundary"
                    )));
                }
                if !members.contains(&n) || !ever_left.insert(n) {
                    return Err(ClusterError::Protocol(format!(
                        "membership: n{n} leaves without being a member"
                    )));
                }
            }
            members.retain(|n| !left.contains(n));
            members.extend(joined.iter().copied());
            members.sort_unstable();
            if members.is_empty() {
                return Err(ClusterError::Protocol(format!(
                    "membership: boundary {} leaves the cluster empty",
                    change.window
                )));
            }
            epochs.push(EpochInfo {
                epoch: epochs.len() as u64,
                first_window: change.window,
                members: members.clone(),
                joined,
                left,
            });
        }
        Ok(EpochLedger { epochs })
    }

    /// Number of epochs (≥ 1).
    pub fn n_epochs(&self) -> usize {
        self.epochs.len()
    }

    /// `true` when the run has a single fixed membership.
    pub fn is_trivial(&self) -> bool {
        self.epochs.len() == 1
    }

    /// The epoch `window` is computed under.
    pub fn epoch_of(&self, window: u64) -> u64 {
        self.epochs
            .iter()
            .rev()
            .find(|e| e.first_window <= window)
            .map_or(0, |e| e.epoch)
    }

    /// The epoch table entry for `epoch` (`None` past the end).
    pub fn info(&self, epoch: u64) -> Option<&EpochInfo> {
        self.epochs.get(usize::try_from(epoch).ok()?)
    }

    /// The member set of `window`, ascending.
    pub fn members_of(&self, window: u64) -> &[u32] {
        let idx = usize::try_from(self.epoch_of(window)).unwrap_or(0);
        &self.epochs[idx].members
    }

    /// `true` when `node` contributes to `window`.
    pub fn is_member(&self, window: u64, node: u32) -> bool {
        // Every epoch's member list is kept ascending.
        self.members_of(window).binary_search(&node).is_ok()
    }

    /// The first window `node` produces (`0` for epoch-0 members).
    pub fn join_window(&self, node: u32) -> u64 {
        self.epochs
            .iter()
            .find(|e| e.joined.contains(&node))
            .map_or(0, |e| e.first_window)
    }

    /// The first window `node` does NOT produce, or `None` when the node
    /// stays to the end of the run.
    pub fn leave_window(&self, node: u32) -> Option<u64> {
        self.epochs
            .iter()
            .find(|e| e.left.contains(&node))
            .map(|e| e.first_window)
    }

    /// Every node that is a member of at least one epoch, ascending.
    pub fn ever_members(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self
            .epochs
            .iter()
            .flat_map(|e| e.members.iter().copied())
            .collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The member set of the last epoch.
    pub fn final_members(&self) -> &[u32] {
        &self.epochs[self.epochs.len() - 1].members
    }

    /// All epochs in order.
    pub fn epochs(&self) -> &[EpochInfo] {
        &self.epochs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MembershipChange;

    fn plan(changes: Vec<MembershipChange>) -> MembershipPlan {
        MembershipPlan { changes }
    }

    #[test]
    fn trivial_ledger_covers_all_nodes_forever() {
        let l = EpochLedger::trivial(3);
        assert!(l.is_trivial());
        assert_eq!(l.epoch_of(0), 0);
        assert_eq!(l.epoch_of(u64::MAX), 0);
        assert_eq!(l.members_of(17), &[0, 1, 2]);
        assert_eq!(l.join_window(2), 0);
        assert_eq!(l.leave_window(2), None);
        assert_eq!(l.final_members(), &[0, 1, 2]);
    }

    #[test]
    fn acceptance_scenario_compiles() {
        // Start 4 locals, join 4 more at window 3, drain 2 at window 6.
        let l = EpochLedger::from_plan(
            8,
            &plan(vec![
                MembershipChange {
                    window: 3,
                    joins: vec![4, 5, 6, 7],
                    leaves: vec![],
                },
                MembershipChange {
                    window: 6,
                    joins: vec![],
                    leaves: vec![6, 7],
                },
            ]),
        )
        .unwrap();
        assert_eq!(l.n_epochs(), 3);
        assert_eq!(l.members_of(0), &[0, 1, 2, 3]);
        assert_eq!(l.members_of(2), &[0, 1, 2, 3]);
        assert_eq!(l.members_of(3), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(l.members_of(5), &[0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(l.members_of(6), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(l.epoch_of(5), 1);
        assert_eq!(l.epoch_of(6), 2);
        assert_eq!(l.join_window(4), 3);
        assert_eq!(l.join_window(0), 0);
        assert_eq!(l.leave_window(6), Some(6));
        assert_eq!(l.leave_window(4), None);
        assert_eq!(l.final_members(), &[0, 1, 2, 3, 4, 5]);
        assert_eq!(l.ever_members(), vec![0, 1, 2, 3, 4, 5, 6, 7]);
        assert_eq!(l.info(2).unwrap().left, vec![6, 7]);
        assert_eq!(l.info(2).unwrap().joined, Vec::<u32>::new());
    }

    #[test]
    fn epoch0_member_can_leave_and_rejoining_is_rejected() {
        let l = EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 2,
                joins: vec![],
                leaves: vec![1],
            }]),
        )
        .unwrap();
        assert_eq!(l.members_of(1), &[0, 1]);
        assert_eq!(l.members_of(2), &[0]);
        // A node that left cannot join again (single join/leave per node).
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![
                MembershipChange {
                    window: 2,
                    joins: vec![],
                    leaves: vec![1],
                },
                MembershipChange {
                    window: 4,
                    joins: vec![1],
                    leaves: vec![],
                },
            ]),
        )
        .is_err());
    }

    #[test]
    fn invalid_plans_are_rejected() {
        // Boundary 0.
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 0,
                joins: vec![1],
                leaves: vec![],
            }])
        )
        .is_err());
        // Non-increasing boundaries.
        assert!(EpochLedger::from_plan(
            3,
            &plan(vec![
                MembershipChange {
                    window: 2,
                    joins: vec![2],
                    leaves: vec![],
                },
                MembershipChange {
                    window: 2,
                    joins: vec![],
                    leaves: vec![0],
                },
            ])
        )
        .is_err());
        // Empty change.
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![],
                leaves: vec![],
            }])
        )
        .is_err());
        // Joiner outside the node range.
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![9],
                leaves: vec![],
            }])
        )
        .is_err());
        // Leaving a node that never was a member.
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![],
                leaves: vec![7],
            }])
        )
        .is_err());
        // Join + leave at one boundary.
        assert!(EpochLedger::from_plan(
            3,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![2],
                leaves: vec![2],
            }])
        )
        .is_err());
        // Everybody gone.
        assert!(EpochLedger::from_plan(
            1,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![],
                leaves: vec![0],
            }])
        )
        .is_err());
        // Epoch 0 empty (every node joins later).
        assert!(EpochLedger::from_plan(
            1,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![0],
                leaves: vec![],
            }])
        )
        .is_err());
        // Duplicate listing at one boundary.
        assert!(EpochLedger::from_plan(
            2,
            &plan(vec![MembershipChange {
                window: 1,
                joins: vec![1, 1],
                leaves: vec![],
            }])
        )
        .is_err());
    }
}
