//! Session modelling for the interactive services.
//!
//! The paper's `webmail` clients "interact with the servers in sessions,
//! each consisting of a sequence of actions (e.g., login, read email and
//! attachments, reply/forward/delete/move, compose and send)", with the
//! action mix modelled after MS Exchange LoadSim's heavy-usage profile.
//! This module provides that structure: an action alphabet with relative
//! demand weights and a session generator producing action sequences
//! whose *mean* demand equals the calibrated per-request demand (so the
//! Figure 2(c) calibration is preserved while the request stream gains
//! realistic heterogeneity).

use wcs_simcore::dist::Empirical;
use wcs_simcore::SimRng;
use wcs_simserver::{RequestSource, Stage};

use crate::service::PlatformDemand;

/// One user action within a session.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[cfg_attr(feature = "serde", derive(serde::Serialize, serde::Deserialize))]
pub enum MailAction {
    /// Authenticate and load the mailbox index.
    Login,
    /// Read a message body.
    Read,
    /// Download an attachment (heavy network + disk).
    ReadAttachment,
    /// Reply / forward (read + compose + send).
    Reply,
    /// Compose and send a new message.
    Compose,
    /// Delete / move / flag (metadata only).
    Manage,
    /// Log out.
    Logout,
}

impl MailAction {
    /// Demand multiplier relative to the calibrated mean request: how
    /// much heavier or lighter this action is.
    pub fn demand_multiplier(self) -> f64 {
        match self {
            MailAction::Login => 1.4,
            MailAction::Read => 0.8,
            MailAction::ReadAttachment => 3.0,
            MailAction::Reply => 1.6,
            MailAction::Compose => 1.2,
            MailAction::Manage => 0.3,
            MailAction::Logout => 0.2,
        }
    }
}

/// The LoadSim-style heavy-user action mix: `(action, weight)` pairs for
/// the body of a session (login/logout bracket it).
const HEAVY_USER_MIX: [(MailAction, f64); 5] = [
    (MailAction::Read, 45.0),
    (MailAction::ReadAttachment, 10.0),
    (MailAction::Reply, 12.0),
    (MailAction::Compose, 13.0),
    (MailAction::Manage, 20.0),
];

/// A generator of webmail sessions: action sequences with per-action
/// demand multipliers, normalized so the long-run mean multiplier is 1.
///
/// # Example
/// ```
/// use wcs_workloads::sessions::SessionGen;
/// use wcs_simcore::SimRng;
/// let mut gen = SessionGen::heavy_user(8);
/// let session = gen.next_session(&mut SimRng::seed_from(1));
/// assert!(session.len() >= 3); // login + body + logout
/// ```
#[derive(Debug)]
pub struct SessionGen {
    body_mix: Empirical,
    body_actions: Vec<MailAction>,
    mean_body_len: usize,
    normalizer: f64,
}

impl SessionGen {
    /// The heavy-usage profile with the given mean session body length.
    ///
    /// # Panics
    /// Panics if `mean_body_len` is zero.
    pub fn heavy_user(mean_body_len: usize) -> Self {
        assert!(mean_body_len > 0, "sessions need a body");
        let points: Vec<(f64, f64)> = HEAVY_USER_MIX
            .iter()
            .enumerate()
            .map(|(i, &(_, w))| (i as f64, w))
            .collect();
        let body_mix = Empirical::new(&points).expect("static mix is valid");
        let body_actions: Vec<MailAction> = HEAVY_USER_MIX.iter().map(|&(a, _)| a).collect();

        // Long-run mean multiplier of a session, for normalization.
        let total_w: f64 = HEAVY_USER_MIX.iter().map(|&(_, w)| w).sum();
        let mean_body_mult: f64 = HEAVY_USER_MIX
            .iter()
            .map(|&(a, w)| a.demand_multiplier() * w / total_w)
            .sum();
        let n = mean_body_len as f64;
        let mean_mult = (MailAction::Login.demand_multiplier()
            + MailAction::Logout.demand_multiplier()
            + n * mean_body_mult)
            / (n + 2.0);
        SessionGen {
            body_mix,
            body_actions,
            mean_body_len,
            normalizer: 1.0 / mean_mult,
        }
    }

    /// Generates the action sequence of one session (geometric body
    /// length with the configured mean, bracketed by login/logout).
    pub fn next_session(&mut self, rng: &mut SimRng) -> Vec<MailAction> {
        let mut actions = vec![MailAction::Login];
        let p_stop = 1.0 / self.mean_body_len as f64;
        loop {
            let idx = self.body_mix.sample_index(rng);
            actions.push(self.body_actions[idx]);
            if rng.chance(p_stop) {
                break;
            }
        }
        actions.push(MailAction::Logout);
        actions
    }

    /// The demand multiplier for an action, normalized so the long-run
    /// session mean is 1.0.
    pub fn normalized_multiplier(&self, action: MailAction) -> f64 {
        action.demand_multiplier() * self.normalizer
    }
}

/// A [`RequestSource`] that walks webmail sessions: each request is the
/// next action of the current session, its stages scaled by the action's
/// normalized multiplier.
#[derive(Debug)]
pub struct SessionSource {
    demand: PlatformDemand,
    gen: SessionGen,
    pending: Vec<MailAction>,
}

impl SessionSource {
    /// Creates a session-structured source over the given scaled demand.
    pub fn new(demand: PlatformDemand, mean_body_len: usize) -> Self {
        SessionSource {
            demand,
            gen: SessionGen::heavy_user(mean_body_len),
            pending: Vec::new(),
        }
    }
}

impl RequestSource for SessionSource {
    fn next_request(&mut self, rng: &mut SimRng, stages: &mut Vec<Stage>) {
        if self.pending.is_empty() {
            self.pending = self.gen.next_session(rng);
            self.pending.reverse(); // pop from the back in order
        }
        let action = self.pending.pop().expect("session is non-empty");
        let mult = self.gen.normalized_multiplier(action);
        let d = &self.demand;
        for (resource, secs) in [
            (wcs_simserver::Resource::Memory, d.mem_secs()),
            (wcs_simserver::Resource::Cpu, d.cpu_secs()),
            (wcs_simserver::Resource::Disk, d.disk_secs()),
            (wcs_simserver::Resource::Net, d.net_secs()),
        ] {
            let scaled = secs * mult;
            if scaled > 1e-12 {
                stages.push(Stage::new(
                    resource,
                    wcs_simcore::SimDuration::from_secs_f64(scaled),
                ));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{suite, WorkloadId};
    use wcs_platforms::{catalog, PlatformId};

    #[test]
    fn sessions_bracketed_by_login_logout() {
        let mut gen = SessionGen::heavy_user(6);
        let mut rng = SimRng::seed_from(3);
        for _ in 0..100 {
            let s = gen.next_session(&mut rng);
            assert_eq!(*s.first().unwrap(), MailAction::Login);
            assert_eq!(*s.last().unwrap(), MailAction::Logout);
            assert!(s.len() >= 3);
        }
    }

    #[test]
    fn session_length_mean_tracks_config() {
        let mut gen = SessionGen::heavy_user(10);
        let mut rng = SimRng::seed_from(5);
        let n = 3000;
        let total: usize = (0..n).map(|_| gen.next_session(&mut rng).len() - 2).sum();
        let mean = total as f64 / n as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean body length {mean}");
    }

    #[test]
    fn normalized_multiplier_mean_is_one() {
        // Generate many sessions and check the average multiplier.
        let mut gen = SessionGen::heavy_user(8);
        let mut rng = SimRng::seed_from(7);
        let mut total = 0.0;
        let mut count = 0usize;
        for _ in 0..2000 {
            for a in gen.next_session(&mut rng) {
                total += gen.normalized_multiplier(a);
                count += 1;
            }
        }
        let mean = total / count as f64;
        assert!((mean - 1.0).abs() < 0.03, "mean multiplier {mean}");
    }

    #[test]
    fn session_source_preserves_mean_demand() {
        let wl = suite::workload(WorkloadId::Webmail);
        let p = catalog::platform(PlatformId::Desk);
        let demand = PlatformDemand::new(&wl, &p);
        let expect = demand.single_client_latency_secs();
        let mut src = SessionSource::new(demand, 8);
        let mut rng = SimRng::seed_from(11);
        let n = 20_000;
        let mut total = 0.0;
        let mut stages = Vec::new();
        for _ in 0..n {
            stages.clear();
            src.next_request(&mut rng, &mut stages);
            total += stages.iter().map(|s| s.service.as_secs_f64()).sum::<f64>();
        }
        let mean = total / n as f64;
        assert!(
            (mean - expect).abs() / expect < 0.05,
            "session mean {mean} vs calibrated {expect}"
        );
    }

    #[test]
    fn attachments_are_heaviest() {
        for a in [
            MailAction::Login,
            MailAction::Read,
            MailAction::Reply,
            MailAction::Compose,
            MailAction::Manage,
            MailAction::Logout,
        ] {
            assert!(MailAction::ReadAttachment.demand_multiplier() > a.demand_multiplier());
        }
    }
}
