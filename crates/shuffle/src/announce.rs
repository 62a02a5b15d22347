//! The full Dissent-style round: anonymous announcement shuffle followed by a
//! DC-net bulk phase sized by the announcements.
//!
//! The paper (§III-B) summarises Dissent as follows: every participant
//! anonymously announces the length of the message it wants to transmit; the
//! announcements are unlinkable because they pass through a secure group
//! shuffle; the group then runs DC-net rounds whose slots are sized exactly
//! according to the published lengths. This supports variable-sized messages
//! without leaking who sent what, at the price of a startup phase whose
//! latency grows with the group size.
//!
//! [`DissentSession`] reproduces that structure on top of [`crate::shuffle`]
//! (announcement phase) and [`fnp_dcnet::KeyedDcGroup`] (bulk phase):
//!
//! 1. every member submits an 12-byte announcement `length (4 bytes) ‖
//!    recognition tag (8 bytes)` to the shuffle; silent members announce
//!    length 0,
//! 2. the published, unlinkable announcement list fixes the bulk schedule:
//!    one DC-net round per non-zero announcement, with the slot sized to the
//!    announced length,
//! 3. each sender recognises its own slot by its random recognition tag and
//!    transmits in exactly that round; everyone else stays silent.
//!
//! The recognition tag is the standard Dissent trick for letting a sender
//! find its slot without claiming it publicly: the tag is random, appears
//! only inside the shuffled announcement, and is never linked to a member.

use crate::cost::{StartupCostModel, StartupEstimate};
use crate::shuffle::{run_shuffle, ShuffleError, ShuffleReport};
use fnp_dcnet::keyed::KeyedDcError;
use fnp_dcnet::{KeyedDcGroup, SlotOutcome};
use rand::Rng;

/// Length of one announcement item: 4-byte length plus 8-byte recognition tag.
pub const ANNOUNCEMENT_LEN: usize = 12;

/// Configuration of a Dissent-style session.
#[derive(Clone, Copy, Debug)]
pub struct SessionConfig {
    /// Slot size used for the announcement shuffle (must fit
    /// [`ANNOUNCEMENT_LEN`] plus the 2-byte padding header).
    pub announcement_slot_len: usize,
    /// Cost model used to estimate the startup latency of the round.
    pub cost_model: StartupCostModel,
}

impl Default for SessionConfig {
    fn default() -> Self {
        Self {
            announcement_slot_len: ANNOUNCEMENT_LEN + 2,
            cost_model: StartupCostModel::default(),
        }
    }
}

/// Errors surfaced by a Dissent-style session.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SessionError {
    /// The group is too small for any anonymity.
    GroupTooSmall {
        /// Observed size.
        size: usize,
    },
    /// The submission list does not match the group size.
    WrongSubmissionCount {
        /// Submissions received.
        received: usize,
        /// Expected group size.
        expected: usize,
    },
    /// A message exceeds the maximum announceable length.
    PayloadTooLarge {
        /// Offending member.
        member: usize,
        /// Payload length.
        len: usize,
    },
    /// The announcement shuffle failed.
    Shuffle(ShuffleError),
    /// A bulk DC-net round failed.
    Bulk(KeyedDcError),
}

impl std::fmt::Display for SessionError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SessionError::GroupTooSmall { size } => {
                write!(f, "Dissent session of size {size} cannot provide anonymity")
            }
            SessionError::WrongSubmissionCount { received, expected } => write!(
                f,
                "received {received} submissions for a session of {expected} members"
            ),
            SessionError::PayloadTooLarge { member, len } => {
                write!(
                    f,
                    "member {member} wants to send {len} bytes, exceeding u32::MAX"
                )
            }
            SessionError::Shuffle(e) => write!(f, "announcement shuffle failed: {e}"),
            SessionError::Bulk(e) => write!(f, "bulk DC-net round failed: {e}"),
        }
    }
}

impl std::error::Error for SessionError {}

impl From<ShuffleError> for SessionError {
    fn from(error: ShuffleError) -> Self {
        SessionError::Shuffle(error)
    }
}

impl From<KeyedDcError> for SessionError {
    fn from(error: KeyedDcError) -> Self {
        SessionError::Bulk(error)
    }
}

/// Report of one complete Dissent-style round.
#[derive(Clone, Debug)]
pub struct DissentReport {
    /// Messages recovered from the bulk phase, in announcement order
    /// (unlinkable to their senders).
    pub published: Vec<Vec<u8>>,
    /// The announcement shuffle's own report.
    pub announcement: ShuffleReport,
    /// Number of bulk DC-net rounds executed (one per announced message).
    pub bulk_rounds: usize,
    /// Bulk slots that decoded to a collision or damaged frame (0 when all
    /// members are honest).
    pub damaged_slots: usize,
    /// Total point-to-point messages across announcement and bulk phases.
    pub messages_sent: u64,
    /// Total bytes across announcement and bulk phases.
    pub bytes_sent: u64,
    /// Startup latency estimate for the announcement phase (experiment E11).
    pub startup: StartupEstimate,
}

impl DissentReport {
    /// Whether a particular payload was delivered by the bulk phase.
    pub fn contains(&self, payload: &[u8]) -> bool {
        self.published.iter().any(|p| p == payload)
    }
}

/// A Dissent-style anonymous broadcast group.
///
/// The session owns the keyed DC-net group used for bulk transmission and is
/// reused across rounds; the announcement shuffle generates fresh ephemeral
/// keys every round.
pub struct DissentSession {
    size: usize,
    config: SessionConfig,
    round: u64,
}

impl std::fmt::Debug for DissentSession {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DissentSession")
            .field("size", &self.size)
            .field("round", &self.round)
            .finish()
    }
}

impl DissentSession {
    /// Creates a session of `size` members.
    ///
    /// # Errors
    ///
    /// Fails if the group has fewer than two members.
    pub fn new<R: Rng + ?Sized>(
        size: usize,
        config: SessionConfig,
        _rng: &mut R,
    ) -> Result<Self, SessionError> {
        if size < 2 {
            return Err(SessionError::GroupTooSmall { size });
        }
        Ok(Self {
            size,
            config,
            round: 0,
        })
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.size
    }

    /// Rounds completed so far.
    pub fn rounds_completed(&self) -> u64 {
        self.round
    }

    /// Runs one full round: announcement shuffle plus bulk DC-net rounds.
    ///
    /// `messages[i]` is member `i`'s payload for this round (`None` to stay
    /// silent).
    ///
    /// # Errors
    ///
    /// Fails if the submission list does not match the group, a payload is
    /// too large, or one of the underlying phases fails.
    pub fn run_round<R: Rng + ?Sized>(
        &mut self,
        messages: &[Option<Vec<u8>>],
        rng: &mut R,
    ) -> Result<DissentReport, SessionError> {
        if messages.len() != self.size {
            return Err(SessionError::WrongSubmissionCount {
                received: messages.len(),
                expected: self.size,
            });
        }

        // Phase A: shuffle the length announcements. Every member announces,
        // silent members announce length zero, so participation itself leaks
        // nothing.
        let mut tags: Vec<Option<[u8; 8]>> = vec![None; self.size];
        let mut announcements: Vec<Option<Vec<u8>>> = Vec::with_capacity(self.size);
        for (index, message) in messages.iter().enumerate() {
            let len = match message {
                Some(payload) => {
                    u32::try_from(payload.len()).map_err(|_| SessionError::PayloadTooLarge {
                        member: index,
                        len: payload.len(),
                    })?
                }
                None => 0,
            };
            let mut tag = [0u8; 8];
            rng.fill(&mut tag);
            tags[index] = Some(tag);
            let mut item = Vec::with_capacity(ANNOUNCEMENT_LEN);
            item.extend_from_slice(&len.to_le_bytes());
            item.extend_from_slice(&tag);
            announcements.push(Some(item));
        }
        let announcement = run_shuffle(self.config.announcement_slot_len, &announcements, rng)?;

        // Parse the published announcements into the bulk schedule.
        let mut schedule: Vec<(u32, [u8; 8])> = Vec::new();
        for item in &announcement.published {
            if item.len() != ANNOUNCEMENT_LEN {
                continue;
            }
            let len = u32::from_le_bytes(item[..4].try_into().expect("4-byte length"));
            if len == 0 {
                continue;
            }
            let mut tag = [0u8; 8];
            tag.copy_from_slice(&item[4..]);
            schedule.push((len, tag));
        }

        // Phase B: one keyed DC-net round per scheduled slot. The sender of
        // a slot recognises it by the tag; everyone else stays silent.
        let mut published = Vec::with_capacity(schedule.len());
        let mut damaged_slots = 0;
        let mut messages_sent = announcement.messages_sent;
        let mut bytes_sent = announcement.bytes_sent;
        for (len, tag) in &schedule {
            // Slot framing in the DC slot needs a little slack on top of the
            // announced payload length.
            let slot_len = *len as usize + 8;
            let mut group = KeyedDcGroup::new(self.size, slot_len, rng)?;
            let payloads: Vec<Option<Vec<u8>>> = (0..self.size)
                .map(|member| {
                    let owns_slot = tags[member].map(|own_tag| own_tag == *tag).unwrap_or(false);
                    if owns_slot {
                        messages[member].clone()
                    } else {
                        None
                    }
                })
                .collect();
            let report = group.run_round(self.round, &payloads)?;
            messages_sent += report.messages_sent;
            bytes_sent += report.bytes_sent;
            match report.outcome {
                SlotOutcome::Message(payload) => published.push(payload),
                SlotOutcome::Silence => {}
                SlotOutcome::Collision => damaged_slots += 1,
            }
        }

        let startup = self.config.cost_model.estimate(self.size);
        self.round += 1;
        Ok(DissentReport {
            published,
            bulk_rounds: schedule.len(),
            damaged_slots,
            messages_sent,
            bytes_sent,
            startup,
            announcement,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn single_sender_is_delivered() {
        let mut rng = StdRng::seed_from_u64(20);
        let mut session = DissentSession::new(5, SessionConfig::default(), &mut rng).unwrap();
        let mut messages = vec![None; 5];
        messages[3] = Some(b"anonymous transaction".to_vec());
        let report = session.run_round(&messages, &mut rng).unwrap();
        assert_eq!(report.bulk_rounds, 1);
        assert_eq!(report.damaged_slots, 0);
        assert!(report.contains(b"anonymous transaction"));
        assert!(report.announcement.all_present);
    }

    #[test]
    fn multiple_senders_with_different_lengths_are_all_delivered() {
        let mut rng = StdRng::seed_from_u64(21);
        let mut session = DissentSession::new(6, SessionConfig::default(), &mut rng).unwrap();
        let messages = vec![
            Some(b"short".to_vec()),
            None,
            Some(b"a noticeably longer transaction payload".to_vec()),
            None,
            Some(b"medium sized entry".to_vec()),
            None,
        ];
        let report = session.run_round(&messages, &mut rng).unwrap();
        assert_eq!(report.bulk_rounds, 3);
        for message in messages.iter().flatten() {
            assert!(report.contains(message), "missing {message:?}");
        }
    }

    #[test]
    fn idle_round_runs_no_bulk_slots() {
        let mut rng = StdRng::seed_from_u64(22);
        let mut session = DissentSession::new(4, SessionConfig::default(), &mut rng).unwrap();
        let report = session
            .run_round(&[None, None, None, None], &mut rng)
            .unwrap();
        assert_eq!(report.bulk_rounds, 0);
        assert!(report.published.is_empty());
        assert!(
            report.messages_sent > 0,
            "the announcement shuffle still runs"
        );
    }

    #[test]
    fn startup_latency_grows_with_group_size() {
        let mut rng = StdRng::seed_from_u64(23);
        let mut small = DissentSession::new(4, SessionConfig::default(), &mut rng).unwrap();
        let mut large = DissentSession::new(12, SessionConfig::default(), &mut rng).unwrap();
        let small_report = small.run_round(&vec![None; 4], &mut rng).unwrap();
        let large_report = large.run_round(&vec![None; 12], &mut rng).unwrap();
        assert!(large_report.startup.latency_ms > small_report.startup.latency_ms);
    }

    #[test]
    fn wrong_submission_count_is_rejected() {
        let mut rng = StdRng::seed_from_u64(24);
        let mut session = DissentSession::new(4, SessionConfig::default(), &mut rng).unwrap();
        let err = session.run_round(&[None, None], &mut rng).unwrap_err();
        assert_eq!(
            err,
            SessionError::WrongSubmissionCount {
                received: 2,
                expected: 4
            }
        );
    }

    #[test]
    fn groups_of_one_are_rejected() {
        let mut rng = StdRng::seed_from_u64(25);
        let err = DissentSession::new(1, SessionConfig::default(), &mut rng).unwrap_err();
        assert_eq!(err, SessionError::GroupTooSmall { size: 1 });
    }

    #[test]
    fn rounds_are_counted() {
        let mut rng = StdRng::seed_from_u64(26);
        let mut session = DissentSession::new(3, SessionConfig::default(), &mut rng).unwrap();
        assert_eq!(session.rounds_completed(), 0);
        session.run_round(&[None, None, None], &mut rng).unwrap();
        session
            .run_round(&[Some(b"x".to_vec()), None, None], &mut rng)
            .unwrap();
        assert_eq!(session.rounds_completed(), 2);
    }
}
