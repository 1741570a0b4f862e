//! Media session state machine.

use crate::codec::CodecProfile;
use aas_sim::time::SimTime;
use core::fmt;

/// Session lifecycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SessionState {
    /// Created, not yet streaming.
    Negotiating,
    /// Frames flowing.
    Streaming,
    /// Terminated.
    Ended,
}

impl fmt::Display for SessionState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SessionState::Negotiating => "negotiating",
            SessionState::Streaming => "streaming",
            SessionState::Ended => "ended",
        };
        f.write_str(s)
    }
}

/// One frame to transmit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FrameSpec {
    /// Payload size in bytes.
    pub bytes: u64,
    /// Encoding cost in work units.
    pub cost: f64,
    /// Codec level index the frame was encoded at.
    pub level: usize,
}

/// A multimedia session walking a codec ladder.
///
/// # Examples
///
/// ```
/// use aas_telecom::codec::standard_ladder;
/// use aas_telecom::session::{MediaSession, SessionState};
///
/// let mut s = MediaSession::new(1, standard_ladder());
/// assert_eq!(s.state(), SessionState::Negotiating);
/// s.start();
/// let frame = s.next_frame().expect("streaming");
/// assert!(frame.bytes > 0);
/// s.degrade();
/// assert!(s.next_frame().unwrap().bytes < frame.bytes);
/// ```
#[derive(Debug, Clone)]
pub struct MediaSession {
    id: u64,
    profiles: Vec<CodecProfile>,
    level: usize,
    state: SessionState,
    frames_sent: u64,
    bytes_sent: u64,
    downgrades: u64,
    upgrades: u64,
    started_at: Option<SimTime>,
}

impl MediaSession {
    /// A new session over the given (non-empty) ladder, starting at the
    /// top level.
    ///
    /// # Panics
    ///
    /// Panics if `profiles` is empty.
    #[must_use]
    pub fn new(id: u64, profiles: Vec<CodecProfile>) -> Self {
        assert!(!profiles.is_empty(), "session needs at least one codec");
        let level = profiles.len() - 1;
        MediaSession {
            id,
            profiles,
            level,
            state: SessionState::Negotiating,
            frames_sent: 0,
            bytes_sent: 0,
            downgrades: 0,
            upgrades: 0,
            started_at: None,
        }
    }

    /// Session id.
    #[must_use]
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Current state.
    #[must_use]
    pub fn state(&self) -> SessionState {
        self.state
    }

    /// The active codec profile.
    #[must_use]
    pub fn codec(&self) -> &CodecProfile {
        &self.profiles[self.level]
    }

    /// Current ladder level (0 = lowest quality).
    #[must_use]
    pub fn level(&self) -> usize {
        self.level
    }

    /// Starts streaming.
    pub fn start(&mut self) {
        if self.state == SessionState::Negotiating {
            self.state = SessionState::Streaming;
        }
    }

    /// Starts streaming, recording the start time.
    pub fn start_at(&mut self, at: SimTime) {
        self.start();
        self.started_at = Some(at);
    }

    /// Ends the session.
    pub fn end(&mut self) {
        self.state = SessionState::Ended;
    }

    /// Produces the next frame, or `None` if not streaming.
    pub fn next_frame(&mut self) -> Option<FrameSpec> {
        if self.state != SessionState::Streaming {
            return None;
        }
        let p = &self.profiles[self.level];
        let frame = FrameSpec {
            bytes: p.frame_bytes(),
            cost: p.cpu_cost,
            level: self.level,
        };
        self.frames_sent += 1;
        self.bytes_sent += frame.bytes;
        Some(frame)
    }

    /// Steps down one codec level; `true` if the level changed.
    pub fn degrade(&mut self) -> bool {
        if self.level > 0 {
            self.level -= 1;
            self.downgrades += 1;
            true
        } else {
            false
        }
    }

    /// Steps up one codec level; `true` if the level changed.
    pub fn upgrade(&mut self) -> bool {
        if self.level + 1 < self.profiles.len() {
            self.level += 1;
            self.upgrades += 1;
            true
        } else {
            false
        }
    }

    /// Jumps to an absolute level (clamped); `true` if changed.
    pub fn set_level(&mut self, level: usize) -> bool {
        let clamped = level.min(self.profiles.len() - 1);
        if clamped != self.level {
            if clamped < self.level {
                self.downgrades += 1;
            } else {
                self.upgrades += 1;
            }
            self.level = clamped;
            true
        } else {
            false
        }
    }

    /// Frames produced so far.
    #[must_use]
    pub fn frames_sent(&self) -> u64 {
        self.frames_sent
    }

    /// Bytes produced so far.
    #[must_use]
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// `(downgrades, upgrades)` counts.
    #[must_use]
    pub fn transitions(&self) -> (u64, u64) {
        (self.downgrades, self.upgrades)
    }

    /// Mean delivered quality per frame so far, weighted by frame count at
    /// each level — approximated here as the current level's quality (the
    /// detailed per-frame ledger lives with the sink component).
    #[must_use]
    pub fn current_quality(&self) -> f64 {
        self.codec().quality
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::codec::standard_ladder;

    fn session() -> MediaSession {
        MediaSession::new(7, standard_ladder())
    }

    #[test]
    fn lifecycle_transitions() {
        let mut s = session();
        assert_eq!(s.state(), SessionState::Negotiating);
        assert!(s.next_frame().is_none(), "not streaming yet");
        s.start();
        assert_eq!(s.state(), SessionState::Streaming);
        assert!(s.next_frame().is_some());
        s.end();
        assert_eq!(s.state(), SessionState::Ended);
        assert!(s.next_frame().is_none());
    }

    #[test]
    fn starts_at_top_quality() {
        let s = session();
        assert_eq!(s.codec().name, "1080p");
        assert_eq!(s.level(), 4);
        assert!((s.current_quality() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn degrade_upgrade_walk_the_ladder() {
        let mut s = session();
        s.start();
        assert!(s.degrade());
        assert_eq!(s.codec().name, "720p");
        assert!(s.upgrade());
        assert_eq!(s.codec().name, "1080p");
        assert!(!s.upgrade(), "already at top");
        for _ in 0..10 {
            s.degrade();
        }
        assert_eq!(s.codec().name, "audio-only");
        assert!(!s.degrade(), "already at bottom");
        let (down, up) = s.transitions();
        assert_eq!(down, 5);
        assert_eq!(up, 1);
    }

    #[test]
    fn set_level_clamps_and_counts() {
        let mut s = session();
        assert!(s.set_level(0));
        assert_eq!(s.level(), 0);
        assert!(s.set_level(100));
        assert_eq!(s.level(), 4);
        assert!(!s.set_level(4));
    }

    #[test]
    fn frame_accounting() {
        let mut s = session();
        s.start();
        let f1 = s.next_frame().unwrap();
        s.degrade();
        let f2 = s.next_frame().unwrap();
        assert!(f2.bytes < f1.bytes);
        assert_eq!(s.frames_sent(), 2);
        assert_eq!(s.bytes_sent(), f1.bytes + f2.bytes);
        assert_eq!(f1.level, 4);
        assert_eq!(f2.level, 3);
    }

    #[test]
    fn start_at_records_time() {
        let mut s = session();
        s.start_at(SimTime::from_secs(10));
        assert_eq!(s.state(), SessionState::Streaming);
    }

    #[test]
    #[should_panic(expected = "at least one codec")]
    fn empty_ladder_rejected() {
        let _ = MediaSession::new(0, Vec::new());
    }
}
