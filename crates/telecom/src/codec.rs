//! Codec profiles and ladders for multimedia sessions.
//!
//! The paper motivates auto-adaptive systems with "new multimedia telecom
//! services … adapted to the available resources". A [`CodecProfile`] is
//! one operating point (bitrate, delivered quality, CPU cost); a
//! [`standard_ladder`] provides the degradation levels an adaptive session
//! walks instead of "dropping calls \[or\] rejecting packets arbitrarily".

use aas_control::qos::{ServiceLadder, ServiceLevel};

/// One codec operating point.
#[derive(Debug, Clone, PartialEq)]
pub struct CodecProfile {
    /// Profile name (e.g. `"720p"`).
    pub name: String,
    /// Media bitrate in bits per second.
    pub bitrate_bps: f64,
    /// Perceived quality in `[0, 1]`.
    pub quality: f64,
    /// Encoding cost in work units per frame.
    pub cpu_cost: f64,
    /// Frames per second.
    pub fps: u32,
}

impl CodecProfile {
    /// A new profile.
    #[must_use]
    pub fn new(
        name: impl Into<String>,
        bitrate_bps: f64,
        quality: f64,
        cpu_cost: f64,
        fps: u32,
    ) -> Self {
        CodecProfile {
            name: name.into(),
            bitrate_bps,
            quality,
            cpu_cost,
            fps,
        }
    }

    /// Payload bytes of one frame at this profile.
    #[must_use]
    pub fn frame_bytes(&self) -> u64 {
        if self.fps == 0 {
            return 0;
        }
        (self.bitrate_bps / 8.0 / f64::from(self.fps)).round() as u64
    }
}

/// The standard five-level degradation ladder, worst first.
#[must_use]
pub fn standard_ladder() -> Vec<CodecProfile> {
    vec![
        CodecProfile::new("audio-only", 64e3, 0.15, 0.05, 25),
        CodecProfile::new("240p", 400e3, 0.4, 0.3, 25),
        CodecProfile::new("480p", 1.2e6, 0.65, 0.8, 25),
        CodecProfile::new("720p", 3e6, 0.85, 1.6, 30),
        CodecProfile::new("1080p", 6e6, 1.0, 3.0, 30),
    ]
}

/// Converts codec profiles into an `aas-control` service ladder (quality =
/// quality, cost = bitrate in Mbit/s) so controllers can drive them.
#[must_use]
pub fn to_service_ladder(profiles: &[CodecProfile]) -> Option<ServiceLadder> {
    ServiceLadder::new(
        profiles
            .iter()
            .map(|p| ServiceLevel::new(p.name.clone(), p.quality, p.bitrate_bps / 1e6))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ladder_is_ordered_by_quality_and_cost() {
        let l = standard_ladder();
        assert_eq!(l.len(), 5);
        for w in l.windows(2) {
            assert!(w[0].quality < w[1].quality);
            assert!(w[0].bitrate_bps < w[1].bitrate_bps);
            assert!(w[0].cpu_cost < w[1].cpu_cost);
        }
    }

    #[test]
    fn frame_bytes_scale_with_bitrate() {
        let l = standard_ladder();
        // 1080p: 6 Mbit/s at 30 fps = 25000 B/frame.
        assert_eq!(l[4].frame_bytes(), 25_000);
        assert!(l[0].frame_bytes() < l[4].frame_bytes());
        let silent = CodecProfile::new("x", 1e6, 0.5, 0.1, 0);
        assert_eq!(silent.frame_bytes(), 0);
    }

    #[test]
    fn service_ladder_conversion_starts_high() {
        let ladder = to_service_ladder(&standard_ladder()).unwrap();
        assert_eq!(ladder.current().name, "1080p");
        assert_eq!(ladder.len(), 5);
        assert!(to_service_ladder(&[]).is_none());
    }
}
