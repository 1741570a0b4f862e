//! Simulated network links.

use crate::node::NodeId;
use crate::time::SimDuration;
use core::fmt;

/// Identifier of a link in the topology.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct LinkId(pub u32);

impl fmt::Display for LinkId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "link{}", self.0)
    }
}

/// Static description of a bidirectional link.
#[derive(Debug, Clone)]
pub struct LinkSpec {
    /// One endpoint.
    pub a: NodeId,
    /// The other endpoint.
    pub b: NodeId,
    /// Propagation latency.
    pub latency: SimDuration,
    /// Bandwidth in bytes per second.
    pub bandwidth: f64,
}

impl LinkSpec {
    /// A link between `a` and `b` with the given latency and bandwidth
    /// (bytes/second).
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth` is not positive and finite, or if `a == b`.
    #[must_use]
    pub fn new(a: NodeId, b: NodeId, latency: SimDuration, bandwidth: f64) -> Self {
        assert!(a != b, "link endpoints must differ");
        assert!(
            bandwidth.is_finite() && bandwidth > 0.0,
            "bandwidth must be positive"
        );
        LinkSpec {
            a,
            b,
            latency,
            bandwidth,
        }
    }
}

/// Runtime state of a link.
#[derive(Debug, Clone)]
pub struct Link {
    id: LinkId,
    spec: LinkSpec,
    up: bool,
}

impl Link {
    pub(crate) fn new(id: LinkId, spec: LinkSpec) -> Self {
        Link { id, spec, up: true }
    }

    /// This link's id.
    #[must_use]
    pub fn id(&self) -> LinkId {
        self.id
    }

    /// The static spec.
    #[must_use]
    pub fn spec(&self) -> &LinkSpec {
        &self.spec
    }

    /// Whether the link is currently up.
    #[must_use]
    pub fn is_up(&self) -> bool {
        self.up
    }

    pub(crate) fn set_up(&mut self, up: bool) {
        self.up = up;
    }

    /// Whether this link connects `x` and `y` (in either direction).
    #[must_use]
    pub fn connects(&self, x: NodeId, y: NodeId) -> bool {
        (self.spec.a == x && self.spec.b == y) || (self.spec.a == y && self.spec.b == x)
    }

    /// The endpoint opposite `n`, or `None` if `n` is not an endpoint.
    #[must_use]
    pub fn opposite(&self, n: NodeId) -> Option<NodeId> {
        if self.spec.a == n {
            Some(self.spec.b)
        } else if self.spec.b == n {
            Some(self.spec.a)
        } else {
            None
        }
    }

    /// Transit time for a message of `size` bytes: latency plus
    /// serialization delay.
    #[must_use]
    pub fn transit(&self, size: u64) -> SimDuration {
        self.spec.latency + SimDuration::from_secs_f64(size as f64 / self.spec.bandwidth)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn link() -> Link {
        Link::new(
            LinkId(0),
            LinkSpec::new(
                NodeId(0),
                NodeId(1),
                SimDuration::from_millis(10),
                1_000_000.0, // 1 MB/s
            ),
        )
    }

    #[test]
    fn transit_adds_serialization_delay() {
        let l = link();
        // 10ms latency + 500_000B / 1MB/s = 510 ms
        assert_eq!(l.transit(500_000), SimDuration::from_millis(510));
        assert_eq!(l.transit(0), SimDuration::from_millis(10));
    }

    #[test]
    fn connects_is_symmetric() {
        let l = link();
        assert!(l.connects(NodeId(0), NodeId(1)));
        assert!(l.connects(NodeId(1), NodeId(0)));
        assert!(!l.connects(NodeId(0), NodeId(2)));
    }

    #[test]
    fn opposite_finds_peer() {
        let l = link();
        assert_eq!(l.opposite(NodeId(0)), Some(NodeId(1)));
        assert_eq!(l.opposite(NodeId(1)), Some(NodeId(0)));
        assert_eq!(l.opposite(NodeId(7)), None);
    }

    #[test]
    #[should_panic(expected = "endpoints must differ")]
    fn self_link_rejected() {
        let _ = LinkSpec::new(NodeId(3), NodeId(3), SimDuration::ZERO, 1.0);
    }

    #[test]
    #[should_panic(expected = "bandwidth")]
    fn zero_bandwidth_rejected() {
        let _ = LinkSpec::new(NodeId(0), NodeId(1), SimDuration::ZERO, 0.0);
    }

    #[test]
    fn accounting_accumulates() {
        let mut t = crate::network::Topology::new();
        let a = t.add_node(crate::node::NodeSpec::new("a", 1.0));
        let b = t.add_node(crate::node::NodeSpec::new("b", 1.0));
        let lid = t.add_link(LinkSpec::new(a, b, SimDuration::from_millis(10), 1e6));
        let mut k: crate::kernel::Kernel<u8> = crate::kernel::Kernel::new(t, 1);
        let ch = k.open_channel(a, b);
        k.send(ch, 0, 10);
        k.send(ch, 1, 20);
        assert_eq!(k.link_bytes(lid), 30);
    }
}
