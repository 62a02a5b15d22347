//! Protocol message payloads.
//!
//! The simulator is generic over the messages a protocol exchanges; the
//! only thing it needs from them is bookkeeping metadata: a *kind* label
//! (so that experiments can report, e.g., how many stem vs. fluff messages
//! Dandelion sent) and an approximate wire size (so that experiments can
//! report byte overhead, which matters for the DC-net phase where message
//! counts alone understate the O(k²) cost).

/// Metadata the simulator needs from every protocol message.
///
/// Implementations are expected to be cheap to clone. A point-to-point
/// send moves its payload; a fan-out to `t` queued targets clones it
/// `t − 1` times at send time and moves the original into the last, so
/// every in-flight copy owns its payload — a copy that churn later drops
/// was cloned all the same. A payload that is expensive to clone should
/// make cloning cheap itself, e.g. by keeping its bulk behind an `Arc`
/// (not an `Rc`: payloads must be `Send`).
pub trait Payload: Clone + std::fmt::Debug + Send + 'static {
    /// A short, static label identifying the message type, used to group
    /// counters in [`crate::metrics::Metrics`] (e.g. `"flood"`,
    /// `"dc-share"`, `"ad-token"`).
    fn kind(&self) -> &'static str;

    /// Approximate serialised size in bytes, used for byte-overhead
    /// accounting. Defaults to the in-memory size, which is adequate for
    /// relative comparisons between protocols.
    fn size_bytes(&self) -> usize {
        size_of_val(self)
    }
}

/// A trivial payload for tests and examples: a named token with an explicit
/// size.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TestPayload {
    /// Static label reported as the message kind.
    pub label: &'static str,
    /// Reported wire size in bytes.
    pub size: usize,
}

impl TestPayload {
    /// Creates a test payload with the given label and size.
    pub fn new(label: &'static str, size: usize) -> Self {
        Self { label, size }
    }
}

impl Payload for TestPayload {
    fn kind(&self) -> &'static str {
        self.label
    }

    fn size_bytes(&self) -> usize {
        self.size
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn test_payload_reports_its_metadata() {
        let p = TestPayload::new("ping", 64);
        assert_eq!(p.kind(), "ping");
        assert_eq!(p.size_bytes(), 64);
    }

    #[test]
    fn default_size_is_memory_size() {
        #[derive(Clone, Debug)]
        struct Fixed(#[allow(dead_code)] [u8; 16]);
        impl Payload for Fixed {
            fn kind(&self) -> &'static str {
                "fixed"
            }
        }
        assert_eq!(Fixed([0; 16]).size_bytes(), 16);
    }
}
