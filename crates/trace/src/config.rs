//! Trace-session configuration.

/// Configuration of one trace recording.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceConfig {
    /// Maximum number of events kept. When the ring buffer is full the
    /// oldest events are overwritten (and counted as dropped), bounding
    /// the memory cost of tracing a long run.
    pub capacity: usize,
    /// Minimum sim-time spacing (nanoseconds) between two samples of the
    /// same counter. `None` keeps every sample. High-frequency emitters
    /// (per-block GPU counters) are decimated to this grid at record time.
    pub counter_interval: Option<u64>,
    /// Whether host wall-clock self-profiling spans
    /// ([`crate::selfprof`]) are recorded. Off by default so that
    /// sim-only traces are byte-reproducible across machines.
    pub self_profile: bool,
}

impl TraceConfig {
    /// Default capacity: one million events (~56 MB worst case).
    pub const DEFAULT_CAPACITY: usize = 1 << 20;

    /// Enables host wall-clock self-profiling spans.
    pub fn with_self_profile(mut self) -> Self {
        self.self_profile = true;
        self
    }

    /// Overrides the ring-buffer capacity.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        assert!(capacity > 0, "trace buffer needs non-zero capacity");
        self.capacity = capacity;
        self
    }

    /// Sets the counter sampling interval in sim nanoseconds.
    pub fn with_counter_interval(mut self, nanos: u64) -> Self {
        self.counter_interval = Some(nanos);
        self
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig {
            capacity: TraceConfig::DEFAULT_CAPACITY,
            counter_interval: None,
            self_profile: false,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_style_overrides() {
        let c = TraceConfig::default()
            .with_capacity(16)
            .with_counter_interval(1_000)
            .with_self_profile();
        assert_eq!(c.capacity, 16);
        assert_eq!(c.counter_interval, Some(1_000));
        assert!(c.self_profile);
    }

    #[test]
    #[should_panic(expected = "non-zero capacity")]
    fn zero_capacity_rejected() {
        let _ = TraceConfig::default().with_capacity(0);
    }
}
