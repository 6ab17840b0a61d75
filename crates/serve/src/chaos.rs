//! Deterministic fault injection for the serving daemon.
//!
//! The soak harness needs the daemon to *exercise* its fault paths —
//! kernel quarantine, degradation to the VM tier, deadline misses —
//! on demand and reproducibly. [`ChaosInjector`] is the daemon-side
//! half (the client-side half — malformed frames, mid-flight
//! disconnects — lives in the test harness, which owns the sockets):
//! a seeded SplitMix64 stream, in the mold of
//! `spl_search::FaultyEvaluator`, that decides per native-kernel run
//! whether to simulate a kernel fault and per request whether to add
//! artificial latency.
//!
//! Injected kernel faults are reported *before* the kernel runs, so a
//! degraded request is recomputed on the VM tier from scratch — chaos
//! can change which tier answers, never the answer itself.

use std::sync::Mutex;
use std::time::Duration;

use spl_numeric::rng::Rng;

/// Fault-injection probabilities and the seed that makes them
/// reproducible. All probabilities are clamped to `[0, 1]` at use.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ChaosConfig {
    /// Seed for the decision stream.
    pub seed: u64,
    /// Probability that one native-kernel run reports a (simulated)
    /// crash, forcing degradation to the VM tier.
    pub p_kernel_fault: f64,
    /// Probability that one request is delayed by [`latency`](ChaosConfig::latency)
    /// before execution.
    pub p_latency: f64,
    /// The artificial delay injected when the latency roll hits.
    pub latency: Duration,
}

impl Default for ChaosConfig {
    fn default() -> Self {
        ChaosConfig {
            seed: 0xc4a05,
            p_kernel_fault: 0.0,
            p_latency: 0.0,
            latency: Duration::from_millis(20),
        }
    }
}

/// The seeded decision stream behind one daemon's fault injection.
/// Decisions are drawn sequentially (thread-interleaving shifts which
/// request gets which draw, but the *rate* and the stream itself are
/// reproducible from the seed).
#[derive(Debug)]
pub struct ChaosInjector {
    config: ChaosConfig,
    rng: Mutex<Rng>,
}

impl ChaosInjector {
    /// An injector over `config`'s probabilities, seeded by
    /// `config.seed`.
    pub fn new(config: ChaosConfig) -> ChaosInjector {
        ChaosInjector {
            rng: Mutex::new(Rng::new(config.seed)),
            config,
        }
    }

    /// Rolls the kernel-fault die for one native run.
    pub fn kernel_fault(&self) -> bool {
        self.roll(self.config.p_kernel_fault)
    }

    /// Rolls the latency die for one request; `Some(delay)` means the
    /// executor should sleep `delay` before executing.
    pub fn latency(&self) -> Option<Duration> {
        self.roll(self.config.p_latency)
            .then_some(self.config.latency)
    }

    fn roll(&self, p: f64) -> bool {
        if p <= 0.0 {
            return false;
        }
        if p >= 1.0 {
            return true;
        }
        self.rng.lock().unwrap().chance(p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_probabilities_never_fire() {
        let inj = ChaosInjector::new(ChaosConfig::default());
        for _ in 0..100 {
            assert!(!inj.kernel_fault());
            assert!(inj.latency().is_none());
        }
    }

    #[test]
    fn certain_probabilities_always_fire() {
        let inj = ChaosInjector::new(ChaosConfig {
            p_kernel_fault: 1.0,
            p_latency: 1.0,
            ..Default::default()
        });
        for _ in 0..10 {
            assert!(inj.kernel_fault());
            assert_eq!(inj.latency(), Some(Duration::from_millis(20)));
        }
    }

    #[test]
    fn streams_are_seeded() {
        let mk = |seed| {
            let inj = ChaosInjector::new(ChaosConfig {
                seed,
                p_kernel_fault: 0.5,
                ..Default::default()
            });
            (0..64).map(|_| inj.kernel_fault()).collect::<Vec<_>>()
        };
        assert_eq!(mk(1), mk(1));
        assert_ne!(mk(1), mk(2));
        // Rate is roughly the configured probability.
        let hits = mk(3).iter().filter(|&&b| b).count();
        assert!((16..=48).contains(&hits), "hits {hits}");
    }
}
