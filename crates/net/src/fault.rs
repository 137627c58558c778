//! Deterministic fault injection for [`SimNetwork`](crate::SimNetwork).
//!
//! The paper's prototype talks to the live 2007 Web, where the hidden
//! request can vanish, reset, stall past any deadline, come back as an
//! error page, or arrive cut short. This module reproduces that substrate
//! misbehaviour *deterministically*: a seeded [`FaultPlan`] assigns
//! per-host, per-request-class [`FaultRates`], and a [`FaultInjector`]
//! derives every fault decision from a hash of the plan seed and the
//! request identity — never from the network's latency RNG — so installing
//! a plan with zero rates leaves every existing stream bit-identical.

use std::collections::HashMap;
use std::fmt;

use cp_cookies::SimDuration;
use cp_runtime::rng::{Rng, SeedableRng, StdRng};
use cp_runtime::sync::Mutex;

/// Fault probabilities for one class of traffic. All probabilities are in
/// `[0, 1]`; the four terminal kinds (`drop`, `reset`, `http_5xx`,
/// `truncate`) are mutually exclusive per request, and `extra_latency` is
/// rolled only when no terminal fault fired.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultRates {
    /// Probability the request (or its response) is lost in transit; the
    /// client observes a timeout.
    pub drop: f64,
    /// Probability the connection is reset mid-exchange.
    pub reset: f64,
    /// Probability the origin answers with an HTTP 5xx error page.
    pub http_5xx: f64,
    /// Probability the response body arrives truncated (Content-Length
    /// mismatch).
    pub truncate: f64,
    /// Probability of `extra_latency_ms` of added delay (e.g. an upstream
    /// retry inside the origin).
    pub extra_latency: f64,
    /// The added delay, in milliseconds, when `extra_latency` fires.
    pub extra_latency_ms: u64,
}

impl FaultRates {
    /// No faults at all — sampling always returns `None`.
    pub const NONE: FaultRates = FaultRates {
        drop: 0.0,
        reset: 0.0,
        http_5xx: 0.0,
        truncate: 0.0,
        extra_latency: 0.0,
        extra_latency_ms: 0,
    };

    /// Splits a total fault probability `rate` evenly across the five fault
    /// kinds, with a 45 s added delay on the latency kind (enough to blow
    /// any realistic think-time deadline budget).
    pub fn uniform(rate: f64) -> FaultRates {
        let p = rate.clamp(0.0, 1.0) / 5.0;
        FaultRates {
            drop: p,
            reset: p,
            http_5xx: p,
            truncate: p,
            extra_latency: p,
            extra_latency_ms: 45_000,
        }
    }

    /// Whether every rate is zero.
    pub fn is_none(&self) -> bool {
        self.drop == 0.0
            && self.reset == 0.0
            && self.http_5xx == 0.0
            && self.truncate == 0.0
            && self.extra_latency == 0.0
    }

    /// Draws at most one fault for a request from `rng`.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> Option<FaultKind> {
        if self.is_none() {
            return None;
        }
        let roll = rng.gen::<f64>();
        let mut edge = self.drop;
        if roll < edge {
            return Some(FaultKind::Drop);
        }
        edge += self.reset;
        if roll < edge {
            let after = SimDuration::from_millis(10 + rng.gen_range(0..240u64));
            return Some(FaultKind::Reset(after));
        }
        edge += self.http_5xx;
        if roll < edge {
            let status = [500u16, 502, 503][rng.gen_range(0..3u64) as usize];
            return Some(FaultKind::Http5xx(status));
        }
        edge += self.truncate;
        if roll < edge {
            return Some(FaultKind::Truncate);
        }
        if self.extra_latency > 0.0 && rng.gen::<f64>() < self.extra_latency {
            return Some(FaultKind::ExtraLatency(SimDuration::from_millis(self.extra_latency_ms)));
        }
        None
    }
}

/// One injected fault, as drawn from [`FaultRates::sample`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The request is lost; the client will time out waiting.
    Drop,
    /// The connection resets after the given span.
    Reset(SimDuration),
    /// The origin answers with this 5xx status and an error page body.
    Http5xx(u16),
    /// The response body is cut short.
    Truncate,
    /// This much latency is added on top of the model's sample.
    ExtraLatency(SimDuration),
}

/// A seeded, declarative assignment of [`FaultRates`] to traffic.
///
/// Precedence per request: a per-host override wins, then the hidden-class
/// override (for requests carrying `X-Requested-With`), then the default.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    default: FaultRates,
    hidden: Option<FaultRates>,
    per_host: HashMap<String, FaultRates>,
}

impl FaultPlan {
    /// A plan with the given seed and no faults.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan { seed, default: FaultRates::NONE, hidden: None, per_host: HashMap::new() }
    }

    /// A plan faulting *all* traffic at a uniform total rate.
    pub fn uniform(seed: u64, rate: f64) -> FaultPlan {
        FaultPlan::new(seed).with_default(FaultRates::uniform(rate))
    }

    /// Sets the default rates for all traffic.
    pub fn with_default(mut self, rates: FaultRates) -> FaultPlan {
        self.default = rates;
        self
    }

    /// Sets the rates for hidden (XHR-marked) requests.
    pub fn with_hidden(mut self, rates: FaultRates) -> FaultPlan {
        self.hidden = Some(rates);
        self
    }

    /// Overrides the rates for one host (wins over the class rates).
    pub fn with_host(mut self, host: impl Into<String>, rates: FaultRates) -> FaultPlan {
        self.per_host.insert(host.into().to_ascii_lowercase(), rates);
        self
    }

    /// The plan's seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The effective rates for a request to `host`, hidden-class or not.
    pub fn rates_for(&self, host: &str, hidden: bool) -> FaultRates {
        if let Some(rates) = self.per_host.get(host) {
            return *rates;
        }
        if hidden {
            if let Some(rates) = self.hidden {
                return rates;
            }
        }
        self.default
    }
}

/// Executes a [`FaultPlan`]: derives one deterministic fault decision per
/// request from the plan seed, the request identity, and a per-host
/// sequence number — so same-seed runs replay the exact same faults, and
/// the network's own latency RNG is never consulted.
pub struct FaultInjector {
    plan: FaultPlan,
    seq: Mutex<HashMap<String, u64>>,
}

impl FaultInjector {
    /// Wraps a plan for execution.
    pub fn new(plan: FaultPlan) -> FaultInjector {
        FaultInjector { plan, seq: Mutex::new(HashMap::new()) }
    }

    /// Draws the fault (if any) for the next request to `host`/`path`.
    /// Advances the host's sequence number, so retries of the same request
    /// re-roll their fate.
    pub fn sample(&self, host: &str, path: &str, hidden: bool) -> Option<FaultKind> {
        let seq = {
            let mut map = self.seq.lock();
            let counter = map.entry(host.to_string()).or_insert(0);
            *counter += 1;
            *counter
        };
        let rates = self.plan.rates_for(host, hidden);
        let mut rng = StdRng::seed_from_u64(fault_key(self.plan.seed, host, path, hidden, seq));
        rates.sample(&mut rng)
    }
}

impl fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("FaultInjector").field("plan", &self.plan).finish()
    }
}

/// FNV-1a over the request identity, mixed with the plan seed — the same
/// construction `cp-serve`'s embedded world uses for render noise.
fn fault_key(seed: u64, host: &str, path: &str, hidden: bool, seq: u64) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ seed.rotate_left(17);
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01B3);
        }
    };
    eat(host.as_bytes());
    eat(&[0xFF, hidden as u8]);
    eat(path.as_bytes());
    eat(&seq.to_le_bytes());
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_faults() {
        let mut rng = StdRng::seed_from_u64(1);
        for _ in 0..100 {
            assert_eq!(FaultRates::NONE.sample(&mut rng), None);
        }
    }

    #[test]
    fn uniform_rate_splits_and_fires() {
        let rates = FaultRates::uniform(1.0);
        let mut rng = StdRng::seed_from_u64(2);
        let mut kinds = std::collections::HashSet::new();
        for _ in 0..500 {
            let Some(kind) = rates.sample(&mut rng) else { continue };
            match kind {
                FaultKind::Drop => kinds.insert("drop"),
                FaultKind::Reset(_) => kinds.insert("reset"),
                FaultKind::Http5xx(s) => {
                    assert!((500..=503).contains(&s));
                    kinds.insert("5xx")
                }
                FaultKind::Truncate => kinds.insert("truncate"),
                FaultKind::ExtraLatency(d) => {
                    assert!(d > SimDuration::ZERO);
                    kinds.insert("latency")
                }
            };
        }
        assert_eq!(kinds.len(), 5, "all five kinds occur: {kinds:?}");
    }

    #[test]
    fn plan_precedence_host_then_class_then_default() {
        let plan = FaultPlan::new(7)
            .with_default(FaultRates::uniform(0.1))
            .with_hidden(FaultRates::uniform(0.5))
            .with_host("slow.example", FaultRates::uniform(0.9));
        assert_eq!(plan.rates_for("slow.example", true), FaultRates::uniform(0.9));
        assert_eq!(plan.rates_for("a.example", true), FaultRates::uniform(0.5));
        assert_eq!(plan.rates_for("a.example", false), FaultRates::uniform(0.1));
    }

    #[test]
    fn injector_is_deterministic_per_seed() {
        let run = |seed: u64| {
            let inj = FaultInjector::new(FaultPlan::uniform(seed, 0.5));
            (0..50)
                .map(|i| inj.sample("a.example", &format!("/p/{}", i % 5), i % 2 == 0))
                .collect::<Vec<_>>()
        };
        assert_eq!(run(3), run(3));
        assert_ne!(run(3), run(4), "different seeds draw different fault schedules");
    }

    #[test]
    fn retries_reroll_their_fate() {
        // Same host+path sampled twice advances the sequence number, so a
        // faulted first attempt does not doom the retry.
        let inj = FaultInjector::new(FaultPlan::uniform(11, 0.5));
        let draws: Vec<_> = (0..64).map(|_| inj.sample("a.example", "/p", true)).collect();
        assert!(draws.iter().any(Option::is_some));
        assert!(draws.iter().any(Option::is_none));
    }
}
