//! Request-lifecycle robustness: retry budgets, hedged dispatch,
//! adaptive concurrency, and brownout degradation tiers.
//!
//! The EVEREST runtime keeps meeting deadlines while nodes fail and
//! reconfigure; this module gives the *serve tier* the per-request
//! primitives that story needs (ExaWorks frames robustness as a
//! property of the whole stack, not one layer):
//!
//! * [`RetryBudget`] — a per-tenant token bucket spent by retries and
//!   refilled by *successes*, so retry storms self-limit: a tenant that
//!   stops completing work stops earning the right to retry. Backoff
//!   reuses [`everest_faults::RetryPolicy`] and draws jitter from the
//!   fault plan's dedicated substream
//!   ([`everest_faults::FaultPlan::jitter_rng`]), keeping serve-tier
//!   retries on the same replay-stable contract as the scheduler's.
//! * [`HedgeConfig`] + [`LatencyWindow`] — hedged dispatch for
//!   latency-critical classes: when a batch outlives the class's
//!   observed p95 service time, a duplicate is dispatched to a healthy
//!   node and the losing copy is cancelled.
//! * [`AimdLimiter`] — an adaptive concurrency limiter: additive
//!   increase while observed batch latency meets the class deadline,
//!   multiplicative decrease when it does not. It gates dispatch ahead
//!   of the circuit breakers and backs new arrivals off at the door
//!   with the typed [`crate::ShedReason::Overloaded`].
//! * [`BrownoutController`] — degradation tiers driven by
//!   `everest-health` state: as the fraction of unhealthy nodes grows
//!   the tier climbs, shrinking batch ceilings first, then disabling
//!   hedging, then shedding the lowest-weight tenants
//!   ([`crate::ShedReason::Brownout`]) — graceful steps instead of a
//!   cliff edge.
//!
//! Everything here is deterministic on the virtual clock: no wall
//! time, no ambient randomness, every threshold a pure function of
//! configuration and observed virtual-time history — which is what
//! lets `basecamp serve --hedge` replay byte-identically.

use everest_faults::RetryPolicy;

/// Retry knobs for fault-failed requests at the serve tier.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryConfig {
    /// Backoff schedule and per-request attempt cap (reused from the
    /// scheduler tier; jitter draws come from the fault plan's
    /// dedicated substream so replays stay byte-identical).
    pub policy: RetryPolicy,
    /// Token capacity of each tenant's [`RetryBudget`] (buckets start
    /// full, so a tenant can absorb one early fault burst).
    pub budget_cap: f64,
    /// Tokens earned back per completed request, up to the cap.
    pub refill_per_success: f64,
}

impl Default for RetryConfig {
    /// Default scheduler backoff, 32-token budgets, 0.25 tokens per
    /// success (a sustained fault wave needs four completions per
    /// retry to keep retrying).
    fn default() -> RetryConfig {
        RetryConfig {
            policy: RetryPolicy::default(),
            budget_cap: 32.0,
            refill_per_success: 0.25,
        }
    }
}

/// A per-tenant retry token bucket, refilled by successes rather than
/// by time: retries spend, completions earn. Under a fault storm the
/// bucket drains and stays drained until real work completes again —
/// exactly the self-limiting behaviour a retry storm needs.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryBudget {
    tokens: f64,
    cap: f64,
    refill_per_success: f64,
}

impl RetryBudget {
    /// A full bucket.
    pub fn new(config: &RetryConfig) -> RetryBudget {
        let cap = config.budget_cap.max(0.0);
        RetryBudget {
            tokens: cap,
            cap,
            refill_per_success: config.refill_per_success.max(0.0),
        }
    }

    /// Takes one token for a retry attempt; `false` means the budget
    /// is exhausted and the request must fail terminally.
    pub fn try_take(&mut self) -> bool {
        if self.tokens >= 1.0 {
            self.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Credits one completed request.
    pub fn on_success(&mut self) {
        self.tokens = (self.tokens + self.refill_per_success).min(self.cap);
    }

    /// Tokens currently available.
    pub fn available(&self) -> f64 {
        self.tokens
    }
}

/// Hedged-dispatch knobs for latency-critical classes
/// ([`crate::KernelClass::latency_critical`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HedgeConfig {
    /// Multiplier on the p95-derived delay before a duplicate is
    /// dispatched (1.0 hedges exactly at the observed p95).
    pub delay_factor: f64,
    /// Before [`HedgeConfig::min_samples`] service times have been
    /// observed for a class, the hedge delay falls back to the
    /// dispatcher's expected service time scaled by this factor.
    pub cold_start_factor: f64,
    /// Observed service times retained per class for the p95 estimate.
    pub window: usize,
    /// Observations required before the p95 estimate is trusted.
    pub min_samples: usize,
}

impl Default for HedgeConfig {
    /// Hedge at 1× the observed p95 (3× expected while cold), over a
    /// 64-sample window warmed by 8 observations.
    fn default() -> HedgeConfig {
        HedgeConfig {
            delay_factor: 1.0,
            cold_start_factor: 3.0,
            window: 64,
            min_samples: 8,
        }
    }
}

/// A bounded window of recent latency observations with deterministic
/// nearest-rank quantiles. The ring keeps insertion order; next to it a
/// copy stays sorted under `total_cmp`, updated by binary search on
/// every push (evicted value out, new value in), so a quantile is one
/// index and two replays of the same run always agree.
#[derive(Debug, Clone, PartialEq)]
pub struct LatencyWindow {
    ring: Vec<f64>,
    /// `ring`'s values ordered by `total_cmp`.
    sorted: Vec<f64>,
    cap: usize,
    next: usize,
}

impl LatencyWindow {
    /// An empty window holding at most `cap` observations.
    pub fn new(cap: usize) -> LatencyWindow {
        LatencyWindow {
            ring: Vec::with_capacity(cap.max(1)),
            sorted: Vec::with_capacity(cap.max(1)),
            cap: cap.max(1),
            next: 0,
        }
    }

    /// Records one observation, evicting the oldest past capacity.
    pub fn push(&mut self, value_us: f64) {
        if self.ring.len() < self.cap {
            self.ring.push(value_us);
        } else {
            let evicted = std::mem::replace(&mut self.ring[self.next], value_us);
            // Values equal under `total_cmp` are bit-identical, so any
            // match is the evicted one.
            let at = self
                .sorted
                .binary_search_by(|v| v.total_cmp(&evicted))
                .expect("the evicted value is held in the sorted copy");
            self.sorted.remove(at);
        }
        let at = self
            .sorted
            .partition_point(|v| v.total_cmp(&value_us).is_lt());
        self.sorted.insert(at, value_us);
        self.next = (self.next + 1) % self.cap;
    }

    /// Observations currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when nothing has been observed yet.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// Nearest-rank quantile of the window, `q` in `[0, 1]`; `None`
    /// while empty.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.sorted.is_empty() {
            return None;
        }
        let rank = (q.clamp(0.0, 1.0) * self.sorted.len() as f64).ceil() as usize;
        Some(self.sorted[rank.max(1).min(self.sorted.len()) - 1])
    }
}

/// Adaptive-concurrency knobs (AIMD on observed batch latency vs the
/// class deadline).
#[derive(Debug, Clone, PartialEq)]
pub struct LimiterConfig {
    /// Concurrency limit the run starts at.
    pub initial: usize,
    /// Ceiling the additive increase may reach.
    pub max_inflight: usize,
    /// Added to the limit after a batch that met its deadline target.
    pub increase: f64,
    /// Multiplied into the limit after a batch that missed it (the
    /// multiplicative-decrease half; clamped to a floor of one).
    pub decrease: f64,
    /// Fraction of the class deadline a batch's service latency must
    /// stay within to count as "good" (1.0 = the whole deadline).
    pub headroom: f64,
    /// Queued requests tolerated per concurrency slot before new
    /// arrivals are shed [`crate::ShedReason::Overloaded`] at the door.
    pub queue_per_slot: usize,
}

impl Default for LimiterConfig {
    /// Start at 8 in flight, grow +1 to 64, halve on a deadline miss,
    /// allow 16 queued requests per slot at the door.
    fn default() -> LimiterConfig {
        LimiterConfig {
            initial: 8,
            max_inflight: 64,
            increase: 1.0,
            decrease: 0.5,
            headroom: 1.0,
            queue_per_slot: 16,
        }
    }
}

/// The AIMD concurrency limiter: one scalar limit over concurrently
/// executing batches, raised additively while batches meet their
/// deadline target and cut multiplicatively when they miss.
#[derive(Debug, Clone, PartialEq)]
pub struct AimdLimiter {
    limit: f64,
    floor: usize,
    cfg: LimiterConfig,
}

impl AimdLimiter {
    /// A limiter at its configured initial limit.
    pub fn new(cfg: LimiterConfig) -> AimdLimiter {
        let initial = (cfg.initial.max(1) as f64).min(cfg.max_inflight.max(1) as f64);
        AimdLimiter {
            limit: initial,
            floor: 1,
            cfg,
        }
    }

    /// Raises the lower bound the multiplicative decrease can reach.
    /// The serving engine floors at one batch per node: the limiter
    /// exists to throttle queueing, never to idle hardware.
    #[must_use]
    pub fn with_floor(mut self, floor: usize) -> AimdLimiter {
        self.floor = floor.max(1);
        self
    }

    /// The current whole-batch concurrency limit (never below the
    /// floor).
    pub fn limit(&self) -> usize {
        (self.limit.floor() as usize).max(self.floor)
    }

    /// Arrivals are shed `Overloaded` at the door once the queue holds
    /// this many admitted-but-unserved requests.
    pub fn door_cap(&self) -> usize {
        self.limit().saturating_mul(self.cfg.queue_per_slot.max(1))
    }

    /// Feeds one completed batch's observed service latency against
    /// its class deadline. Returns `true` when the integer limit
    /// changed (so the caller can publish the gauge only on change).
    pub fn on_batch(&mut self, latency_us: f64, deadline_us: f64) -> bool {
        let before = self.limit();
        if latency_us <= deadline_us * self.cfg.headroom {
            self.limit = (self.limit + self.cfg.increase).min(self.cfg.max_inflight.max(1) as f64);
        } else {
            self.limit = (self.limit * self.cfg.decrease).max(1.0);
        }
        self.limit() != before
    }
}

/// Brownout-ladder knobs: which unhealthy-node fraction reaches which
/// tier, and how hard tiered operation shrinks the batch ceilings.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutConfig {
    /// Unhealthy fraction at which tier 1 (shrunk batch ceilings)
    /// engages.
    pub tier1_frac: f64,
    /// Unhealthy fraction at which tier 2 (hedging disabled) engages.
    pub tier2_frac: f64,
    /// Unhealthy fraction at which tier 3 (lowest-weight tenants shed)
    /// engages.
    pub tier3_frac: f64,
    /// Per-tier divisor applied to batch ceilings while tiered
    /// (ceiling = configured / divisor^tier, floored at one).
    pub batch_divisor: usize,
}

impl Default for BrownoutConfig {
    /// Tiers at 25 / 50 / 75 % unhealthy, halving ceilings per tier.
    fn default() -> BrownoutConfig {
        BrownoutConfig {
            tier1_frac: 0.25,
            tier2_frac: 0.5,
            tier3_frac: 0.75,
            batch_divisor: 2,
        }
    }
}

/// Tracks the current brownout tier from the cluster's health state.
/// Tier 0 is normal operation; tiers 1–3 progressively trade quality
/// for survival. The controller is memoryless in health (the tier is a
/// pure function of the current unhealthy fraction), so recovery walks
/// back down the same ladder it climbed.
#[derive(Debug, Clone, PartialEq)]
pub struct BrownoutController {
    cfg: BrownoutConfig,
    tier: u8,
}

impl BrownoutController {
    /// A controller at tier 0.
    pub fn new(cfg: BrownoutConfig) -> BrownoutController {
        BrownoutController { cfg, tier: 0 }
    }

    /// The tier the configured ladder assigns to `unhealthy` of
    /// `total` nodes.
    pub fn tier_for(&self, unhealthy: usize, total: usize) -> u8 {
        if total == 0 {
            return 0;
        }
        let frac = unhealthy as f64 / total as f64;
        if frac >= self.cfg.tier3_frac {
            3
        } else if frac >= self.cfg.tier2_frac {
            2
        } else if frac >= self.cfg.tier1_frac {
            1
        } else {
            0
        }
    }

    /// Re-evaluates the tier against the current health state.
    /// Returns `Some((from, to))` when the tier changed.
    pub fn observe(&mut self, unhealthy: usize, total: usize) -> Option<(u8, u8)> {
        let next = self.tier_for(unhealthy, total);
        if next == self.tier {
            return None;
        }
        let from = self.tier;
        self.tier = next;
        Some((from, next))
    }

    /// Current tier, 0–3.
    pub fn tier(&self) -> u8 {
        self.tier
    }

    /// Batch ceiling after the tier's shrink is applied to a chosen
    /// ceiling (tier 0 passes through).
    pub fn batch_ceiling(&self, chosen: usize) -> usize {
        let divisor = self
            .cfg
            .batch_divisor
            .max(1)
            .saturating_pow(u32::from(self.tier));
        (chosen / divisor.max(1)).max(1)
    }

    /// Whether hedged dispatch is still allowed at this tier.
    pub fn hedging_enabled(&self) -> bool {
        self.tier < 2
    }

    /// Whether lowest-weight tenants are shed at the door at this
    /// tier.
    pub fn shed_lowest_weight(&self) -> bool {
        self.tier >= 3
    }
}

/// The lifecycle feature set of a serving run. Every feature defaults
/// to off, so a [`crate::ServeConfig`] without lifecycle knobs behaves
/// exactly as before this layer existed (and replays byte-identically
/// against old traces).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LifecycleConfig {
    /// Retry fault-failed requests under per-tenant budgets instead of
    /// failing them terminally.
    pub retry: Option<RetryConfig>,
    /// Hedge latency-critical batches after the observed p95.
    pub hedge: Option<HedgeConfig>,
    /// Gate dispatch behind an AIMD concurrency limit.
    pub limiter: Option<LimiterConfig>,
    /// Degrade through brownout tiers on health verdicts.
    pub brownout: Option<BrownoutConfig>,
}

impl LifecycleConfig {
    /// Every lifecycle feature enabled at its default tuning.
    pub fn all_on() -> LifecycleConfig {
        LifecycleConfig {
            retry: Some(RetryConfig::default()),
            hedge: Some(HedgeConfig::default()),
            limiter: Some(LimiterConfig::default()),
            brownout: Some(BrownoutConfig::default()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn retry_budget_spends_and_earns() {
        let cfg = RetryConfig {
            budget_cap: 2.0,
            refill_per_success: 0.5,
            ..RetryConfig::default()
        };
        let mut budget = RetryBudget::new(&cfg);
        assert!(budget.try_take());
        assert!(budget.try_take());
        assert!(!budget.try_take(), "cap of two is spent");
        budget.on_success();
        assert!(!budget.try_take(), "half a token is not a retry");
        budget.on_success();
        assert!(budget.try_take(), "two successes earn one retry");
        for _ in 0..100 {
            budget.on_success();
        }
        assert!(budget.available() <= 2.0, "refill never exceeds the cap");
    }

    #[test]
    fn latency_window_evicts_oldest_and_ranks() {
        let mut w = LatencyWindow::new(4);
        assert!(w.is_empty());
        assert_eq!(w.quantile(0.95), None);
        for v in [10.0, 20.0, 30.0, 40.0] {
            w.push(v);
        }
        assert_eq!(w.quantile(1.0), Some(40.0));
        assert_eq!(w.quantile(0.5), Some(20.0));
        // Pushing past capacity evicts the oldest observation (10.0).
        w.push(50.0);
        assert_eq!(w.len(), 4);
        assert_eq!(w.quantile(0.25), Some(20.0));
        assert_eq!(w.quantile(1.0), Some(50.0));
    }

    /// Reference quantile: sort a clone of the held values.
    fn reference_quantile(values: &[f64], q: f64) -> Option<f64> {
        if values.is_empty() {
            return None;
        }
        let mut sorted = values.to_vec();
        sorted.sort_by(|a, b| a.total_cmp(b));
        let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
        Some(sorted[rank.max(1).min(sorted.len()) - 1])
    }

    /// Values drawn from a small palette of signed zeros, repeats and
    /// extremes, or from a coarse grid so duplicates are common.
    fn window_value(pick: u32, raw: u32) -> f64 {
        const PALETTE: [f64; 8] = [0.0, -0.0, 0.0, -0.0, 250.0, 250.0, f64::MAX, 1e-300];
        match PALETTE.get(pick as usize) {
            Some(&v) => v,
            None => f64::from(raw % 400) * 0.5 - 50.0,
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(256))]

        /// Bit-identical to clone-and-sort after every push, for
        /// windows that fill, evict past `cap` and hold ties.
        #[test]
        fn latency_window_matches_clone_and_sort(
            cap in 1usize..24,
            pushes in proptest::collection::vec((0u32..16, proptest::prelude::any::<u32>()), 0..120),
        ) {
            let mut window = LatencyWindow::new(cap);
            let mut history: Vec<f64> = Vec::new();
            for (pick, raw) in pushes {
                let value = window_value(pick, raw);
                window.push(value);
                history.push(value);
                let held = &history[history.len().saturating_sub(cap)..];
                proptest::prop_assert_eq!(window.len(), held.len());
                for q in [0.0, 0.5, 0.95, 1.0] {
                    let got = window.quantile(q).map(f64::to_bits);
                    let want = reference_quantile(held, q).map(f64::to_bits);
                    proptest::prop_assert_eq!(got, want, "q {} over {:?}", q, held);
                }
            }
        }
    }

    #[test]
    fn aimd_limiter_grows_additively_and_cuts_multiplicatively() {
        let mut lim = AimdLimiter::new(LimiterConfig {
            initial: 4,
            max_inflight: 8,
            ..LimiterConfig::default()
        });
        assert_eq!(lim.limit(), 4);
        for _ in 0..10 {
            lim.on_batch(100.0, 1_000.0);
        }
        assert_eq!(lim.limit(), 8, "additive increase caps at max_inflight");
        assert!(lim.on_batch(2_000.0, 1_000.0));
        assert_eq!(lim.limit(), 4, "one miss halves the limit");
        for _ in 0..10 {
            lim.on_batch(2_000.0, 1_000.0);
        }
        assert_eq!(lim.limit(), 1, "the floor is one, never zero");
        assert_eq!(lim.door_cap(), LimiterConfig::default().queue_per_slot);
    }

    #[test]
    fn brownout_ladder_climbs_and_recovers() {
        let mut b = BrownoutController::new(BrownoutConfig::default());
        assert_eq!(b.tier(), 0);
        assert!(b.hedging_enabled());
        assert_eq!(b.observe(0, 4), None);
        assert_eq!(b.observe(1, 4), Some((0, 1)));
        assert_eq!(b.batch_ceiling(8), 4, "tier 1 halves the ceiling");
        assert!(b.hedging_enabled());
        assert_eq!(b.observe(2, 4), Some((1, 2)));
        assert!(!b.hedging_enabled(), "tier 2 disables hedging");
        assert!(!b.shed_lowest_weight());
        assert_eq!(b.observe(3, 4), Some((2, 3)));
        assert!(b.shed_lowest_weight(), "tier 3 sheds lowest weights");
        assert_eq!(b.batch_ceiling(8), 1);
        // Recovery walks the same ladder back down.
        assert_eq!(b.observe(0, 4), Some((3, 0)));
        assert_eq!(b.batch_ceiling(8), 8);
    }

    #[test]
    fn lifecycle_defaults_are_off() {
        let cfg = LifecycleConfig::default();
        assert!(cfg.retry.is_none());
        assert!(cfg.hedge.is_none());
        assert!(cfg.limiter.is_none());
        assert!(cfg.brownout.is_none());
        let on = LifecycleConfig::all_on();
        assert!(on.retry.is_some() && on.hedge.is_some());
        assert!(on.limiter.is_some() && on.brownout.is_some());
    }
}
