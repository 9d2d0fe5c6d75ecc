//! The serving workloads: open-loop Poisson arrivals pushed through
//! `ServeEngine`, the same campaign repeated for the measuring window.
//!
//! * `serve_saturation`: 4× nominal capacity (the top of the E16 sweep),
//!   fault-free, lifecycle and cluster layers off. Admission, WFQ, the
//!   batcher and dispatch run at saturation while fault, lifecycle and
//!   membership code stays idle.
//! * `serve_chaos`: nominal load under a seeded crash/gray chaos plan
//!   plus network partitions, with retries, hedging, the limiter,
//!   brownout and cluster membership on. Fault handling, retry and
//!   hedge legs, fencing and gossip dominate.
//!
//! Set-up derives the campaign's inputs from the seed: the engine
//! configuration (from the SDK's `run_serve`), the fault plan and the
//! arrival trace. The engine re-synthesizes the same trace internally
//! from the configuration's seed; the harness's copy checks how many
//! requests were offered.
//! An operation is one offered request; a campaign that breaks
//! conservation or replays differently fails all of its requests.

use std::time::Instant;

use everest_runtime::{FaultKind, FaultPlan, FaultSpec};
use everest_sdk::{run_serve, ServeOptions};
use everest_serve::{ArrivalTrace, ServeConfig, ServeEngine, ServeOutcome};

use crate::stats::count_above;
use crate::{Check, Harness, Outcome};

/// Virtual horizon of one saturation campaign: long enough that fixed
/// costs stop dominating (about a million simulated events).
const SATURATION_HORIZON_MS: f64 = 20_000.0;
/// Virtual horizon of one chaos campaign: 200 fault windows, enough
/// that the latency median no longer swings with where the seed's
/// faults and partitions land.
const CHAOS_HORIZON_MS: f64 = 40_000.0;
/// Chaos plans are tiled from E17-sized windows so that fault density
/// does not depend on the horizon.
const CHAOS_WINDOW_US: f64 = 200_000.0;
/// Crash-plan faults drawn per window. At six (E17's `--chaos 6`)
/// some seeds tip the AIMD limiter into a batch-of-one collapse for
/// part of the run, and the latency median swings between seeds.
const CHAOS_FAULTS_PER_WINDOW: usize = 4;
/// Windows between partition/heal cycles.
const PARTITION_EVERY: usize = 5;
/// The committed E16 campaign (`BENCH_e16.json`) the anchor check
/// replays.
const E16_RECORD: &str = "BENCH_e16.json";

/// Which serving workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 4× nominal load, fault-free, opt-in layers off.
    Saturation,
    /// Nominal load, crash/gray/partition chaos, every opt-in layer on.
    Chaos,
}

impl Workload {
    fn options(self, seed: u64) -> ServeOptions {
        match self {
            Workload::Saturation => ServeOptions {
                seed,
                load: 4.0,
                horizon_ms: SATURATION_HORIZON_MS,
                ..ServeOptions::default()
            },
            Workload::Chaos => ServeOptions {
                seed,
                load: 1.0,
                horizon_ms: CHAOS_HORIZON_MS,
                retries: true,
                hedge: true,
                limiter: true,
                brownout: true,
                // Any partition count turns the membership layer on;
                // the plan itself comes from `chaos_plan`.
                partition: 1,
                ..ServeOptions::default()
            },
        }
    }
}

/// The engine configuration a set of options implies, taken from the
/// SDK: `run_serve` derives it and runs a 1 ms campaign with it, and
/// the horizon is then widened to the workload's.
fn sdk_config(options: &ServeOptions) -> ServeConfig {
    let mut config = run_serve(&ServeOptions {
        horizon_ms: 1.0,
        ..*options
    })
    .config;
    config.horizon_us = options.horizon_ms * 1_000.0;
    config
}

/// The chaos plan, tiled from E17-sized windows so that fault density
/// does not depend on the horizon: every window draws a crash-plan
/// campaign (`FaultPlan::random_campaign`: kernel errors, DMA timeouts,
/// ECC errors and gray link degradations), and every few windows add a
/// partition/heal cycle that cuts a strict minority. Faults that never
/// heal in the engine (node crash, VF unplug) are left out: tiled over
/// a long horizon they pile up until no node serves.
fn chaos_plan(seed: u64, nodes: usize, horizon_us: f64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    let windows = (horizon_us / CHAOS_WINDOW_US).floor() as usize;
    for window in 0..windows {
        let base = window as f64 * CHAOS_WINDOW_US;
        let sub = seed
            .wrapping_mul(0x9E37_79B9_7F4A_7C15)
            .wrapping_add(window as u64);
        let mut drawn =
            FaultPlan::random_campaign(sub, nodes, CHAOS_WINDOW_US, CHAOS_FAULTS_PER_WINDOW)
                .faults()
                .to_vec();
        if window % PARTITION_EVERY == PARTITION_EVERY / 2 {
            drawn.extend_from_slice(
                FaultPlan::random_partition_campaign(sub, nodes, CHAOS_WINDOW_US, 1).faults(),
            );
        }
        for fault in drawn {
            if !matches!(
                fault.kind,
                FaultKind::NodeCrash | FaultKind::VfUnplug { .. }
            ) {
                plan.push(FaultSpec::new(base + fault.at_us, fault.node, fault.kind));
            }
        }
    }
    plan
}

/// A campaign's inputs.
#[derive(Debug)]
struct Campaign {
    config: ServeConfig,
    plan: FaultPlan,
    /// Requests in the arrival trace the configuration implies.
    offered: u64,
}

/// Derives the campaign's inputs. Returns them with the seconds
/// `ArrivalTrace::synthesize` took alone.
fn setup(workload: Workload, seed: u64) -> (Campaign, f64) {
    let options = workload.options(seed);
    let config = sdk_config(&options);
    let plan = match workload {
        Workload::Saturation => FaultPlan::new(seed),
        Workload::Chaos => chaos_plan(seed, config.nodes, config.horizon_us),
    };
    let start = Instant::now();
    let trace = ArrivalTrace::synthesize(
        config.seed,
        &config.tenants,
        &config.classes,
        config.horizon_us,
        config.offered_rps,
    );
    let synth_s = start.elapsed().as_secs_f64();
    let offered = trace.requests().len() as u64;
    (
        Campaign {
            config,
            plan,
            offered,
        },
        synth_s,
    )
}

/// Renders a campaign's `virtual` block the way `bench_record` writes
/// it into `BENCH_e16.json`.
fn e16_virtual_block(o: &ServeOutcome) -> String {
    format!(
        "\"virtual\": {{\"offered\": {}, \"admitted\": {}, \"completed\": {}, \
         \"shed_rate\": {:.4}, \"throughput_rps\": {:.1}, \
         \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"slo_violations\": {}}}",
        o.offered,
        o.admitted,
        o.completed,
        o.shed_rate(),
        o.throughput_rps(),
        o.latency_quantile(0.50).unwrap_or(0.0),
        o.latency_quantile(0.99).unwrap_or(0.0),
        o.slo_violations,
    )
}

/// Anchor: at the committed E16 shape the SDK's `run_serve` reproduces
/// the record's `virtual` block byte for byte.
fn anchor_check() -> Check {
    let report = run_serve(&ServeOptions {
        load: 4.0,
        ..ServeOptions::default()
    });
    let block = e16_virtual_block(&report.outcome);
    let recorded = std::fs::read_to_string(E16_RECORD);
    let anchored = recorded.as_ref().is_ok_and(|text| text.contains(&block));
    Check::new(
        "E16 anchor reproduces BENCH_e16.json virtual block",
        anchored,
        match recorded {
            Ok(_) if anchored => String::new(),
            Ok(_) => format!("got {block}"),
            Err(e) => format!("{E16_RECORD}: {e}"),
        },
    )
}

/// Per-pass summary: whether the outcome replayed the warm-up's.
#[derive(Debug)]
struct PassResult {
    replayed: bool,
}

/// Runs a serving workload.
pub fn run(harness: &Harness, workload: Workload, seed: u64) -> Result<Outcome, String> {
    let probe = harness.setup_probe();
    let mut synth_s = Vec::new();
    let mut reference: Option<ServeOutcome> = None;
    let measured = harness.measure(
        || {
            let (built, synth) = probe.layer("serve.setup", || setup(workload, seed));
            synth_s.push(synth);
            Ok(built)
        },
        |campaign, probe| {
            let outcome = probe.layer("serve.engine", || {
                ServeEngine::new(campaign.config.clone())
                    .with_plan(campaign.plan.clone())
                    .with_registry(everest_telemetry::global())
                    .run()
            });
            match &reference {
                Some(first) => PassResult {
                    replayed: *first == outcome,
                },
                None => {
                    reference = Some(outcome);
                    PassResult { replayed: true }
                }
            }
        },
    )?;
    let o = reference.expect("the warm-up pass ran");
    let (campaign, passes) = (&measured.setup, &measured.passes);

    let mut outcome = Outcome::default();
    let campaigns = passes.len() as u64 + 1;
    let replays = passes.iter().filter(|p| p.result.replayed).count() as u64;
    let broken = !o.conserved() || o.offered != campaign.offered;
    outcome.attempted = campaigns * o.offered;
    outcome.failed = if broken {
        outcome.attempted
    } else {
        (campaigns - 1 - replays) * o.offered
    };
    outcome
        .checks
        .push(Check::new("serve outcome conserved()", o.conserved(), ""));
    outcome.checks.push(Check::new(
        "offered = synthesized arrival trace",
        o.offered == campaign.offered,
        format!("{} offered, {} in trace", o.offered, campaign.offered),
    ));
    outcome.checks.push(Check::new(
        "serve outcome identical across repeats of the seed",
        replays == passes.len() as u64,
        format!("{replays}/{} repeats", passes.len()),
    ));
    outcome.checks.push(anchor_check());
    let spans_steady = passes.iter().all(|p| p.sdk_spans == passes[0].sdk_spans);
    outcome.checks.push(Check::new(
        "telemetry reset keeps per-pass span count steady",
        spans_steady,
        format!("{} spans per pass", passes[0].sdk_spans),
    ));

    let p999 = o.latency_quantile(0.999).unwrap_or(0.0);
    let above = count_above(&o.latencies_us, p999);
    outcome.checks.push(Check::new(
        "p99.9 has at least ten samples above it",
        above >= 10,
        format!("{} completions, {above} above p99.9", o.latencies_us.len()),
    ));
    let engine_s = crate::fast_seconds(passes, false);
    let events = o.offered + 2 * o.batches.len() as u64;
    outcome.notes.push(format!(
        "campaign: {} offered, {} completed, {} simulated events, {} passes, {:.0} events/s in the fastest",
        o.offered,
        o.completed,
        events,
        passes.len(),
        events as f64 / engine_s
    ));

    outcome
        .notes
        .push(format!("set-up: {} repetitions", synth_s.len()));
    outcome
        .notes
        .push(measured.pace_note(&[("setup_s", measured.setup_s), ("flow_s", engine_s)]));
    let m = &mut outcome.metrics;
    m.insert("setup_s", measured.at_reference_pace(measured.setup_s));
    m.insert("peak_rss_mb", measured.peak_rss_mib);
    m.insert("flow_s", measured.at_reference_pace(engine_s));
    m.insert(
        "latency_p50_ms",
        o.latency_quantile(0.5).unwrap_or(0.0) / 1e3,
    );
    m.insert("latency_tail_ms", p999 / 1e3);
    m.insert("goodput_per_s", o.throughput_rps());
    m.insert(
        "slo_attainment",
        o.completed.saturating_sub(o.slo_violations) as f64 / o.offered.max(1) as f64,
    );

    m.insert("serve.synthesize_s", crate::fast_median(&synth_s));
    m.insert("serve.sim_requests_per_s", o.offered as f64 / engine_s);
    m.insert("serve.events", events as f64);
    m.insert("serve.shed_rate_limited", o.shed_rate_limited as f64);
    m.insert("serve.shed_queue_full", o.shed_queue_full as f64);
    m.insert("serve.shed_overloaded", o.shed_overloaded as f64);
    m.insert("serve.shed_brownout", o.shed_brownout as f64);
    m.insert("serve.shed_partitioned", o.shed_partitioned as f64);
    m.insert("serve.shed_deadline", o.shed_deadline as f64);
    m.insert("serve.batches", o.batches.len() as f64);
    m.insert(
        "serve.mean_batch",
        if o.batches.is_empty() {
            0.0
        } else {
            o.batches.iter().map(|b| b.size).sum::<usize>() as f64 / o.batches.len() as f64
        },
    );
    m.insert("autotuner.retunes", o.retunes as f64);
    m.insert("serve.retries", o.retries as f64);
    m.insert("serve.hedges", o.hedges as f64);
    m.insert(
        "serve.hedge_win_ratio",
        if o.hedges == 0 {
            0.0
        } else {
            o.hedge_wins as f64 / o.hedges as f64
        },
    );
    m.insert("health.breaker_opens", o.breaker_opens as f64);
    m.insert("serve.probes", o.probes as f64);
    m.insert("cluster.gossip_rounds", o.gossip_rounds as f64);
    m.insert("cluster.failovers", o.failovers as f64);
    m.insert("cluster.fenced_batches", o.fenced_batches as f64);
    m.insert("telemetry.spans", passes[0].sdk_spans as f64);
    crate::insert_overhead(m, passes);
    Ok(outcome)
}
