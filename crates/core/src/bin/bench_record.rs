//! `bench-record`: runs a serving campaign and records the perf
//! baseline as JSON. Two targets:
//!
//! * `--bench e16` (default) — the E16 saturation campaign (4x
//!   nominal load), the events/sec figure the ROADMAP perf trajectory
//!   tracks;
//! * `--bench e17` — the E17 lifecycle campaign (nominal load, 6
//!   chaos faults, retries + hedging on) next to its features-off
//!   baseline, recording the goodput delta the lifecycle layer buys
//!   under chaos;
//! * `--bench e19` — the E19 analytic-query suite: one query per
//!   use-case dataset, recording scanned rows/sec of host wall clock
//!   and the schedule-cycle speedup the optimizer's rewrite rules buy
//!   (unoptimized / optimized total kernel cycles).
//!
//! Usage:
//!
//! ```text
//! bench_record [--bench e16|e17|e19] [--date YYYY-MM-DD] [--out FILE]
//!              [--smoke]
//!              [--baseline FILE] [--max-regression FACTOR]
//! ```
//!
//! The recorded metrics split into two groups:
//!
//! * **virtual** — offered/completed counts, shed rate, latency
//!   quantiles on the simulated clock. These are seed-derived and
//!   byte-stable across machines; a change means the serving engine's
//!   behaviour changed.
//! * **wall** — simulated events per second of host wall-clock time
//!   (fastest of several repeats spread over a few seconds; wall noise
//!   is strictly additive, so min-time is the robust estimator). This
//!   is the machine-dependent perf figure the ROADMAP item-3
//!   trajectory tracks.
//!
//! When the output file already holds a previous record, its `date`
//! and `events_per_sec` are appended to a `history` array in the new
//! record, so the committed file carries the perf trajectory alongside
//! the current figure.
//!
//! `--smoke` shortens the campaign horizon and the repeat count for CI:
//! the virtual block then differs from the committed full-horizon
//! baseline (fewer simulated requests), but the wall events/sec rate is
//! comparable. `--baseline FILE` compares the measured rate against the
//! `wall.events_per_sec` of another record and fails the run when it is
//! more than `--max-regression` times slower (default 2.0) — the CI
//! guard against large silent regressions.
//!
//! The date is passed in by `scripts/bench_record.sh` (from `date -I`)
//! rather than read from the system clock here, so the JSON layout
//! itself stays a pure function of arguments.

use std::process::ExitCode;
use std::time::Instant;

use everest_sdk::everest_query::datasets::Dataset;
use everest_sdk::everest_query::optimizer::Optimizer;
use everest_sdk::everest_query::plan::LogicalPlan;
use everest_sdk::everest_query::Catalog;
use everest_sdk::query::{run_query, QueryOptions};
use everest_sdk::serve::{run_serve, ServeOptions};
use serde::Value;

/// Saturation campaign: 4x nominal capacity, the top of the E16 sweep.
fn saturation_options() -> ServeOptions {
    ServeOptions {
        load: 4.0,
        ..ServeOptions::default()
    }
}

/// Lifecycle campaign: nominal load with a 6-fault chaos plan, retry
/// budgets and hedged dispatch on. Recorded next to the same campaign
/// with the lifecycle features off, so the record carries the goodput
/// delta the layer buys under chaos.
fn lifecycle_options() -> ServeOptions {
    ServeOptions {
        chaos: 6,
        retries: true,
        hedge: true,
        ..ServeOptions::default()
    }
}

/// The E19 query suite: one analytic query per use-case dataset, all
/// exercising the rewrite rules (foldable predicates, pushdowns,
/// prunable columns; the traffic query adds an asymmetric join).
const E19_SEED: u64 = 42;
const E19_SUITE: &[(&str, &str)] = &[
    (
        "traffic",
        "SELECT t.traj_id, sum(s.length_m) AS dist FROM traj_segments t \
         JOIN segments s ON t.seg_id = s.seg_id WHERE s.length_m > 1 + 1 \
         GROUP BY t.traj_id ORDER BY dist DESC LIMIT 5",
    ),
    (
        "airquality",
        "SELECT day, max(prob), avg(peak) FROM air_quality \
         WHERE prob >= 0.0 AND true GROUP BY day ORDER BY day",
    ),
    (
        "energy",
        "SELECT count(*), avg(power_mw) FROM wind_power \
         WHERE wind_ms > 2 + 2 AND availability > 0.5",
    ),
];

/// Rows the executor reads for one run of a plan: the sum of base-table
/// sizes under every `Scan` — the denominator-side "events" of the E19
/// rows/sec figure.
fn scanned_rows(plan: &LogicalPlan, catalog: &Catalog) -> u64 {
    let own = match plan {
        LogicalPlan::Scan { table, .. } => catalog.get(table).map_or(0, |t| t.rows.len() as u64),
        _ => 0,
    };
    own + plan
        .children()
        .iter()
        .map(|c| scanned_rows(c, catalog))
        .sum::<u64>()
}

/// The E19 record: deterministic plan/lowering facts (including the
/// optimizer's cycle speedup) plus the wall-clock rows/sec of the
/// whole suite. Returns the record body (up to and excluding the
/// `history` field) and the measured rate for the baseline check.
fn run_e19(date: &str, smoke: bool) -> Result<(String, f64), String> {
    let mut rows_out = 0u64;
    let mut kernels = 0u64;
    let mut cycles_optimized = 0u64;
    let mut cycles_unoptimized = 0u64;
    let mut analysis_findings = 0u64;
    for (dataset, sql) in E19_SUITE {
        let mut options = QueryOptions {
            seed: E19_SEED,
            dataset: (*dataset).to_string(),
            sql: (*sql).to_string(),
            optimize: true,
        };
        let on = run_query(&options).map_err(|e| format!("{dataset}: {e}"))?;
        options.optimize = false;
        let off = run_query(&options).map_err(|e| format!("{dataset} (unoptimized): {e}"))?;
        if on.batch != off.batch {
            return Err(format!("{dataset}: optimization changed the result rows"));
        }
        rows_out += on.batch.rows.len() as u64;
        kernels += on.lowered.kernels.len() as u64;
        cycles_optimized += on.lowered.total_cycles();
        cycles_unoptimized += off.lowered.total_cycles();
        analysis_findings += on.analysis.diagnostics.len() as u64;
    }
    if cycles_optimized == 0 || cycles_unoptimized < cycles_optimized {
        return Err(format!(
            "optimizer must not inflate the schedule: {cycles_unoptimized} -> {cycles_optimized}"
        ));
    }
    let plan_speedup = cycles_unoptimized as f64 / cycles_optimized as f64;

    // Wall figure: plan + optimize + execute the whole suite against
    // prebuilt catalogs (dataset generation priced out), min-of-spread
    // repeats as for E16 — wall noise is additive, so the fastest
    // repeat is the estimate closest to the engine's true cost.
    let catalogs: Vec<(Catalog, &str)> = E19_SUITE
        .iter()
        .map(|(dataset, sql)| {
            let catalog = Dataset::from_name(dataset)
                .ok_or_else(|| format!("unknown dataset '{dataset}'"))?
                .catalog(E19_SEED)
                .map_err(|e| format!("{dataset}: {e}"))?;
            Ok((catalog, *sql))
        })
        .collect::<Result<_, String>>()?;
    let mut events = 0u64;
    for (catalog, sql) in &catalogs {
        let plan = everest_sdk::everest_query::plan_sql(catalog, sql)
            .map_err(|e| format!("{sql}: {e}"))?;
        events += scanned_rows(&Optimizer::for_catalog(catalog).optimize(&plan), catalog);
    }
    let (repeats, gap) = if smoke {
        (5, std::time::Duration::from_millis(50))
    } else {
        (25, std::time::Duration::from_millis(200))
    };
    let events_per_sec = (0..repeats)
        .map(|i| {
            if i > 0 {
                std::thread::sleep(gap);
            }
            let start = Instant::now();
            for (catalog, sql) in &catalogs {
                let plan =
                    everest_sdk::everest_query::plan_sql(catalog, sql).expect("suite query plans");
                let optimized = Optimizer::for_catalog(catalog).optimize(&plan);
                let batch = everest_sdk::everest_query::run(catalog, &optimized)
                    .expect("suite query executes");
                assert!(!batch.rows.is_empty(), "suite query yields rows");
            }
            let elapsed = start.elapsed().as_secs_f64();
            events as f64 / elapsed.max(1e-9)
        })
        .fold(0.0_f64, f64::max);

    let body = format!(
        "{{\n  \"bench\": \"e19_query\",\n  \"date\": \"{date}\",\n  \
         \"suite\": {{\"seed\": {E19_SEED}, \"queries\": {}, \"datasets\": {}}},\n  \
         \"virtual\": {{\"rows_out\": {rows_out}, \"kernels\": {kernels}, \
         \"cycles_optimized\": {cycles_optimized}, \
         \"cycles_unoptimized\": {cycles_unoptimized}, \
         \"plan_speedup\": {plan_speedup:.3}, \
         \"analysis_findings\": {analysis_findings}}},\n  \
         \"wall\": {{\"events\": {events}, \"events_per_sec\": {events_per_sec:.0}}},\n",
        E19_SUITE.len(),
        E19_SUITE.len(),
    );
    Ok((body, events_per_sec))
}

/// One `(date, events_per_sec)` point of the perf trajectory.
struct HistoryEntry {
    date: String,
    events_per_sec: f64,
}

/// Reads the `history` array plus the top-level record of a previous
/// BENCH file, returning the trajectory including that record itself.
/// A missing or unparsable file yields an empty trajectory (first run).
fn previous_history(path: &str) -> Vec<HistoryEntry> {
    let Ok(text) = std::fs::read_to_string(path) else {
        return Vec::new();
    };
    let Ok(doc) = serde_json::from_str::<Value>(&text) else {
        eprintln!("warning: {path} exists but is not valid JSON; starting history fresh");
        return Vec::new();
    };
    let entry_of = |v: &Value| -> Option<HistoryEntry> {
        let date = match v.get("date")? {
            Value::Str(s) => s.clone(),
            _ => return None,
        };
        let eps = match v
            .get("events_per_sec")
            .or_else(|| v.get("wall").and_then(|w| w.get("events_per_sec")))?
        {
            Value::Num(n) => *n,
            _ => return None,
        };
        Some(HistoryEntry {
            date,
            events_per_sec: eps,
        })
    };
    let mut history: Vec<HistoryEntry> = doc
        .get("history")
        .and_then(Value::as_array)
        .into_iter()
        .flatten()
        .filter_map(entry_of)
        .collect();
    history.extend(entry_of(&doc));
    history
}

/// Renders the `history` JSON array for a record replacing `path`:
/// the previous record's trajectory plus the record itself.
fn history_block_for(path: &str) -> String {
    let history = previous_history(path);
    if history.is_empty() {
        return "[]".to_string();
    }
    let entries = history
        .iter()
        .map(|h| {
            format!(
                "{{\"date\": \"{}\", \"events_per_sec\": {:.0}}}",
                h.date, h.events_per_sec
            )
        })
        .collect::<Vec<_>>()
        .join(",\n    ");
    format!("[\n    {entries}\n  ]")
}

/// Reads `wall.events_per_sec` from a baseline record.
fn baseline_rate(path: &str) -> Option<f64> {
    let text = std::fs::read_to_string(path).ok()?;
    let doc = serde_json::from_str::<Value>(&text).ok()?;
    match doc.get("wall")?.get("events_per_sec")? {
        Value::Num(n) => Some(*n),
        _ => None,
    }
}

/// Fails when `rate` is more than `max_regression`x below `base`.
fn check_baseline(rate: f64, unit: &str, base: f64, max_regression: f64) -> ExitCode {
    let ratio = base / rate.max(1e-9);
    if ratio > max_regression {
        eprintln!(
            "error: perf regression: {rate:.0} {unit} is {ratio:.2}x \
             slower than baseline {base:.0} (limit {max_regression:.1}x)"
        );
        return ExitCode::FAILURE;
    }
    println!(
        "baseline check ok: {rate:.0} vs {base:.0} {unit} \
         ({ratio:.2}x, limit {max_regression:.1}x)"
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Last occurrence wins, so callers can override the defaults
    // `scripts/bench_record.sh` prepends.
    let flag = |name: &str| -> Option<String> {
        args.iter()
            .rposition(|a| a == name)
            .and_then(|i| args.get(i + 1))
            .cloned()
    };
    let date = flag("--date").unwrap_or_else(|| "unknown".to_string());
    let bench = flag("--bench").unwrap_or_else(|| "e16".to_string());
    if bench != "e16" && bench != "e17" && bench != "e19" {
        eprintln!("error: --bench takes e16, e17 or e19, got {bench:?}");
        return ExitCode::FAILURE;
    }
    let out_path = flag("--out").unwrap_or_else(|| format!("BENCH_{bench}.json"));
    let smoke = args.iter().any(|a| a == "--smoke");
    // Read before the run writes anything: `--out` may name the
    // baseline file itself.
    let baseline = match flag("--baseline") {
        None => None,
        Some(path) => match baseline_rate(&path) {
            Some(base) => Some(base),
            None => {
                eprintln!("error: baseline {path} is missing wall.events_per_sec");
                return ExitCode::FAILURE;
            }
        },
    };
    let max_regression: f64 = match flag("--max-regression").map(|s| s.parse()) {
        None => 2.0,
        Some(Ok(f)) if f > 0.0 => f,
        Some(_) => {
            eprintln!("error: --max-regression takes a positive number");
            return ExitCode::FAILURE;
        }
    };

    if bench == "e19" {
        let smoke = args.iter().any(|a| a == "--smoke");
        let (body, rate) = match run_e19(&date, smoke) {
            Ok(r) => r,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        };
        let json = format!(
            "{body}  \"history\": {}\n}}\n",
            history_block_for(&out_path)
        );
        if let Err(e) = std::fs::write(&out_path, &json) {
            eprintln!("error: cannot write {out_path}: {e}");
            return ExitCode::FAILURE;
        }
        println!("{json}");
        println!("wrote {out_path}");
        return match baseline {
            Some(base) => check_baseline(rate, "rows/sec", base, max_regression),
            None => ExitCode::SUCCESS,
        };
    }

    // A full-horizon run takes ~1 ms, so back-to-back repeats span
    // only a few milliseconds of wall clock — narrow enough for one
    // scheduler stall or a host-contention phase to cover every
    // sample. The repeats are therefore spread out with short sleeps
    // so at least some land in steady state.
    let mut options = if bench == "e17" {
        lifecycle_options()
    } else {
        saturation_options()
    };
    let (repeats, gap) = if smoke {
        options.horizon_ms = 50.0;
        (5, std::time::Duration::from_millis(50))
    } else {
        (25, std::time::Duration::from_millis(200))
    };

    // Pin down the virtual outcome once (deterministic), then time the
    // spread repeats and keep the *fastest*. Wall-clock noise on this
    // workload is strictly additive — contention and stalls only ever
    // slow a run down — so the minimum time is the estimate closest to
    // the engine's true cost (the `timeit` min-time argument).
    let report = run_serve(&options);
    let outcome = &report.outcome;
    assert!(outcome.conserved(), "conservation violated in the campaign");
    // The E17 record carries the features-off baseline of the same
    // campaign: the goodput delta is the point of the experiment. The
    // improvement is asserted only at the full horizon — the smoke
    // variant scales the chaos plan down with the horizon, and the
    // delta drowns in scheduling noise there.
    let lifecycle_baseline = (bench == "e17").then(|| {
        let off = ServeOptions {
            retries: false,
            hedge: false,
            ..options
        };
        let base = run_serve(&off);
        assert!(
            base.outcome.conserved(),
            "conservation violated in the features-off baseline"
        );
        if !smoke {
            assert!(
                outcome.completed > base.outcome.completed,
                "lifecycle goodput must improve on the baseline ({} vs {})",
                outcome.completed,
                base.outcome.completed
            );
        }
        base
    });
    // Simulated events: every arrival, batch dispatch and completion
    // the engine pushed through its heap.
    let events = outcome.offered + 2 * outcome.batches.len() as u64;
    let events_per_sec = (0..repeats)
        .map(|i| {
            if i > 0 {
                std::thread::sleep(gap);
            }
            let start = Instant::now();
            let repeat = run_serve(&options);
            let elapsed = start.elapsed().as_secs_f64();
            assert_eq!(
                repeat.outcome.offered, outcome.offered,
                "saturation run must replay identically"
            );
            events as f64 / elapsed.max(1e-9)
        })
        .fold(0.0_f64, f64::max);

    // Carry the trajectory forward: the record being replaced becomes
    // the newest history entry. Smoke runs target a scratch file, so
    // the committed history only ever accumulates full-horizon points.
    let history_block = history_block_for(&out_path);

    let json = if let Some(base) = &lifecycle_baseline {
        format!(
            "{{\n  \"bench\": \"e17_lifecycle\",\n  \"date\": \"{date}\",\n  \
             \"campaign\": {{\"seed\": {}, \"nodes\": {}, \"tenants\": {}, \"load\": {:.1}, \
             \"horizon_ms\": {:.1}, \"chaos\": {}, \"retries\": {}, \"hedge\": {}}},\n  \
             \"virtual\": {{\"offered\": {}, \"completed\": {}, \"baseline_completed\": {}, \
             \"failed\": {}, \"baseline_failed\": {}, \"shed_rate\": {:.4}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"retries\": {}, \"retry_denied\": {}, \
             \"hedges\": {}, \"hedge_wins\": {}}},\n  \
             \"wall\": {{\"events\": {events}, \"events_per_sec\": {:.0}}},\n  \
             \"history\": {history_block}\n}}\n",
            options.seed,
            options.nodes,
            options.tenants,
            options.load,
            options.horizon_ms,
            options.chaos,
            options.retries,
            options.hedge,
            outcome.offered,
            outcome.completed,
            base.outcome.completed,
            outcome.failed,
            base.outcome.failed,
            outcome.shed_rate(),
            outcome.latency_quantile(0.50).unwrap_or(0.0),
            outcome.latency_quantile(0.99).unwrap_or(0.0),
            outcome.retries,
            outcome.retry_denied,
            outcome.hedges,
            outcome.hedge_wins,
            events_per_sec,
        )
    } else {
        format!(
            "{{\n  \"bench\": \"e16_serving\",\n  \"date\": \"{date}\",\n  \
             \"campaign\": {{\"seed\": {}, \"nodes\": {}, \"tenants\": {}, \"load\": {:.1}, \
             \"horizon_ms\": {:.1}}},\n  \
             \"virtual\": {{\"offered\": {}, \"admitted\": {}, \"completed\": {}, \
             \"shed_rate\": {:.4}, \"throughput_rps\": {:.1}, \
             \"p50_us\": {:.1}, \"p99_us\": {:.1}, \"slo_violations\": {}}},\n  \
             \"wall\": {{\"events\": {events}, \"events_per_sec\": {:.0}}},\n  \
             \"history\": {history_block}\n}}\n",
            options.seed,
            options.nodes,
            options.tenants,
            options.load,
            options.horizon_ms,
            outcome.offered,
            outcome.admitted,
            outcome.completed,
            outcome.shed_rate(),
            outcome.throughput_rps(),
            outcome.latency_quantile(0.50).unwrap_or(0.0),
            outcome.latency_quantile(0.99).unwrap_or(0.0),
            outcome.slo_violations,
            events_per_sec,
        )
    };
    if let Err(e) = std::fs::write(&out_path, &json) {
        eprintln!("error: cannot write {out_path}: {e}");
        return ExitCode::FAILURE;
    }
    println!("{json}");
    println!("wrote {out_path}");
    match baseline {
        Some(base) => check_baseline(events_per_sec, "events/sec", base, max_regression),
        None => ExitCode::SUCCESS,
    }
}
