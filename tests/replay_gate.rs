//! Local mirror of the CI replay jobs: the seeded chaos, heal and serve
//! campaigns must reproduce their checked-in replay traces exactly.
//!
//! CI diffs `basecamp chaos|heal|serve ... --trace` against the golden
//! files byte-for-byte; this test rebuilds the same traces through the
//! library API, with the options the CI flags select, so a drifted
//! scheduler or serving engine is caught by `cargo test` before the
//! workflow ever runs. The CLI writes each trace followed by one
//! newline, and so do the goldens.

use everest_sdk::chaos::{run_chaos, ChaosOptions};
use everest_sdk::heal::{run_heal, HealOptions};
use everest_sdk::serve::{run_serve, ServeOptions};

/// `(seed, chaos golden, heal golden)` for the CI replay matrix.
const CAMPAIGN_GOLDENS: [(u64, &str, &str); 3] = [
    (
        7,
        include_str!("../ci/chaos_golden_7.json"),
        include_str!("../ci/heal_golden_7.json"),
    ),
    (
        42,
        include_str!("../ci/chaos_golden_42.json"),
        include_str!("../ci/heal_golden_42.json"),
    ),
    (
        1234,
        include_str!("../ci/chaos_golden_1234.json"),
        include_str!("../ci/heal_golden_1234.json"),
    ),
];
const SERVE_HEDGE_GOLDEN: &str = include_str!("../ci/serve_hedge_golden.json");
/// `(seed, golden)` for the partition replay matrix; seed 42's golden
/// predates the others and keeps its unsuffixed name.
const PARTITION_GOLDENS: [(u64, &str, &str); 3] = [
    (
        7,
        "ci/serve_partition_golden_7.json",
        include_str!("../ci/serve_partition_golden_7.json"),
    ),
    (
        42,
        "ci/serve_partition_golden.json",
        include_str!("../ci/serve_partition_golden.json"),
    ),
    (
        1234,
        "ci/serve_partition_golden_1234.json",
        include_str!("../ci/serve_partition_golden_1234.json"),
    ),
];

/// What `--trace <file>` writes.
fn as_written(trace: String) -> String {
    trace + "\n"
}

/// `basecamp chaos --seed N --trace`.
#[test]
fn chaos_campaigns_match_their_goldens() {
    for (seed, golden, _) in CAMPAIGN_GOLDENS {
        let report = run_chaos(&ChaosOptions {
            seed,
            ..ChaosOptions::default()
        });
        assert!(
            as_written(report.trace_json()) == golden,
            "ci/chaos_golden_{seed}.json drifted"
        );
    }
}

/// Seed 7 strands outputs on its crashed node, so its golden pins the
/// lineage-recovery path, not only the retry paths.
#[test]
fn chaos_seed_7_exercises_lineage_recovery() {
    let report = run_chaos(&ChaosOptions {
        seed: 7,
        ..ChaosOptions::default()
    });
    assert_eq!(report.result.recovered_tasks, 2);
}

/// `basecamp heal --seed N --trace`.
#[test]
fn heal_campaigns_match_their_goldens() {
    for (seed, _, golden) in CAMPAIGN_GOLDENS {
        let report = run_heal(&HealOptions {
            seed,
            ..HealOptions::default()
        });
        assert!(
            as_written(report.trace_json()) == golden,
            "ci/heal_golden_{seed}.json drifted"
        );
        assert_eq!(report.resume_matched, Some(true), "seed {seed}");
    }
}

/// `basecamp serve --seed 42 --chaos 4 --hedge --trace`.
#[test]
fn hedged_serve_campaign_matches_its_golden() {
    let report = run_serve(&ServeOptions {
        seed: 42,
        chaos: 4,
        hedge: true,
        ..ServeOptions::default()
    });
    assert!(
        as_written(report.trace_json()) == SERVE_HEDGE_GOLDEN,
        "ci/serve_hedge_golden.json drifted"
    );
}

/// `basecamp serve --seed N --chaos 4 --partition-plan 3 --retries
/// --hedge --limiter --brownout --trace`.
#[test]
fn partition_serve_campaign_matches_its_golden() {
    for (seed, path, golden) in PARTITION_GOLDENS {
        let report = run_serve(&ServeOptions {
            seed,
            chaos: 4,
            partition: 3,
            retries: true,
            hedge: true,
            limiter: true,
            brownout: true,
            ..ServeOptions::default()
        });
        assert!(as_written(report.trace_json()) == golden, "{path} drifted");
    }
}
