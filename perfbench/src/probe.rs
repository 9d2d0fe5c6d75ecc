//! Layer timing for traced runs.
//!
//! A [`Probe`] wraps each call the harness makes into an SDK crate in a
//! span named after the layer (`ekl.frontend`, `hls.synthesize`, ...)
//! on the harness's own telemetry registry. An untraced probe runs the
//! call bare, so untraced passes carry no tracing cost at all. The spans
//! stay in memory until the run ends; [`LayerTable`] then turns them into
//! per-pass layer totals and a self-time table.

use std::collections::BTreeMap;
use std::sync::Arc;

use everest_telemetry::{Registry, SpanRecord};

/// Name of the root span around one measured pass.
pub const PASS_SPAN: &str = "pass";

/// Opens layer spans on a registry, or does nothing.
#[derive(Debug, Clone, Default)]
pub struct Probe {
    registry: Option<Arc<Registry>>,
}

impl Probe {
    /// A probe that records spans into `registry`.
    pub fn traced(registry: Arc<Registry>) -> Probe {
        Probe {
            registry: Some(registry),
        }
    }

    /// A probe that records nothing.
    pub fn off() -> Probe {
        Probe::default()
    }

    /// Runs `f` inside a span named `layer` (when tracing).
    pub fn layer<T>(&self, layer: &'static str, f: impl FnOnce() -> T) -> T {
        match &self.registry {
            Some(registry) => {
                let _span = registry.span(layer);
                f()
            }
            None => f(),
        }
    }
}

/// Per-layer time aggregated from a registry's spans.
#[derive(Debug, Default)]
pub struct LayerTable {
    /// Span name → total seconds inside each traced pass, one entry per
    /// pass (passes where the layer never ran contribute 0).
    pub per_pass: BTreeMap<String, Vec<f64>>,
    /// Span name → (calls, total seconds, self seconds) over the run.
    pub totals: BTreeMap<String, (u64, f64, f64)>,
    /// Number of traced passes.
    pub passes: usize,
}

impl LayerTable {
    /// Aggregates `spans` (creation order, as [`Registry::spans`]
    /// returns them). A layer's self time is its duration minus the part
    /// its direct child spans cover.
    pub fn from_spans(spans: &[SpanRecord]) -> LayerTable {
        let duration = |s: &SpanRecord| s.duration_us().unwrap_or(0.0) / 1e6;
        let mut child_s = vec![0.0f64; spans.len()];
        // Parents are created before their children, so one forward walk
        // resolves every span's enclosing pass.
        let mut pass_of: Vec<Option<usize>> = vec![None; spans.len()];
        let mut pass_index: BTreeMap<usize, usize> = BTreeMap::new();
        for (i, span) in spans.iter().enumerate() {
            match span.parent {
                Some(parent) => {
                    let parent = parent as usize;
                    child_s[parent] += duration(span);
                    pass_of[i] = pass_of[parent];
                }
                None if span.name == PASS_SPAN => {
                    let next = pass_index.len();
                    pass_index.insert(i, next);
                    pass_of[i] = Some(i);
                }
                None => {}
            }
        }
        let passes = pass_index.len();
        let mut table = LayerTable {
            passes,
            ..LayerTable::default()
        };
        for (i, span) in spans.iter().enumerate() {
            let total = table
                .totals
                .entry(span.name.clone())
                .or_insert((0, 0.0, 0.0));
            total.0 += 1;
            total.1 += duration(span);
            total.2 += duration(span) - child_s[i];
            if let Some(pass) = pass_of[i].and_then(|root| pass_index.get(&root)) {
                table
                    .per_pass
                    .entry(span.name.clone())
                    .or_insert_with(|| vec![0.0; passes])[*pass] += duration(span);
            }
        }
        table
    }

    /// Median over traced passes of the seconds spent in `layer`.
    pub fn median_s(&self, layer: &str) -> f64 {
        self.per_pass
            .get(layer)
            .map_or(0.0, |per_pass| crate::stats::median(per_pass))
    }

    /// The self-time table as text, heaviest self time first.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&String, &(u64, f64, f64))> = self.totals.iter().collect();
        rows.sort_by(|a, b| b.1 .2.total_cmp(&a.1 .2));
        let mut out = format!(
            "{:<20} {:>9} {:>12} {:>12} {:>12}\n",
            "layer", "calls", "total_ms", "self_ms", "self_ms/pass"
        );
        for (name, (calls, total, own)) in rows {
            out.push_str(&format!(
                "{:<20} {:>9} {:>12.3} {:>12.3} {:>12.3}\n",
                name,
                calls,
                total * 1e3,
                own * 1e3,
                own * 1e3 / self.passes.max(1) as f64
            ));
        }
        out
    }
}
