//! Summary statistics, metric lists and the result line.

use std::fmt::Write as _;

/// The end-to-end metrics, printed by every untraced run
/// (`--trace 0`): name and unit, as in `BENCHMARK.json`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("run_s", "s"),
    ("peak_rss_mb", "MB"),
    ("success_ratio", "ratio"),
];

/// The per-layer metrics, printed by every traced run (`--trace 1`).
/// A layer a workload does not exercise reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.ns_per_event", "ns"),
    ("sim.dispatch_ns", "ns"),
    ("trace.records", "count"),
    ("trace.overhead_pct", "%"),
    ("router.forwarded", "count"),
    ("flowcache.hit_ratio", "ratio"),
    ("flowcache.invalidated", "count"),
    ("of.lookup_ns", "ns"),
    ("ctl.flow_mods", "count"),
    ("trie.lookup_ns", "ns"),
    ("trie.insert_ns", "ns"),
    ("fib.ops_applied", "count"),
    ("fib.apply_batches", "count"),
    ("bgp.decode_ns", "ns"),
    ("bgp.encode_ns", "ns"),
    ("bgp.updates_in", "count"),
    ("bgp.updates_out", "count"),
    ("rib.update_ns", "ns"),
    ("router.updates_processed", "count"),
    ("ctl.update_p50_us", "us"),
    ("ctl.update_p99_us", "us"),
    ("ctl.update_max_us", "us"),
    ("ctl.routes_learned", "count"),
    ("ctl.announcements", "count"),
    ("bfd.packets_sent", "count"),
    ("phase.sc.detect_ms", "ms"),
    ("phase.sc.notify_ms", "ms"),
    ("phase.sc.program_ms", "ms"),
    ("phase.sc.fib_ms", "ms"),
    ("phase.legacy.detect_ms", "ms"),
    ("phase.legacy.notify_ms", "ms"),
    ("phase.legacy.program_ms", "ms"),
    ("phase.legacy.fib_ms", "ms"),
    ("sc_conv_p50_ms", "ms"),
    ("sc_conv_max_ms", "ms"),
    ("legacy_conv_p50_ms", "ms"),
    ("legacy_conv_max_ms", "ms"),
    ("table_ready_s", "s"),
    ("mrt.load_ms", "ms"),
    ("mrt.compile_ms", "ms"),
    ("routegen.feed_ms", "ms"),
    ("inv.samples", "count"),
    ("inv.walk_us", "us"),
    ("alloc.setup_count", "count"),
    ("alloc.setup_bytes", "bytes"),
    ("alloc.run_count", "count"),
    ("alloc.run_bytes", "bytes"),
    ("ledger.attributed_pct", "%"),
];

/// Median of a non-empty sample.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// The `q`-quantile by linear interpolation between closest ranks.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of an empty sample");
    let mut s = xs.to_vec();
    s.sort_by(f64::total_cmp);
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    s[lo] + (s[hi] - s[lo]) * (pos - lo as f64)
}

/// The last value recorded under `name`, or 0.
pub fn value_of(values: &[(&str, f64)], name: &str) -> f64 {
    values
        .iter()
        .rev()
        .find(|(n, _)| *n == name)
        .map_or(0.0, |&(_, v)| v)
}

/// Peak resident set size of this process, in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The result line: one JSON object with exactly `correct`,
/// `attempted`, `failed` and `metrics`. Every listed metric is
/// present; one missing from `values` reads 0.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    list: &[(&str, &str)],
    values: &[(&str, f64)],
) -> String {
    let mut out = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, (name, unit)) in list.iter().enumerate() {
        let v = value_of(values, name);
        let v = if v.is_finite() { v } else { 0.0 };
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.25), 2.0);
    }

    #[test]
    fn result_line_lists_every_metric() {
        let line = result_line(true, 3, 0, &[("a", "s"), ("b", "ms")], &[("a", 1.5)]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"a\": {\"value\": 1.5, \"unit\": \"s\"}, \"b\": {\"value\": 0.0, \"unit\": \"ms\"}}}"
        );
    }
}
