//! The workload interface that `drive` times, and helpers shared by the
//! three workloads.

use sc_net::metrics::Registry;

/// What one iteration's outputs say once checked.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations the iteration attempted (flows measured, prefixes
    /// loaded, messages replayed).
    pub attempted: u64,
    /// Of those, the ones that failed.
    pub failed: u64,
    /// Failed output checks; an iteration with any reports no timing.
    pub problems: Vec<String>,
    /// Deterministic counts that every iteration of a run must repeat
    /// exactly, traced or not.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Per-layer values: sim results always, registry counters and
    /// trace figures only from a traced iteration, call timings from
    /// the first traced iteration. Names outside the printed list
    /// (`n.*`, `flowcache.hits`, ...) feed the ledger.
    pub layer: Vec<(&'static str, f64)>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.problems.push(what());
        }
    }
}

/// One workload: a set-up that builds a world from the generated
/// inputs, a run that drives it, and a check that reads its outputs.
/// Only `setup` and `run` are timed.
pub trait Workload {
    type Built;
    fn setup(&mut self, traced: bool) -> Self::Built;
    fn run(&mut self, built: &mut Self::Built);
    /// Check the outputs. On the first traced iteration this also takes
    /// the call timings, on the finished world and the workload's
    /// inputs (never timed as part of `run`).
    fn check(&mut self, built: Self::Built, traced: bool, first_traced: bool) -> Outcome;
}

/// The registry counters the per-layer metrics read, under their
/// registry names.
pub const COUNTERS: &[&str] = &[
    "router.forwarded",
    "router.updates_processed",
    "flowcache.hits",
    "flowcache.misses",
    "flowcache.invalidated",
    "fib.ops_applied",
    "fib.apply_batches",
    "bgp.updates_in",
    "bgp.updates_out",
    "bfd.packets_sent",
    "ctl.flow_mods",
];

/// Read [`COUNTERS`] from a registry.
pub fn counters_of(reg: &Registry) -> Vec<(&'static str, f64)> {
    COUNTERS
        .iter()
        .map(|&n| (n, reg.counter(n) as f64))
        .collect()
}

/// Read [`COUNTERS`] from a registry's JSON dump
/// (`{"counters":{"name":n,...},"histograms":{...}}`).
pub fn counters_of_json(json: &str) -> Vec<(&'static str, f64)> {
    let body = json
        .strip_prefix("{\"counters\":{")
        .and_then(|rest| rest.split('}').next())
        .unwrap_or("");
    COUNTERS
        .iter()
        .map(|&n| {
            let v = body
                .split(',')
                .filter_map(|kv| kv.split_once(':'))
                .find(|(k, _)| k.trim_matches('"') == n)
                .and_then(|(_, v)| v.parse::<f64>().ok())
                .unwrap_or(0.0);
            (n, v)
        })
        .collect()
}

/// Add `extra` into `into`, name by name.
pub fn add_counters(into: &mut Vec<(&'static str, f64)>, extra: &[(&'static str, f64)]) {
    for &(n, v) in extra {
        match into.iter_mut().find(|(m, _)| *m == n) {
            Some(slot) => slot.1 += v,
            None => into.push((n, v)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_parse_from_a_registry_dump() {
        let mut reg = Registry::enabled();
        reg.add("router.forwarded", 42);
        reg.add("fib.ops_applied", 7);
        reg.observe("some.histogram", 3);
        let parsed = counters_of_json(&reg.to_json());
        assert_eq!(parsed, counters_of(&reg));
        assert!(parsed.contains(&("router.forwarded", 42.0)));
        assert!(parsed.contains(&("ctl.flow_mods", 0.0)));
    }
}
