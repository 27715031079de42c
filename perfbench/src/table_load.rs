//! `table_load`: supercharged full-table loads on the Fig. 4 lab. Two
//! providers announce their tables; the controller engine computes
//! backup groups and virtual next-hops and announces them to R1, whose
//! RIB and FIB install every prefix. There is no data plane.
//!
//! One iteration loads `LOADS` independent tables, each generated from
//! its own sub-seed of the run's seed. How the two providers' streams
//! interleave at the controller decides how many UPDATEs it sends R1,
//! and that varies by about 15% from one table to the next; summing
//! over several tables keeps the work of an iteration nearly the same
//! for every seed.

use crate::failover::fig4_timings;
use crate::layers;
use crate::workload::{add_counters, counters_of, Outcome, Workload};
use sc_lab::topology::{IP_R2, IP_R3};
use sc_net::metrics::Registry;
use sc_net::SimTime;
use sc_routegen::{generate_feed_for, prefix_universe, FeedConfig};
use sc_router::LegacyRouter;
use sc_scenarios::{build_scenario, BuiltScenario, Mode, ScenarioConfig, TopologySpec};
use std::hint::black_box;

/// Prefixes each provider announces, per table.
pub const PREFIXES: u32 = 100_000;
/// Tables loaded per iteration.
pub const LOADS: u64 = 5;

pub struct TableLoad {
    cfgs: Vec<ScenarioConfig>,
}

impl TableLoad {
    pub fn new(seed: u64) -> TableLoad {
        TableLoad {
            cfgs: (0..LOADS)
                .map(|j| ScenarioConfig {
                    prefixes: PREFIXES,
                    seed: seed.wrapping_mul(LOADS).wrapping_add(j),
                    ..ScenarioConfig::default()
                })
                .collect(),
        }
    }
}

pub struct Loaded {
    scn: BuiltScenario,
    ready: SimTime,
}

impl Workload for TableLoad {
    type Built = Vec<Loaded>;

    fn setup(&mut self, traced: bool) -> Vec<Loaded> {
        self.cfgs
            .iter()
            .map(|cfg| {
                let cfg = ScenarioConfig {
                    trace: traced,
                    ..cfg.clone()
                };
                Loaded {
                    scn: build_scenario(&TopologySpec::Fig4Lab, Mode::Supercharged, &cfg),
                    ready: SimTime::ZERO,
                }
            })
            .collect()
    }

    fn run(&mut self, loads: &mut Vec<Loaded>) {
        for l in loads {
            l.ready = l.scn.run_until_converged();
        }
    }

    fn check(&mut self, loads: Vec<Loaded>, traced: bool, first_traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let mut counters = Vec::new();
        let (mut events, mut records, mut ready) = (0u64, 0u64, SimTime::ZERO);
        for l in &loads {
            let scn = &l.scn;
            let r1 = scn.world.node::<LegacyRouter>(scn.r1);
            let missing = scn
                .universe
                .iter()
                .filter(|&&p| r1.fib().get(p).is_none())
                .count();
            out.attempted += scn.universe.len() as u64;
            out.failed += missing as u64;
            out.check(missing == 0, || {
                format!(
                    "{missing} of {} prefixes missing from R1's FIB",
                    scn.universe.len()
                )
            });
            let ev = scn.world.stats().events_processed;
            events += ev;
            ready = ready.max(l.ready);
            out.fingerprint.extend([
                ("events", ev),
                ("fib_len", r1.fib().len() as u64),
                ("updates_processed", r1.stats.updates_processed),
                ("fib_ops", r1.walker().ops_applied),
                ("ready_ns", l.ready.as_nanos()),
            ]);
            if traced {
                // The scenario runner's own fold: the kernel-merged
                // registry plus every node's lifetime counters.
                let mut reg = Registry::enabled();
                reg.merge(scn.world.metrics());
                for id in std::iter::once(scn.r1).chain(scn.providers.iter().copied()) {
                    scn.world.node::<LegacyRouter>(id).fold_metrics(&mut reg);
                }
                for &c in &scn.controllers {
                    scn.world
                        .node::<supercharger::Controller>(c)
                        .fold_metrics(&mut reg);
                }
                add_counters(&mut counters, &counters_of(&reg));
                records += scn.world.trace().recorded();
            }
        }
        out.layer.push(("sim.events", events as f64));
        out.layer.push(("table_ready_s", ready.as_secs_f64()));
        if traced {
            out.layer.extend(counters);
            out.layer.push(("trace.records", records as f64));
        }
        if first_traced {
            let (_, feed_ms) = layers::ms(|| {
                for cfg in &self.cfgs {
                    let universe = prefix_universe(PREFIXES, cfg.seed);
                    for (nh, asn) in [(IP_R2, 65002), (IP_R3, 65003)] {
                        black_box(generate_feed_for(
                            &FeedConfig::new(PREFIXES, cfg.seed, nh, asn),
                            &universe,
                        ));
                    }
                }
            });
            out.layer.push(("routegen.feed_ms", feed_ms));
            // The §4 figure over every table of the iteration: the
            // first provider's feeds, then the second's.
            let feed = |i: usize| -> Vec<_> {
                loads
                    .iter()
                    .flat_map(|l| l.scn.feeds[i].iter().cloned())
                    .collect()
            };
            out.layer
                .extend(fig4_timings(&loads[0].scn, (&feed(0), &feed(1)), false));
        }
        out
    }
}
