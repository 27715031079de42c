//! `failover`: the paper's Fig. 5 cell. The Fig. 4 lab loses its
//! primary provider's cable; the stock router and then the
//! supercharged one re-converge while probe flows measure the outage
//! and the invariant engine walks the FIBs.

use crate::layers;
use crate::workload::{add_counters, counters_of_json, Outcome, Workload};
use sc_bgp::UpdateMsg;
use sc_invariant::{sample_flags, NetModel, ProbeSpec, TransitPolicy};
use sc_lab::topology::{IP_R2, IP_R3, IP_SOURCE, MAC_R1, MAC_R2, MAC_SOURCE};
use sc_net::Ipv4Addr;
use sc_openflow::{FlowKey, OfSwitch};
use sc_routegen::{generate_feed_for, prefix_universe, FeedConfig};
use sc_scenarios::{
    build_scenario, run_scenario_traced, BuiltScenario, EventScript, Mode, ScenarioConfig,
    ScenarioOutcome, TopologySpec, TraceArtifacts,
};
use std::hint::black_box;

/// Prefixes each provider announces.
pub const PREFIXES: u32 = 10_000;
/// Monitored probe flows.
pub const FLOWS: usize = 50;

const MODES: [Mode; 2] = [Mode::Stock, Mode::Supercharged];

pub struct Failover {
    cfg: ScenarioConfig,
    script: EventScript,
}

impl Failover {
    pub fn new(seed: u64) -> Failover {
        Failover {
            cfg: ScenarioConfig {
                prefixes: PREFIXES,
                flows: FLOWS,
                seed,
                invariants: true,
                ..ScenarioConfig::default()
            },
            script: EventScript::primary_cut(),
        }
    }
}

pub struct Runs {
    cfg: ScenarioConfig,
    outcomes: Vec<(Mode, ScenarioOutcome, Option<TraceArtifacts>)>,
}

impl Workload for Failover {
    type Built = Runs;

    /// A standalone build of both worlds (feed generation included);
    /// `run_scenario` builds its own again, at under 1% of its cost.
    fn setup(&mut self, traced: bool) -> Runs {
        let cfg = ScenarioConfig {
            trace: traced,
            ..self.cfg.clone()
        };
        for mode in MODES {
            black_box(build_scenario(&TopologySpec::Fig4Lab, mode, &cfg));
        }
        Runs {
            cfg,
            outcomes: Vec::new(),
        }
    }

    fn run(&mut self, runs: &mut Runs) {
        for mode in MODES {
            let (o, a) = run_scenario_traced(&TopologySpec::Fig4Lab, &self.script, mode, &runs.cfg);
            runs.outcomes.push((mode, o, a));
        }
    }

    fn check(&mut self, runs: Runs, traced: bool, first_traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let mut counters = Vec::new();
        let mut conv_max = [0u64; 2];
        let mut inv_samples = 0u64;
        let mut records = 0u64;
        let mut events = 0u64;
        for (i, (mode, o, artifacts)) in runs.outcomes.iter().enumerate() {
            let label = sc_scenarios::mode_label(*mode);
            let stats = o.stats();
            conv_max[i] = stats.max.as_nanos();
            out.attempted += FLOWS as u64;
            out.failed += o.unrecovered as u64;
            out.check(o.unrecovered == 0, || {
                format!("{label}: {} unrecovered flows", o.unrecovered)
            });
            let samples = o.invariants.as_ref().map_or(0, |r| r.samples());
            inv_samples += samples;
            events += o.events_processed;
            out.fingerprint.extend([
                ("events", o.events_processed),
                ("conv_p50_ns", stats.median.as_nanos()),
                ("conv_max_ns", stats.max.as_nanos()),
                ("ready_ns", o.setup_time.as_nanos()),
                ("inv_samples", samples),
            ]);
            let (p50, max) = match mode {
                Mode::Stock => ("legacy_conv_p50_ms", "legacy_conv_max_ms"),
                Mode::Supercharged => ("sc_conv_p50_ms", "sc_conv_max_ms"),
            };
            out.layer.push((p50, stats.median.as_secs_f64() * 1e3));
            out.layer.push((max, stats.max.as_secs_f64() * 1e3));
            if *mode == Mode::Supercharged {
                out.layer
                    .push(("table_ready_s", o.setup_time.as_secs_f64()));
                out.check(o.flow_rewrites.is_some(), || {
                    "supercharged: the controller issued no failover".into()
                });
            }
            if !traced {
                continue;
            }
            let Some(a) = artifacts else {
                out.problems
                    .push(format!("{label}: traced run returned no trace"));
                continue;
            };
            let mode_counters = counters_of_json(&a.metrics_json);
            if *mode == Mode::Supercharged {
                // Every probe is forwarded twice (R1, then a provider)
                // and crosses the switch's flow table once.
                let fwd = mode_counters
                    .iter()
                    .find(|(n, _)| *n == "router.forwarded")
                    .map_or(0.0, |&(_, v)| v);
                out.layer.push(("n.of_lookups", fwd / 2.0));
            }
            add_counters(&mut counters, &mode_counters);
            records += a.jsonl.lines().count() as u64;
            match o.cycles.first().and_then(|c| c.phases) {
                Some(ph) => {
                    out.check(ph.total() == stats.max, || {
                        format!(
                            "{label}: phases sum to {} but convergence is {}",
                            ph.total(),
                            stats.max
                        )
                    });
                    let names: [&'static str; 4] = match mode {
                        Mode::Stock => [
                            "phase.legacy.detect_ms",
                            "phase.legacy.notify_ms",
                            "phase.legacy.program_ms",
                            "phase.legacy.fib_ms",
                        ],
                        Mode::Supercharged => [
                            "phase.sc.detect_ms",
                            "phase.sc.notify_ms",
                            "phase.sc.program_ms",
                            "phase.sc.fib_ms",
                        ],
                    };
                    for (n, d) in names
                        .into_iter()
                        .zip([ph.detect, ph.notify, ph.program, ph.fib])
                    {
                        out.layer.push((n, d.as_secs_f64() * 1e3));
                    }
                }
                None => out.problems.push(format!("{label}: no phase breakdown")),
            }
        }
        out.check(conv_max[1] < conv_max[0], || {
            format!(
                "supercharged convergence {}ns is not below legacy {}ns",
                conv_max[1], conv_max[0]
            )
        });
        out.layer.push(("sim.events", events as f64));
        out.layer.push(("inv.samples", inv_samples as f64));
        out.layer.push(("n.inv_samples", inv_samples as f64));
        if traced {
            out.layer.extend(counters);
            out.layer.push(("trace.records", records as f64));
        }
        if first_traced {
            let (_, feed_ms) = layers::ms(|| {
                let universe = prefix_universe(PREFIXES, runs.cfg.seed);
                for (nh, asn) in [(IP_R2, 65002), (IP_R3, 65003)] {
                    black_box(generate_feed_for(
                        &FeedConfig::new(PREFIXES, runs.cfg.seed, nh, asn),
                        &universe,
                    ));
                }
            });
            out.layer.push(("routegen.feed_ms", feed_ms));
            let mut scn = build_scenario(&TopologySpec::Fig4Lab, Mode::Supercharged, &self.cfg);
            scn.run_until_converged();
            out.layer
                .extend(fig4_timings(&scn, (&scn.feeds[0], &scn.feeds[1]), true));
        }
        out
    }
}

/// Call timings on a converged supercharged Fig. 4 world: the trie
/// over its universe and flow addresses, the switch's flow table on
/// probe keys, the BGP codec and `LocRib` over its feeds, the
/// controller engine over `engine_feeds` (the primary's, then the
/// backup's), and (with `walks`) one invariant sample over its flows.
pub fn fig4_timings(
    scn: &BuiltScenario,
    engine_feeds: (&[UpdateMsg], &[UpdateMsg]),
    walks: bool,
) -> Vec<(&'static str, f64)> {
    let mut v = Vec::new();
    let probes: Vec<Ipv4Addr> = scn.flow_ips.iter().copied().cycle().take(4096).collect();
    let (insert, lookup) = layers::trie_ns(&scn.universe, &probes);
    v.push(("trie.insert_ns", insert));
    v.push(("trie.lookup_ns", lookup));

    let table = scn.world.node::<OfSwitch>(scn.switch).table();
    let matchers: Vec<_> = table
        .entries()
        .iter()
        .filter(|e| e.matcher.eth_dst.is_some())
        .map(|e| e.matcher)
        .collect();
    let keys: Vec<FlowKey> = if matchers.is_empty() {
        Vec::new()
    } else {
        probes
            .iter()
            .enumerate()
            .map(|(i, &dst)| {
                let m = matchers[i % matchers.len()];
                FlowKey {
                    in_port: m.in_port.unwrap_or(1),
                    eth_src: m.eth_src.unwrap_or(MAC_R1),
                    eth_dst: m.eth_dst.unwrap_or(MAC_R2),
                    eth_type: 0x0800,
                    ip_src: Some(IP_SOURCE),
                    ip_dst: Some(dst),
                    udp_src: Some(sc_traffic::PROBE_SRC_PORT),
                    udp_dst: Some(sc_net::wire::udp::port::PROBE),
                }
            })
            .collect()
    };
    v.push(("of.lookup_ns", layers::of_lookup_ns(table, &keys)));

    let all: Vec<_> = scn.feeds.iter().flatten().cloned().collect();
    let (decode, encode) = layers::codec_ns(&all);
    v.push(("bgp.decode_ns", decode));
    v.push(("bgp.encode_ns", encode));
    let feeds: Vec<(Ipv4Addr, &[_])> = scn
        .provider_ips
        .iter()
        .copied()
        .zip(scn.feeds.iter().map(Vec::as_slice))
        .collect();
    v.push(("rib.update_ns", layers::rib_ns(&feeds)));

    let e = layers::engine_timing(engine_feeds.0, engine_feeds.1);
    let us = |q: f64| crate::report::quantile(&e.latencies_ns, q) / 1e3;
    v.push(("ctl.update_p50_us", us(0.5)));
    v.push(("ctl.update_p99_us", us(0.99)));
    v.push(("ctl.update_max_us", us(1.0)));
    v.push(("ctl.routes_learned", e.routes_learned as f64));
    v.push(("ctl.announcements", e.announcements as f64));
    v.push(("n.ctl_updates", e.updates as f64));
    let total: f64 = e.latencies_ns.iter().sum();
    v.push((
        "n.ctl_update_ns",
        total / e.latencies_ns.len().max(1) as f64,
    ));

    if walks {
        let model = NetModel {
            routers: std::iter::once(scn.r1)
                .chain(scn.providers.iter().copied())
                .collect(),
            switches: vec![scn.switch],
            source: scn.source,
            sink: scn.sink,
        };
        let probe = ProbeSpec {
            src_mac: MAC_SOURCE,
            src_ip: IP_SOURCE,
            gateway_mac: MAC_R1,
            udp_src: sc_traffic::PROBE_SRC_PORT,
            udp_dst: sc_net::wire::udp::port::PROBE,
        };
        let policy = TransitPolicy { rules: Vec::new() };
        let walk_ns = layers::ns_per_op(1, || {
            black_box(sample_flags(
                &scn.world,
                &model,
                probe,
                &policy,
                &scn.flow_ips,
            ));
        });
        v.push(("inv.walk_us", walk_ns / 1e3));
        v.push(("n.inv_walk_ns", walk_ns));
    }
    v
}
