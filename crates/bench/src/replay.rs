//! The MRT replay bench world used by `sc-bench replay`.
//!
//! Topology: R1 ← K provider routers, one point-to-point link each,
//! BFD on every session — the same control-plane shape as the churn
//! bench (`sc-bench perf --churn`), but driven by *recorded* data end
//! to end:
//!
//! * the provider tables come from an MRT `TABLE_DUMP_V2` snapshot
//!   parsed through `sc_mrt::RibSnapshot` (next-hops rewritten to the
//!   owning provider, attribute runs re-shared);
//! * the churn comes from a `BGP4MP_ET` update trace compiled through
//!   `sc_mrt::ReplaySchedule` — every injection lands at its recorded
//!   (optionally time-warped) instant, entering the world through the
//!   kernel `Scheduler` like any other event.
//!
//! By default both archives are *generated* at paper scale by
//! `sc_routegen::mrt` (in memory — the parser and replay compiler are
//! part of what's measured); `--fixture` runs the small committed
//! fixtures instead. Every quantity is a pure function of the
//! parameters, and the event stream is invariant across schedulers
//! (regression-tested), so events/s ratios isolate kernel cost exactly
//! as the other trajectory points do.

use sc_bfd::BfdConfig;
use sc_bgp::msg::UpdateMsg;
use sc_mrt::{NextHopRewriter, ReplaySchedule, RibSnapshot, TimeScale};
use sc_net::{Ipv4Addr, Ipv4Prefix, MacAddr, SimDuration, SimTime};
use sc_routegen::mrt::MrtExportConfig;
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig};
use sc_sim::{LinkParams, NodeId, SchedulerKind, World};

fn r1_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, i as u8, 0, 1)
}

fn provider_ip(i: usize) -> Ipv4Addr {
    Ipv4Addr::new(10, i as u8, 0, 2)
}

fn r1_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0x10, 0, 0, i as u8, 1])
}

fn provider_mac(i: usize) -> MacAddr {
    MacAddr([0x02, 0x40, 0, 0, i as u8, 2])
}

fn subnet(i: usize) -> Ipv4Prefix {
    Ipv4Prefix::new(Ipv4Addr::new(10, i as u8, 0, 0), 24)
}

/// Parameters of the replay bench world.
#[derive(Clone, Copy, Debug)]
pub struct ReplayParams {
    /// Prefixes in the generated snapshot (ignored with fixtures).
    pub prefixes: u32,
    /// Provider sessions; also the generated snapshot's peer count.
    pub providers: usize,
    /// Bursts in the generated update trace.
    pub bursts: u32,
    /// Prefixes withdrawn/re-announced per burst.
    pub burst_prefixes: u32,
    /// Mean recorded quiet gap between bursts (µs, jittered ±50%).
    pub burst_gap_us: u64,
    /// BFD transmit interval on every session.
    pub bfd_interval: SimDuration,
    /// Warp on recorded inter-arrival gaps.
    pub time_scale: TimeScale,
    pub seed: u64,
    /// Event scheduler for the world (the comparison axis).
    pub scheduler: SchedulerKind,
}

impl ReplayParams {
    /// Paper-scale: full recorded tables on 12 BFD'd sessions, a 3000-
    /// burst recorded trace at millisecond inter-arrivals — the same
    /// timer-dense regime as the churn trajectory point, but sourced
    /// from MRT end to end.
    pub fn paper() -> ReplayParams {
        ReplayParams {
            prefixes: 2_000,
            providers: 12,
            bursts: 3_000,
            burst_prefixes: 10,
            burst_gap_us: 2_000,
            bfd_interval: SimDuration::from_micros(500),
            time_scale: TimeScale::REAL,
            seed: 42,
            scheduler: SchedulerKind::default(),
        }
    }

    /// Seconds-scale CI variant.
    pub fn smoke() -> ReplayParams {
        ReplayParams {
            prefixes: 1_000,
            providers: 8,
            bursts: 500,
            burst_prefixes: 20,
            burst_gap_us: 2_000,
            bfd_interval: SimDuration::from_millis(1),
            time_scale: TimeScale::REAL,
            seed: 42,
            scheduler: SchedulerKind::default(),
        }
    }

    /// The generator config matching these parameters.
    pub fn export_config(&self) -> MrtExportConfig {
        MrtExportConfig {
            prefixes: self.prefixes,
            seed: self.seed,
            peers: self.providers as u16,
            epoch: 1_431_907_200,
            bursts: self.bursts,
            burst_prefixes: self.burst_prefixes,
            burst_gap_us: self.burst_gap_us,
        }
    }
}

/// A wired replay world plus everything a driver reports on.
pub struct ReplayWorld {
    pub world: World,
    pub r1: NodeId,
    pub providers: Vec<NodeId>,
    /// When the last replayed event (plus settle tail) has drained.
    pub end: SimTime,
    /// UPDATE messages scheduled from the trace.
    pub updates_injected: usize,
    /// Announced + withdrawn prefixes across the trace.
    pub prefix_events: usize,
    /// Recorded trace span after time-warping.
    pub trace_span: SimDuration,
    /// Table size actually loaded (the snapshot's, with fixtures).
    pub table_prefixes: usize,
}

/// Build the replay world from generated paper/smoke-scale archives.
pub fn build_replay_world(p: &ReplayParams) -> ReplayWorld {
    let cfg = p.export_config();
    let rib = sc_routegen::mrt::rib_snapshot_mrt(&cfg);
    let trace = sc_routegen::mrt::update_trace_mrt(&cfg);
    build_replay_world_from(p, &rib, &trace)
}

/// Build the replay world from explicit MRT bytes (e.g. the committed
/// fixtures, or a real `bview` + `updates` pair).
pub fn build_replay_world_from(p: &ReplayParams, rib: &[u8], trace: &[u8]) -> ReplayWorld {
    let snap = RibSnapshot::load(rib).unwrap_or_else(|e| panic!("MRT RIB snapshot: {e}"));
    let sched = ReplaySchedule::compile(trace, p.time_scale)
        .unwrap_or_else(|e| panic!("MRT update trace: {e}"));
    let k = p.providers.min(snap.peers.len()).max(1);
    assert!(k < 200, "addressing plan supports < 200 providers");
    let mut world = World::with_scheduler(p.seed, p.scheduler);

    let r1 = world.add_node(LegacyRouter::new(RouterConfig {
        name: "r1".into(),
        asn: 65001,
        router_id: Ipv4Addr::new(1, 1, 1, 1),
        cal: Calibration::instant(),
    }));
    let providers: Vec<NodeId> = (0..k)
        .map(|i| {
            world.add_node(LegacyRouter::new(RouterConfig {
                name: format!("provider-{i}"),
                asn: snap.peers[i].asn,
                router_id: provider_ip(i),
                cal: Calibration::instant(),
            }))
        })
        .collect();

    let link = LinkParams::gigabit(SimDuration::from_micros(50));
    for (i, &provider) in providers.iter().enumerate() {
        let feed = {
            let routes = snap.routes_for_peer(i as u16);
            let rewritten = NextHopRewriter::new(provider_ip(i)).rewrite_routes(&routes);
            sc_mrt::pack_feed(&rewritten, 300)
        };
        let (_, r1_port, prov_port) = world.connect(r1, provider, link);
        let bfd = BfdConfig {
            local_discr: (10 + i) as u32,
            desired_min_tx: p.bfd_interval,
            required_min_rx: p.bfd_interval,
            detect_mult: 3,
        };
        {
            let r1n = world.node_mut::<LegacyRouter>(r1);
            let iface = r1n.add_interface(Interface {
                port: r1_port,
                ip: r1_ip(i),
                mac: r1_mac(i),
                subnet: subnet(i),
            });
            r1n.add_peer(PeerConfig {
                // The trace's churning peer (index 0) is the primary:
                // its withdrawals flip best routes.
                local_pref: if i == 0 { 200 } else { 100 },
                local_port: (40000 + i) as u16,
                remote_port: 179,
                bfd: Some(BfdConfig {
                    local_discr: (100 + i) as u32,
                    ..bfd
                }),
                iface,
                ..PeerConfig::ebgp(provider_ip(i), provider_mac(i), true)
            });
        }
        {
            let pn = world.node_mut::<LegacyRouter>(provider);
            pn.add_interface(Interface {
                port: prov_port,
                ip: provider_ip(i),
                mac: provider_mac(i),
                subnet: subnet(i),
            });
            pn.add_peer(PeerConfig {
                local_port: 179,
                remote_port: (40000 + i) as u16,
                bfd: Some(bfd),
                originate: feed,
                ..PeerConfig::ebgp(r1_ip(i), r1_mac(i), false)
            });
        }
    }

    // Replay: every recorded event pre-scheduled at its warped offset,
    // past full-feed convergence, under the shared mapping policy
    // (`ReplaySchedule::map_to_providers` — the scenario runner's too).
    let start = SimTime::from_secs(2);
    let recorded_peers: Vec<Ipv4Addr> = snap.peers.iter().map(|pe| pe.addr).collect();
    let provider_ips: Vec<Ipv4Addr> = (0..k).map(provider_ip).collect();
    let mapped = sched.map_to_providers(&recorded_peers, &provider_ips, 0);
    let updates_injected = mapped.len();
    for (i, at, update) in mapped {
        schedule_injection(&mut world, providers[i], start + at, update);
    }
    let end = start + sched.end + SimDuration::from_millis(200);

    ReplayWorld {
        world,
        r1,
        providers,
        end,
        updates_injected,
        prefix_events: sched.prefix_events(),
        trace_span: sched.end,
        table_prefixes: snap.routes.len(),
    }
}

fn schedule_injection(world: &mut World, node: NodeId, at: SimTime, update: UpdateMsg) {
    world.schedule(at, move |w| {
        let tokens = w.node_mut::<LegacyRouter>(node).inject_updates(&[update]);
        let now = w.now();
        for tok in tokens {
            w.wake_node(now, node, tok);
        }
    });
}

/// The measured outcome of one replay run.
#[derive(Clone, Copy, Debug)]
pub struct ReplayMeasurement {
    pub events: u64,
    pub wall: std::time::Duration,
    pub updates_processed: u64,
    pub fib_ops_applied: u64,
}

impl ReplayMeasurement {
    pub fn events_per_sec(&self) -> f64 {
        self.events as f64 / self.wall.as_secs_f64().max(1e-9)
    }
}

/// Drive a replay world to its horizon, timing the run.
pub fn run_replay(rw: &mut ReplayWorld) -> ReplayMeasurement {
    let ((), wall) = crate::timing::timed(|| rw.world.run_until(rw.end));
    let r1 = rw.world.node::<LegacyRouter>(rw.r1);
    ReplayMeasurement {
        events: rw.world.stats().events_processed,
        wall,
        updates_processed: r1.stats.updates_processed,
        fib_ops_applied: r1.walker().ops_applied,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> ReplayParams {
        ReplayParams {
            prefixes: 300,
            providers: 2,
            bursts: 20,
            burst_prefixes: 25,
            burst_gap_us: 5_000,
            bfd_interval: SimDuration::from_millis(5),
            time_scale: TimeScale::REAL,
            seed: 7,
            scheduler: SchedulerKind::default(),
        }
    }

    #[test]
    fn replay_world_loads_tables_and_churns() {
        let mut rw = build_replay_world(&tiny());
        assert_eq!(rw.table_prefixes, 300);
        assert_eq!(rw.prefix_events, 2 * 20 * 25);
        let m = run_replay(&mut rw);
        let r1 = rw.world.node::<LegacyRouter>(rw.r1);
        // Full feed installed from both providers (plus one connected
        // subnet per interface), replay churn processed.
        assert_eq!(r1.fib().len(), 300 + 2);
        assert_eq!(r1.rib().route_count(), 2 * 300);
        assert!(m.updates_processed as usize > rw.updates_injected / 2);
        assert!(m.fib_ops_applied >= 300, "replay rewrote the FIB");
        assert!(m.events > 1_000);
    }

    /// Scheduler choice is a pure kernel-cost knob: the event stream
    /// and every router-visible outcome must be identical (and two
    /// identical runs trivially so). (Outgoing UPDATEs always take the
    /// zero-alloc encode path.)
    #[test]
    fn replay_world_is_invariant_under_scheduler_and_encode() {
        let base = {
            let mut rw = build_replay_world(&tiny());
            run_replay(&mut rw)
        };
        for sched in [SchedulerKind::TimerWheel, SchedulerKind::ReferenceHeap] {
            let mut rw = build_replay_world(&ReplayParams {
                scheduler: sched,
                ..tiny()
            });
            let m = run_replay(&mut rw);
            assert_eq!(m.events, base.events, "{sched:?}");
            assert_eq!(m.updates_processed, base.updates_processed);
            assert_eq!(m.fib_ops_applied, base.fib_ops_applied);
        }
    }

    /// Warping the trace compresses virtual time without changing the
    /// logical work: the same updates arrive, just denser.
    #[test]
    fn time_scale_compresses_without_losing_work() {
        let real = build_replay_world(&tiny());
        let fast = build_replay_world(&ReplayParams {
            time_scale: "0.25".parse().unwrap(),
            ..tiny()
        });
        assert_eq!(fast.updates_injected, real.updates_injected);
        assert_eq!(fast.prefix_events, real.prefix_events);
        assert!(fast.trace_span <= real.trace_span / 4 + SimDuration::from_nanos(1));
    }

    /// The committed fixtures drive the same world.
    #[test]
    fn fixtures_build_a_replay_world() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../tests/fixtures");
        let rib = std::fs::read(format!("{dir}/ris_rib.mrt")).unwrap();
        let trace = std::fs::read(format!("{dir}/ris_updates.mrt")).unwrap();
        let mut rw = build_replay_world_from(&tiny(), &rib, &trace);
        assert_eq!(rw.table_prefixes, 256);
        let m = run_replay(&mut rw);
        let r1 = rw.world.node::<LegacyRouter>(rw.r1);
        assert_eq!(r1.fib().len(), 256 + 2);
        assert!(m.updates_processed > 0);
    }
}
