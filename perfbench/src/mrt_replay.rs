//! `mrt_replay`: recorded-data churn on legacy routers. Generated MRT
//! archives (a `TABLE_DUMP_V2` snapshot and a `BGP4MP_ET` update trace)
//! load full tables onto 12 BFD'd sessions of R1, then the trace's
//! withdraw/re-announce bursts replay at their recorded instants. No
//! controller, no data plane.

use crate::layers;
use crate::workload::{counters_of, Outcome, Workload};
use sc_bench::replay::{build_replay_world_from, run_replay, ReplayParams, ReplayWorld};
use sc_mrt::{NextHopRewriter, ReplaySchedule, RibSnapshot, TimeScale};
use sc_net::metrics::Registry;
use sc_net::{Ipv4Addr, SimDuration};
use sc_router::LegacyRouter;

/// Prefixes in the generated snapshot (each of the 12 peers carries
/// all of them).
pub const PREFIXES: u32 = 2_000;
/// Withdraw/re-announce bursts in the generated trace.
pub const BURSTS: u32 = 10_000;

pub struct MrtReplay {
    params: ReplayParams,
}

impl MrtReplay {
    pub fn new(seed: u64) -> MrtReplay {
        MrtReplay {
            params: ReplayParams {
                prefixes: PREFIXES,
                providers: 12,
                bursts: BURSTS,
                burst_prefixes: 10,
                burst_gap_us: 2_000,
                bfd_interval: SimDuration::from_micros(500),
                seed,
                ..ReplayParams::paper()
            },
        }
    }

    fn archives(&self) -> (Vec<u8>, Vec<u8>) {
        let cfg = self.params.export_config();
        (
            sc_routegen::mrt::rib_snapshot_mrt(&cfg),
            sc_routegen::mrt::update_trace_mrt(&cfg),
        )
    }
}

impl Workload for MrtReplay {
    type Built = ReplayWorld;

    /// Archive generation, then MRT parsing, replay compilation and
    /// world wiring.
    fn setup(&mut self, traced: bool) -> ReplayWorld {
        let (rib, trace) = self.archives();
        let mut rw = build_replay_world_from(&self.params, &rib, &trace);
        if traced {
            rw.world.enable_trace(1_000_000);
        }
        rw
    }

    fn run(&mut self, rw: &mut ReplayWorld) {
        run_replay(rw);
    }

    fn check(&mut self, rw: ReplayWorld, traced: bool, first_traced: bool) -> Outcome {
        let mut out = Outcome::default();
        let routers = || std::iter::once(rw.r1).chain(rw.providers.iter().copied());
        let discarded: u64 = routers()
            .map(|id| rw.world.node::<LegacyRouter>(id).stats.dropped_malformed)
            .sum();
        out.attempted = rw.updates_injected as u64;
        out.failed = discarded;
        out.check(discarded == 0, || {
            format!("routers discarded {discarded} messages")
        });
        let r1 = rw.world.node::<LegacyRouter>(rw.r1);
        // The full table plus one connected subnet per session.
        let want = rw.table_prefixes + rw.providers.len();
        out.check(r1.fib().len() == want, || {
            format!("R1's FIB holds {} entries, want {want}", r1.fib().len())
        });
        out.check(
            r1.stats.updates_processed > rw.updates_injected as u64,
            || "R1 processed fewer UPDATEs than the trace injected".into(),
        );
        let events = rw.world.stats().events_processed;
        out.fingerprint.extend([
            ("events", events),
            ("fib_len", r1.fib().len() as u64),
            ("updates_processed", r1.stats.updates_processed),
            ("fib_ops", r1.walker().ops_applied),
        ]);
        out.layer.push(("sim.events", events as f64));
        if traced {
            let mut reg = Registry::enabled();
            reg.merge(rw.world.metrics());
            for id in routers() {
                rw.world.node::<LegacyRouter>(id).fold_metrics(&mut reg);
            }
            out.layer.extend(counters_of(&reg));
            out.layer
                .push(("trace.records", rw.world.trace().recorded() as f64));
        }
        if first_traced {
            out.layer.extend(self.timings());
        }
        out
    }
}

impl MrtReplay {
    /// Call timings on this workload's archives: generation, MRT load
    /// and compile, then the trie, BGP codec and `LocRib` over the
    /// tables and the replayed UPDATEs.
    fn timings(&self) -> Vec<(&'static str, f64)> {
        let mut v = Vec::new();
        let ((rib, trace), gen_ms) = layers::ms(|| self.archives());
        v.push(("routegen.feed_ms", gen_ms));
        let (snap, load_ms) = layers::ms(|| RibSnapshot::load(&rib).expect("generated snapshot"));
        v.push(("mrt.load_ms", load_ms));
        let (sched, compile_ms) = layers::ms(|| {
            ReplaySchedule::compile(&trace, TimeScale::REAL).expect("generated trace")
        });
        v.push(("mrt.compile_ms", compile_ms));

        let universe = snap.prefixes();
        let addrs: Vec<Ipv4Addr> = universe.iter().map(|p| p.sample_host()).collect();
        let (insert, lookup) = layers::trie_ns(&universe, &addrs);
        v.push(("trie.insert_ns", insert));
        v.push(("trie.lookup_ns", lookup));

        let k = self.params.providers.min(snap.peers.len());
        let provider_ips: Vec<Ipv4Addr> =
            (0..k).map(|i| Ipv4Addr::new(10, i as u8, 0, 2)).collect();
        let feeds: Vec<Vec<_>> = provider_ips
            .iter()
            .enumerate()
            .map(|(i, &ip)| {
                let routes = snap.routes_for_peer(i as u16);
                sc_mrt::pack_feed(&NextHopRewriter::new(ip).rewrite_routes(&routes), 300)
            })
            .collect();
        let peers: Vec<Ipv4Addr> = snap.peers.iter().map(|p| p.addr).collect();
        let replayed: Vec<_> = sched
            .map_to_providers(&peers, &provider_ips, 0)
            .into_iter()
            .map(|(_, _, u)| u)
            .collect();
        let all: Vec<_> = feeds.iter().flatten().chain(&replayed).cloned().collect();
        let (decode, encode) = layers::codec_ns(&all);
        v.push(("bgp.decode_ns", decode));
        v.push(("bgp.encode_ns", encode));
        let rib_feeds: Vec<(Ipv4Addr, &[_])> = provider_ips
            .iter()
            .copied()
            .zip(feeds.iter().map(Vec::as_slice))
            .collect();
        v.push(("rib.update_ns", layers::rib_ns(&rib_feeds)));
        v
    }
}
