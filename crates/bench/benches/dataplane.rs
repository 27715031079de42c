//! Criterion micro-benchmark of the data-plane hot paths: longest-prefix
//! match on a full-table FIB, the switch flow-table lookup, the in-place
//! VMAC rewrite, and the **end-to-end forwarding world** (source →
//! full-FIB router → sink, the same world `sc-bench perf` measures) —
//! the per-packet costs of the supercharged forwarding pipeline.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sc_bench::fwd::{build_forwarding_world, FwdParams};
use sc_net::wire::{udp_frame, EthernetRepr, UdpEndpoints};
use sc_net::{MacAddr, PrefixTrie, SimDuration};
use sc_openflow::{Action, FlowEntry, FlowKey, FlowMatch, FlowTable};
use sc_routegen::prefix_universe;
use std::net::Ipv4Addr;

fn full_fib(n: u32) -> (PrefixTrie<u32>, Vec<Ipv4Addr>) {
    let universe = prefix_universe(n, 1);
    let mut t = PrefixTrie::new();
    for (i, p) in universe.iter().enumerate() {
        t.insert(*p, i as u32);
    }
    let probes: Vec<Ipv4Addr> = universe
        .iter()
        .step_by(97)
        .map(|p| p.sample_host())
        .collect();
    (t, probes)
}

fn probe_frame() -> Vec<u8> {
    udp_frame(
        UdpEndpoints {
            src_mac: MacAddr([2, 0, 0, 0, 0, 1]),
            dst_mac: MacAddr::virtual_mac(0),
            src_ip: Ipv4Addr::new(10, 0, 0, 100),
            dst_ip: Ipv4Addr::new(1, 2, 3, 4),
            src_port: 49152,
            dst_port: 7,
        },
        64,
        &[0x5c; 22],
    )
    .to_vec()
}

fn bench_dataplane(c: &mut Criterion) {
    let mut g = c.benchmark_group("lpm");
    for n in [10_000u32, 100_000, 500_000] {
        let (fib, probes) = full_fib(n);
        g.throughput(Throughput::Elements(probes.len() as u64));
        g.bench_function(format!("lookup_{n}_prefixes"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for ip in &probes {
                    if let Some((_, v)) = fib.lookup(*ip) {
                        acc += *v as u64;
                    }
                }
                std::hint::black_box(acc)
            })
        });
    }
    g.finish();

    let mut g = c.benchmark_group("switch");
    // A realistic supercharged table: 90 VMAC rules + ARP punt.
    let mut table = FlowTable::new();
    for i in 0..90u32 {
        table.add(FlowEntry {
            priority: 100,
            cookie: 0x5c,
            matcher: FlowMatch::dst_mac(MacAddr::virtual_mac(i)),
            actions: vec![
                Action::SetDstMac(MacAddr([2, 0, 0, 0, 0, 2])),
                Action::Output(2),
            ],
            stats: Default::default(),
        });
    }
    let frame = probe_frame();
    g.bench_function("flow_lookup_90_rules", |b| {
        b.iter(|| {
            let key = FlowKey::extract(4, std::hint::black_box(&frame)).unwrap();
            std::hint::black_box(table.lookup(&key, frame.len()).is_some())
        })
    });
    g.bench_function("vmac_rewrite_in_place", |b| {
        let mut f = frame.clone();
        b.iter(|| {
            EthernetRepr::rewrite_dst(std::hint::black_box(&mut f), MacAddr([2, 0, 0, 0, 0, 3]))
                .unwrap();
            std::hint::black_box(f[0])
        })
    });
    g.finish();
}

/// End-to-end forwarding: one shared world in steady state; every
/// iteration advances it 5 ms of virtual time (probe templates →
/// router flow cache → sink CAM, ≈2 kernel events per packet).
fn bench_e2e_forwarding(c: &mut Criterion) {
    let mut g = c.benchmark_group("e2e");
    let p = FwdParams {
        prefixes: 1_000,
        flows: 20,
        rate_pps: 14_000,
        // Far beyond what the iterations consume: the source must keep
        // transmitting for every timed window.
        window: SimDuration::from_secs(3600),
        seed: 42,
        scheduler: sc_sim::SchedulerKind::default(),
    };
    let mut fw = build_forwarding_world(p);
    // Reach steady state (templates warm, flow cache populated).
    fw.world.run_for(SimDuration::from_millis(50));
    let step = SimDuration::from_millis(5);
    let packets_per_iter = p.rate_pps * p.flows as u64 * step.as_nanos() / 1_000_000_000;
    g.throughput(Throughput::Elements(packets_per_iter));
    g.bench_function("forward_1k_prefixes_20_flows", |b| {
        b.iter(|| {
            fw.world.run_for(step);
            std::hint::black_box(fw.world.stats().events_processed)
        })
    });
    g.finish();
}

criterion_group!(benches, bench_dataplane, bench_e2e_forwarding);
criterion_main!(benches);
