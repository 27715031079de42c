//! Criterion micro-benchmark of the wire formats: BGP UPDATE
//! encode/decode (the controller's per-message I/O cost), BFD control
//! packets, and OpenFlow FLOW_MODs.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use sc_bfd::{BfdDiag, BfdPacket, BfdState};
use sc_bgp::attrs::{AsPath, RouteAttrs};
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_net::{Ipv4Prefix, MacAddr};
use sc_openflow::msg::{FlowModCommand, OfMessage};
use sc_openflow::{Action, FlowMatch};
use std::net::Ipv4Addr;

fn update_300() -> BgpMessage {
    let attrs = RouteAttrs::ebgp(
        AsPath::sequence(vec![65002, 174, 3356, 15169]),
        Ipv4Addr::new(10, 0, 0, 2),
    )
    .shared();
    let nlri: Vec<Ipv4Prefix> = (0..300u32)
        .map(|i| Ipv4Prefix::new(Ipv4Addr::from(0x0100_0000 + (i << 8)), 24))
        .collect();
    BgpMessage::Update(UpdateMsg::announce(attrs, nlri))
}

fn bench_wire(c: &mut Criterion) {
    let mut g = c.benchmark_group("bgp");
    let msg = update_300();
    let encoded = msg.encode();
    g.throughput(Throughput::Elements(300));
    g.bench_function("encode_update_300_nlri", |b| {
        b.iter(|| std::hint::black_box(msg.encode().len()))
    });
    g.bench_function("decode_update_300_nlri", |b| {
        b.iter(|| {
            let m = BgpMessage::decode(std::hint::black_box(&encoded)).unwrap();
            std::hint::black_box(matches!(m, BgpMessage::Update(_)))
        })
    });
    g.finish();

    let mut g = c.benchmark_group("bfd");
    let pkt = BfdPacket {
        diag: BfdDiag::None,
        state: BfdState::Up,
        poll: false,
        final_bit: false,
        detect_mult: 3,
        my_discr: 1,
        your_discr: 2,
        desired_min_tx_us: 30_000,
        required_min_rx_us: 30_000,
    };
    let bytes = pkt.encode();
    g.bench_function("roundtrip_control_packet", |b| {
        b.iter(|| {
            let p = BfdPacket::parse(std::hint::black_box(&bytes)).unwrap();
            std::hint::black_box(p.my_discr)
        })
    });
    g.finish();

    let mut g = c.benchmark_group("openflow");
    let fm = OfMessage::FlowMod {
        command: FlowModCommand::Modify,
        priority: 100,
        cookie: 0x5c,
        matcher: FlowMatch::dst_mac(MacAddr::virtual_mac(7)),
        actions: vec![
            Action::SetDstMac(MacAddr([2, 0, 0, 0, 0, 3])),
            Action::Output(3),
        ],
    };
    let enc = fm.encode(1);
    g.bench_function("flow_mod_roundtrip", |b| {
        b.iter(|| {
            let (xid, m) = OfMessage::decode(std::hint::black_box(&enc)).unwrap();
            std::hint::black_box((xid, matches!(m, OfMessage::FlowMod { .. })))
        })
    });
    g.finish();
}

criterion_group!(benches, bench_wire);
criterion_main!(benches);
