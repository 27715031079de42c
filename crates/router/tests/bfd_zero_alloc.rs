//! Exact allocation gate for the BFD packet path. Once two BFD'd
//! routers are Up and warmed up, a steady-state control-packet exchange
//! — poll, encode into a recycled frame, link delivery, one-pass parse,
//! session update, timer re-arm — performs zero heap allocations.
//!
//! The counting allocator is process-global, so this file holds exactly
//! one test: no other test thread can allocate inside the window.

use sc_bfd::{BfdConfig, BfdState};
use sc_net::{MacAddr, SimDuration, SimTime};
use sc_router::{Calibration, Interface, LegacyRouter, PeerConfig, RouterConfig};
use sc_sim::{LinkParams, NodeId, PortId, World};
use std::alloc::{GlobalAlloc, Layout, System};
use std::net::Ipv4Addr;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

struct Counting;

static ENABLED: AtomicBool = AtomicBool::new(false);
static COUNT: AtomicU64 = AtomicU64::new(0);

fn note() {
    if ENABLED.load(Ordering::Relaxed) {
        COUNT.fetch_add(1, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards to `System` with the caller's own
// arguments; the counters touch no memory handed out by the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note();
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: the caller upholds `GlobalAlloc::dealloc`'s contract.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);
const MAC_A: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 1]);
const MAC_B: MacAddr = MacAddr([0x02, 0x10, 0, 0, 0, 2]);

/// One router with one BFD'd eBGP peer on interface 0. BFD runs at
/// 100 µs, so a simulated second is ~10k packets per direction; the
/// 90 s hold time keeps BGP keepalives out of the measured window.
fn router(
    name: &str,
    asn: u16,
    me: (Ipv4Addr, MacAddr),
    peer: (Ipv4Addr, MacAddr),
) -> LegacyRouter {
    let mut r = LegacyRouter::new(RouterConfig {
        name: name.into(),
        asn,
        router_id: me.0,
        cal: Calibration::instant(),
    });
    r.add_interface(Interface {
        port: PortId(0),
        ip: me.0,
        mac: me.1,
        subnet: "10.0.0.0/24".parse().unwrap(),
    });
    let fast = SimDuration::from_micros(100);
    r.add_peer(PeerConfig {
        bfd: Some(BfdConfig {
            local_discr: asn as u32,
            desired_min_tx: fast,
            required_min_rx: fast,
            detect_mult: 3,
        }),
        ..PeerConfig::ebgp(peer.0, peer.1, asn == 65001)
    });
    r
}

fn bfd_sent(w: &World, id: NodeId, peer: Ipv4Addr) -> u64 {
    w.node::<LegacyRouter>(id).bfd_counters(peer).unwrap().0
}

#[test]
fn steady_state_bfd_exchanges_allocate_nothing() {
    let mut w = World::new(1);
    let a = w.add_node(router("a", 65001, (IP_A, MAC_A), (IP_B, MAC_B)));
    let b = w.add_node(router("b", 65002, (IP_B, MAC_B), (IP_A, MAC_A)));
    w.connect(a, b, LinkParams::with_latency(SimDuration::from_micros(10)));

    // Warm up: the ≥1 s slow-rate bootstrap handshake, then a second at
    // the fast rate so every buffer, pool and queue has reached its
    // steady-state size.
    w.run_until(SimTime::from_secs(2));
    for (id, peer) in [(a, IP_B), (b, IP_A)] {
        let (state, _) = w.node::<LegacyRouter>(id).bfd_snapshot(peer).unwrap();
        assert_eq!(state, BfdState::Up);
    }
    let before = (bfd_sent(&w, a, IP_B), bfd_sent(&w, b, IP_A));

    ENABLED.store(true, Ordering::Relaxed);
    w.run_until(SimTime::from_secs(3));
    ENABLED.store(false, Ordering::Relaxed);

    // One exchange = one packet each way.
    let exchanges = (bfd_sent(&w, a, IP_B) - before.0).min(bfd_sent(&w, b, IP_A) - before.1);
    assert!(
        exchanges >= 10_000,
        "only {exchanges} BFD exchanges in the window"
    );
    assert_eq!(
        COUNT.load(Ordering::Relaxed),
        0,
        "heap allocations across {exchanges} steady-state BFD exchanges"
    );
    for (id, peer) in [(a, IP_B), (b, IP_A)] {
        let (state, _) = w.node::<LegacyRouter>(id).bfd_snapshot(peer).unwrap();
        assert_eq!(state, BfdState::Up, "no flap inside the window");
    }
}
