//! Call timings into each layer's public functions, on a workload's own
//! inputs. Nothing here reaches inside a crate: every number is a
//! wall-clock reading around a public call, taken from outside.

use sc_bgp::decision::PeerInfo;
use sc_bgp::msg::{BgpMessage, UpdateMsg};
use sc_bgp::LocRib;
use sc_lab::topology::{IP_R2, IP_R3, MAC_R2, MAC_R3};
use sc_net::{Ipv4Addr, Ipv4Prefix, PrefixTrie, SimDuration};
use sc_openflow::{FlowKey, FlowTable};
use sc_sim::{Ctx, Node, PortId, TimerToken, World};
use std::hint::black_box;
use std::time::{Duration, Instant};
use supercharger::engine::PeerSpec;
use supercharger::{Engine, EngineConfig};

/// Repeat whole passes of `pass` for at least 50 ms; return
/// nanoseconds per operation (`ops` operations per pass).
pub fn ns_per_op(ops: usize, mut pass: impl FnMut()) -> f64 {
    const MIN: Duration = Duration::from_millis(50);
    if ops == 0 {
        return 0.0;
    }
    let t0 = Instant::now();
    let mut passes = 0u64;
    while passes == 0 || t0.elapsed() < MIN {
        pass();
        passes += 1;
    }
    t0.elapsed().as_nanos() as f64 / (passes as f64 * ops as f64)
}

/// `PrefixTrie` insert and longest-prefix-match cost: `(insert_ns,
/// lookup_ns)`, inserting `prefixes` into an empty trie and looking up
/// `addrs` in the filled one.
pub fn trie_ns(prefixes: &[Ipv4Prefix], addrs: &[Ipv4Addr]) -> (f64, f64) {
    let insert = ns_per_op(prefixes.len(), || {
        let mut t = PrefixTrie::new();
        for (i, &p) in prefixes.iter().enumerate() {
            t.insert(p, i as u32);
        }
        black_box(&t);
    });
    let mut t = PrefixTrie::new();
    for (i, &p) in prefixes.iter().enumerate() {
        t.insert(p, i as u32);
    }
    let lookup = ns_per_op(addrs.len(), || {
        for &a in addrs {
            black_box(t.lookup(black_box(a)));
        }
    });
    (insert, lookup)
}

/// BGP codec cost per UPDATE message: `(decode_ns, encode_ns)`.
pub fn codec_ns(updates: &[UpdateMsg]) -> (f64, f64) {
    let msgs: Vec<BgpMessage> = updates.iter().cloned().map(BgpMessage::Update).collect();
    let mut buf = Vec::new();
    let encode = ns_per_op(msgs.len(), || {
        for m in &msgs {
            m.encode_into(&mut buf);
            black_box(&buf);
        }
    });
    let wire: Vec<Vec<u8>> = msgs.iter().map(BgpMessage::encode).collect();
    let decode = ns_per_op(wire.len(), || {
        for w in &wire {
            black_box(BgpMessage::decode(black_box(w)).expect("own encoding decodes"));
        }
    });
    (decode, encode)
}

/// `LocRib` cost per UPDATE message: every feed applied in order, each
/// announcement through `apply_update_batch`, each withdrawal through
/// `withdraw` (the router's own sequence).
pub fn rib_ns(feeds: &[(Ipv4Addr, &[UpdateMsg])]) -> f64 {
    let n: usize = feeds.iter().map(|(_, f)| f.len()).sum();
    ns_per_op(n, || {
        let mut rib = LocRib::new();
        for (i, (peer, feed)) in feeds.iter().enumerate() {
            let from = PeerInfo {
                peer: *peer,
                router_id: *peer,
                ebgp: true,
                igp_cost: 0,
            };
            let local_pref = if i == 0 { 200 } else { 100 };
            for u in *feed {
                for &p in &u.withdrawn {
                    black_box(rib.withdraw(p, *peer));
                }
                if let Some(attrs) = &u.attrs {
                    rib.apply_update_batch(attrs, &u.nlri, from, local_pref, |c| {
                        black_box(c);
                    });
                }
            }
        }
        black_box(&rib);
    })
}

/// Per-UPDATE latencies and the engine's counters after one §4 run.
pub struct EngineTiming {
    pub latencies_ns: Vec<f64>,
    pub routes_learned: u64,
    pub announcements: u64,
    pub updates: u64,
}

/// The §4 measurement: `Engine::process_update` latency per UPDATE
/// over the two Fig. 4 providers' feeds, in feed order (the first
/// peer's full table, then the second's).
pub fn engine_timing(primary: &[UpdateMsg], backup: &[UpdateMsg]) -> EngineTiming {
    let mut e = Engine::new(EngineConfig::new(
        "10.0.200.0/24".parse().expect("static prefix"),
        vec![
            PeerSpec {
                id: IP_R2,
                mac: MAC_R2,
                switch_port: 2,
                local_pref: 200,
                router_id: Ipv4Addr::new(2, 2, 2, 2),
            },
            PeerSpec {
                id: IP_R3,
                mac: MAC_R3,
                switch_port: 3,
                local_pref: 100,
                router_id: Ipv4Addr::new(3, 3, 3, 3),
            },
        ],
    ));
    let mut latencies_ns = Vec::with_capacity(primary.len() + backup.len());
    for (peer, feed) in [(IP_R2, primary), (IP_R3, backup)] {
        for u in feed {
            let t0 = Instant::now();
            let actions = e.process_update(peer, u);
            latencies_ns.push(t0.elapsed().as_nanos() as f64);
            black_box(actions);
        }
    }
    EngineTiming {
        latencies_ns,
        routes_learned: e.stats.routes_learned,
        announcements: e.stats.announcements,
        updates: e.stats.updates_processed,
    }
}

/// `FlowTable::lookup` cost per probe key.
pub fn of_lookup_ns(table: &FlowTable, keys: &[FlowKey]) -> f64 {
    let mut t = table.clone();
    ns_per_op(keys.len(), || {
        for k in keys {
            black_box(t.lookup(black_box(k), 64));
        }
    })
}

/// A node that re-arms one timer per fire: the bare kernel dispatch
/// path (scheduler pop + node dispatch + scheduler push).
struct Ticker {
    period: SimDuration,
    left: u64,
}

impl Node for Ticker {
    fn name(&self) -> &str {
        "ticker"
    }
    fn on_start(&mut self, ctx: &mut Ctx) {
        ctx.set_timer_after(self.period, TimerToken(0));
    }
    fn on_frame(&mut self, _ctx: &mut Ctx, _port: PortId, _frame: sc_net::Frame) {}
    fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
        if self.left > 0 {
            self.left -= 1;
            ctx.set_timer_after(self.period, token);
        }
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Kernel cost per timer event: 32 tickers on distinct periods.
pub fn dispatch_ns() -> f64 {
    const NODES: u64 = 32;
    const FIRES: u64 = 20_000;
    ns_per_op((NODES * (FIRES + 1)) as usize, || {
        let mut w = World::new(1);
        for i in 0..NODES {
            w.add_node(Ticker {
                period: SimDuration::from_micros(97 + 2 * i),
                left: FIRES,
            });
        }
        black_box(w.run_until_idle(u64::MAX));
    })
}

/// Elapsed milliseconds of one call.
pub fn ms<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t0 = Instant::now();
    let r = f();
    (r, t0.elapsed().as_secs_f64() * 1e3)
}
