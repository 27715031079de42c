//! Node-side plumbing for running a reliable channel over UDP/IPv4/
//! Ethernet on a simulated port.
//!
//! Every control-plane session in the workspace (BGP, OpenFlow, the
//! controller's REST-like API) is a [`sc_net::channel::Endpoint`] whose
//! segments ride UDP datagrams. This helper owns the endpoint, the
//! addressing, and the retransmission timer bookkeeping, so node
//! implementations stay focused on their protocol logic.

use crate::node::{Ctx, PortId, TimerToken, Wakeup};
use sc_net::channel::{ChannelConfig, ChannelEvent, Endpoint};
use sc_net::wire::{udp_frame_into, UdpDatagram, UdpEndpoints};
use sc_net::{Frame, SimTime};

/// A reliable message channel bound to a UDP endpoint pair on one port.
#[derive(Debug)]
pub struct ChannelPort {
    ep: Endpoint,
    /// True for the active opener (reconnects with a SYN after
    /// [`ChannelPort::reset`]); false for the passive listener.
    active: bool,
    /// Our (src) → peer (dst) addressing.
    pub addr: UdpEndpoints,
    /// The simulated port frames leave through.
    pub port: PortId,
    /// The retransmission timer, on a token the owner dedicates to it.
    pub timer: Wakeup,
    /// Matching datagrams whose payload the endpoint rejected as a
    /// malformed segment (lifetime total, across resets).
    malformed: u64,
}

impl ChannelPort {
    /// Active opener (client side).
    pub fn connect(addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort::new(true, addr, port, timer)
    }

    /// Passive listener (server side).
    pub fn listen(addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort::new(false, addr, port, timer)
    }

    fn new(active: bool, addr: UdpEndpoints, port: PortId, timer: TimerToken) -> ChannelPort {
        ChannelPort {
            ep: Self::endpoint(active),
            active,
            addr,
            port,
            timer: Wakeup::new(timer),
            malformed: 0,
        }
    }

    fn endpoint(active: bool) -> Endpoint {
        if active {
            Endpoint::connect(ChannelConfig::default())
        } else {
            Endpoint::listen(ChannelConfig::default())
        }
    }

    /// Tear the transport down and prepare a fresh connection on the
    /// same 5-tuple: the active side will emit a SYN at the next
    /// [`ChannelPort::flush`] (retransmitted until the peer answers),
    /// the passive side returns to listening. This is the BGP notion of
    /// dropping the TCP connection when the session resets — without it
    /// a reliable channel survives carrier flaps by retransmission and
    /// [`sc_net::channel::ChannelEvent::Connected`] would never fire
    /// again, so the session could never re-establish.
    pub fn reset(&mut self) {
        self.ep = Self::endpoint(self.active);
        self.timer.disarm();
    }

    /// Does this datagram belong to this channel (right 5-tuple)?
    pub fn matches(&self, d: &UdpDatagram<'_>) -> bool {
        d.udp.dst_port == self.addr.src_port
            && d.udp.src_port == self.addr.dst_port
            && d.ip.src == self.addr.dst_ip
            && d.ip.dst == self.addr.src_ip
    }

    /// Queue an application message for reliable delivery. Call
    /// [`ChannelPort::flush`] afterwards (or at end of handler).
    pub fn send(&mut self, msg: Vec<u8>) {
        self.ep.send(msg);
    }

    /// A cleared recycled buffer to encode the next message into; hand
    /// it back via [`ChannelPort::send`] (zero-alloc, zero-copy: the
    /// endpoint returns acknowledged messages' buffers to its pool).
    pub fn take_buffer(&mut self) -> Vec<u8> {
        self.ep.take_buffer()
    }

    /// Feed a matching datagram; returns delivered events in order.
    pub fn on_datagram(&mut self, d: &UdpDatagram<'_>, now: SimTime) -> Vec<ChannelEvent> {
        // A corrupted segment that survived the UDP checksum (or a
        // malformed peer) is counted and dropped; retransmission
        // repairs it.
        self.ep.on_segment(d.payload, now).unwrap_or_else(|_| {
            self.malformed += 1;
            Vec::new()
        })
    }

    /// Fold this channel's lifetime counters into a metrics registry.
    pub fn fold_metrics(&self, reg: &mut sc_net::metrics::Registry) {
        reg.add("channel.malformed_segments", self.malformed);
    }

    /// Transmit everything due and (re-)arm the retransmission timer.
    /// Each segment is encoded straight into its frame's recycled
    /// buffer.
    pub fn flush(&mut self, ctx: &mut Ctx) {
        let now = ctx.now();
        loop {
            let mut due = false;
            let frame = Frame::build(|buf| {
                udp_frame_into(buf, self.addr, 64, |seg| {
                    due = self.ep.poll_transmit(now, seg);
                });
            });
            if !due {
                break; // the unused buffer returns to the pool
            }
            ctx.send_frame(self.port, frame);
        }
        self.timer.arm(ctx, self.ep.next_wakeup());
    }

    /// Handle the channel's retransmission timer (call from `on_timer`
    /// when the token matches).
    pub fn on_timer(&mut self, ctx: &mut Ctx) {
        self.timer.fired(ctx.now());
        self.flush(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkParams;
    use crate::node::{Node, NodeId};
    use crate::world::World;
    use sc_net::wire::peek_udp_frame;
    use sc_net::MacAddr;
    use std::any::Any;
    use std::net::Ipv4Addr;

    /// A node that reliably sends `to_send` messages to its peer and
    /// records everything it receives.
    struct Talker {
        name: String,
        chan: Option<ChannelPort>,
        to_send: Vec<Vec<u8>>,
        received: Vec<Vec<u8>>,
        connected: bool,
    }

    impl Talker {
        fn new(name: &str) -> Talker {
            Talker {
                name: name.into(),
                chan: None,
                to_send: Vec::new(),
                received: Vec::new(),
                connected: false,
            }
        }
    }

    impl Node for Talker {
        fn name(&self) -> &str {
            &self.name
        }
        fn on_start(&mut self, ctx: &mut Ctx) {
            if let Some(chan) = &mut self.chan {
                for m in self.to_send.drain(..) {
                    chan.send(m);
                }
                chan.flush(ctx);
            }
        }
        fn on_frame(&mut self, ctx: &mut Ctx, _port: PortId, frame: sc_net::Frame) {
            let Ok(Some(d)) = peek_udp_frame(&frame) else {
                return;
            };
            let chan = self.chan.as_mut().unwrap();
            if !chan.matches(&d) {
                return;
            }
            for ev in chan.on_datagram(&d, ctx.now()) {
                match ev {
                    ChannelEvent::Delivered(m) => self.received.push(m),
                    ChannelEvent::Connected => self.connected = true,
                    ChannelEvent::PeerClosed => {}
                }
            }
            chan.flush(ctx);
        }
        fn on_timer(&mut self, ctx: &mut Ctx, token: TimerToken) {
            let chan = self.chan.as_mut().unwrap();
            if token == chan.timer.token() {
                chan.on_timer(ctx);
            }
        }
        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn wire_up(loss: f64) -> (World, NodeId, NodeId) {
        let mut w = World::new(77);
        let a = w.add_node(Talker::new("client"));
        let b = w.add_node(Talker::new("server"));
        let (_l, pa, pb) = w.connect(
            a,
            b,
            LinkParams {
                loss,
                ..LinkParams::with_latency(sc_net::SimDuration::from_micros(50))
            },
        );
        let addr_a = UdpEndpoints {
            src_mac: MacAddr::new(0, 0, 0, 0, 0, 1),
            dst_mac: MacAddr::new(0, 0, 0, 0, 0, 2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 40000,
            dst_port: 6653,
        };
        w.node_mut::<Talker>(a).chan = Some(ChannelPort::connect(addr_a, pa, TimerToken(1)));
        w.node_mut::<Talker>(b).chan =
            Some(ChannelPort::listen(addr_a.flipped(), pb, TimerToken(1)));
        (w, a, b)
    }

    #[test]
    fn lossless_delivery_in_order() {
        let (mut w, a, b) = wire_up(0.0);
        w.node_mut::<Talker>(a).to_send = (0..20u8).map(|i| vec![i]).collect();
        w.run_until_idle(100_000);
        let got: Vec<u8> = w.node::<Talker>(b).received.iter().map(|m| m[0]).collect();
        assert_eq!(got, (0..20).collect::<Vec<u8>>());
        assert!(w.node::<Talker>(a).connected);
        assert!(w.node::<Talker>(b).connected);
    }

    #[test]
    fn lossy_link_repaired_by_retransmission() {
        let (mut w, a, b) = wire_up(0.25);
        w.node_mut::<Talker>(a).to_send = (0..50u8).map(|i| vec![i]).collect();
        w.run_until_idle(1_000_000);
        let got: Vec<u8> = w.node::<Talker>(b).received.iter().map(|m| m[0]).collect();
        assert_eq!(
            got,
            (0..50).collect::<Vec<u8>>(),
            "in order despite 25% loss"
        );
        assert!(w.stats().frames_dropped_loss > 0, "loss actually happened");
    }

    #[test]
    fn bidirectional_traffic() {
        let (mut w, a, b) = wire_up(0.0);
        w.node_mut::<Talker>(a).to_send = vec![b"ping".to_vec()];
        w.node_mut::<Talker>(b).to_send = vec![b"pong".to_vec()];
        w.run_until_idle(100_000);
        assert_eq!(w.node::<Talker>(b).received, vec![b"ping".to_vec()]);
        assert_eq!(w.node::<Talker>(a).received, vec![b"pong".to_vec()]);
    }
}
