//! Convenience encap/decap for the Ethernet/IPv4/UDP stack.
//!
//! Every control-plane node (router, controller, BFD agent) exchanges UDP
//! datagrams; these helpers build and open the full frame in one call so
//! the per-node code stays focused on its protocol logic. Both directions
//! are copy-free: [`udp_frame_into`] lets the caller encode the payload
//! straight into the frame buffer, and [`peek_udp_frame`] hands the
//! payload back by borrow.

use super::ethernet::{EtherType, EthernetRepr};
use super::ipv4::{protocol, Ipv4Repr};
use super::udp::UdpRepr;
use super::WireError;
use crate::frame::Frame;
use crate::mac::MacAddr;
use std::net::Ipv4Addr;

/// Addressing for one UDP endpoint pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpEndpoints {
    pub src_mac: MacAddr,
    pub dst_mac: MacAddr,
    pub src_ip: Ipv4Addr,
    pub dst_ip: Ipv4Addr,
    pub src_port: u16,
    pub dst_port: u16,
}

impl UdpEndpoints {
    /// The reverse direction (for replies).
    pub fn flipped(self) -> UdpEndpoints {
        UdpEndpoints {
            src_mac: self.dst_mac,
            dst_mac: self.src_mac,
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
        }
    }
}

/// A decapsulated UDP datagram, borrowing its payload from the frame.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct UdpDatagram<'a> {
    pub eth: EthernetRepr,
    pub ip: Ipv4Repr,
    pub udp: UdpRepr,
    pub payload: &'a [u8],
}

impl<'a> UdpDatagram<'a> {
    /// Finish decapsulating an already-parsed IPv4 packet: validates
    /// the UDP layer against `ip`'s pseudo-header. `Ok(None)` when the
    /// packet is well-formed but not UDP.
    pub fn open(
        eth: EthernetRepr,
        ip: Ipv4Repr,
        ip_payload: &'a [u8],
    ) -> Result<Option<UdpDatagram<'a>>, WireError> {
        if ip.protocol != protocol::UDP {
            return Ok(None);
        }
        let (udp, payload) = UdpRepr::parse(ip.src, ip.dst, ip_payload)?;
        Ok(Some(UdpDatagram {
            eth,
            ip,
            udp,
            payload,
        }))
    }
}

/// Bytes of Ethernet + IPv4 + UDP header in front of every payload.
const HEADERS_LEN: usize =
    super::ethernet::HEADER_LEN + super::ipv4::HEADER_LEN + super::udp::HEADER_LEN;

/// Encode an Ethernet/IPv4/UDP frame into `buf` in one pass: `buf` is
/// cleared and sized for the three headers, `payload` appends the
/// datagram payload in place, then the headers are written around it —
/// both length fields and both checksums included. No intermediate
/// segment or packet buffer exists.
pub fn udp_frame_into(
    buf: &mut Vec<u8>,
    ep: UdpEndpoints,
    ttl: u8,
    payload: impl FnOnce(&mut Vec<u8>),
) {
    buf.clear();
    buf.resize(HEADERS_LEN, 0);
    payload(buf);
    let (eth, packet) = buf.split_at_mut(super::ethernet::HEADER_LEN);
    let (ip, segment) = packet.split_at_mut(super::ipv4::HEADER_LEN);
    UdpRepr {
        src_port: ep.src_port,
        dst_port: ep.dst_port,
    }
    .emit(segment, ep.src_ip, ep.dst_ip);
    Ipv4Repr {
        src: ep.src_ip,
        dst: ep.dst_ip,
        protocol: protocol::UDP,
        ttl,
        tos: 0,
        ident: 0,
    }
    .emit(ip, segment.len());
    EthernetRepr {
        dst: ep.dst_mac,
        src: ep.src_mac,
        ethertype: EtherType::Ipv4,
    }
    .emit(eth);
}

/// A [`Frame`] carrying `payload` (built by [`udp_frame_into`] in a
/// recycled buffer).
pub fn udp_frame(ep: UdpEndpoints, ttl: u8, payload: &[u8]) -> Frame {
    Frame::build(|buf| udp_frame_into(buf, ep, ttl, |p| p.extend_from_slice(payload)))
}

/// Parse the Ethernet/IPv4/UDP layers of a frame, validating all three
/// (both checksums included), without copying the payload. Returns
/// `Ok(None)` if the frame is well-formed but *not* UDP-over-IPv4 (e.g.
/// ARP), so callers can fall through to other handlers.
pub fn peek_udp_frame(frame: &[u8]) -> Result<Option<UdpDatagram<'_>>, WireError> {
    let (eth, eth_payload) = EthernetRepr::parse(frame)?;
    if eth.ethertype != EtherType::Ipv4 {
        return Ok(None);
    }
    let (ip, ip_payload) = Ipv4Repr::parse(eth_payload)?;
    UdpDatagram::open(eth, ip, ip_payload)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn endpoints() -> UdpEndpoints {
        UdpEndpoints {
            src_mac: MacAddr::new(0, 0, 0, 0, 0, 1),
            dst_mac: MacAddr::new(0, 0, 0, 0, 0, 2),
            src_ip: Ipv4Addr::new(10, 0, 0, 1),
            dst_ip: Ipv4Addr::new(10, 0, 0, 2),
            src_port: 179,
            dst_port: 40000,
        }
    }

    #[test]
    fn roundtrip() {
        let ep = endpoints();
        let frame = udp_frame(ep, 64, b"bgp-update-bytes");
        let d = peek_udp_frame(&frame).unwrap().unwrap();
        assert_eq!(d.payload, b"bgp-update-bytes");
        assert_eq!(d.udp.src_port, 179);
        assert_eq!(d.udp.dst_port, 40000);
        assert_eq!(d.ip.src, ep.src_ip);
        assert_eq!(d.eth.dst, ep.dst_mac);
    }

    #[test]
    fn flipped_reverses_everything() {
        let ep = endpoints();
        let f = ep.flipped();
        assert_eq!(f.src_mac, ep.dst_mac);
        assert_eq!(f.dst_ip, ep.src_ip);
        assert_eq!(f.src_port, ep.dst_port);
        assert_eq!(f.flipped(), ep);
    }

    #[test]
    fn non_udp_passes_through_as_none() {
        // An ARP frame is not an error, just "not ours".
        let arp = crate::wire::arp::ArpRepr::request(
            MacAddr::new(0, 0, 0, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 1),
            Ipv4Addr::new(10, 0, 0, 2),
        );
        let frame = EthernetRepr {
            dst: MacAddr::BROADCAST,
            src: MacAddr::new(0, 0, 0, 0, 0, 1),
            ethertype: EtherType::Arp,
        }
        .to_frame(&arp.to_bytes());
        assert_eq!(peek_udp_frame(&frame).unwrap(), None);
    }

    #[test]
    fn corrupted_frame_is_an_error() {
        let mut frame = udp_frame(endpoints(), 64, b"data").to_vec();
        let n = frame.len();
        frame[n - 1] ^= 0xff; // flip payload byte -> UDP checksum fails
        assert!(peek_udp_frame(&frame).is_err());
    }
}
