//! The BFD control packet (RFC 5880 §4.1), mandatory section only.
//!
//! ```text
//!  0                   1                   2                   3
//!  0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1 2 3 4 5 6 7 8 9 0 1
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |Vers |  Diag   |Sta|P|F|C|A|D|M|  Detect Mult  |    Length     |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! |                       My Discriminator                        |
//! |                      Your Discriminator                       |
//! |                    Desired Min TX Interval                    |
//! |                   Required Min RX Interval                    |
//! |                 Required Min Echo RX Interval                 |
//! +-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+-+
//! ```
//!
//! Intervals are in microseconds on the wire. The authentication section
//! (A bit) is not supported and rejected.

use sc_net::wire::udp::port::BFD_CONTROL;
use sc_net::wire::{be32, need, put32, udp_frame, UdpEndpoints, WireError};
use sc_net::{Frame, MacAddr};
use std::fmt;
use std::net::Ipv4Addr;

/// Packet length without authentication.
pub const PACKET_LEN: usize = 24;

/// Session states (also carried in each packet's `Sta` field).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfdState {
    AdminDown = 0,
    Down = 1,
    Init = 2,
    Up = 3,
}

impl BfdState {
    pub fn from_u8(v: u8) -> BfdState {
        match v & 0b11 {
            0 => BfdState::AdminDown,
            1 => BfdState::Down,
            2 => BfdState::Init,
            _ => BfdState::Up,
        }
    }
}

impl fmt::Display for BfdState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BfdState::AdminDown => "AdminDown",
            BfdState::Down => "Down",
            BfdState::Init => "Init",
            BfdState::Up => "Up",
        };
        write!(f, "{s}")
    }
}

/// Diagnostic codes (RFC 5880 §4.1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfdDiag {
    None = 0,
    DetectionTimeExpired = 1,
    NeighborSignaledDown = 3,
    AdministrativelyDown = 7,
}

impl BfdDiag {
    pub fn from_u8(v: u8) -> BfdDiag {
        match v & 0x1f {
            1 => BfdDiag::DetectionTimeExpired,
            3 => BfdDiag::NeighborSignaledDown,
            7 => BfdDiag::AdministrativelyDown,
            _ => BfdDiag::None,
        }
    }
}

/// A parsed BFD control packet.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct BfdPacket {
    pub diag: BfdDiag,
    pub state: BfdState,
    pub poll: bool,
    pub final_bit: bool,
    pub detect_mult: u8,
    pub my_discr: u32,
    pub your_discr: u32,
    /// Desired Min TX Interval, microseconds.
    pub desired_min_tx_us: u32,
    /// Required Min RX Interval, microseconds.
    pub required_min_rx_us: u32,
}

impl BfdPacket {
    /// Serialize to the 24-byte wire form (version 1, no auth, echo
    /// disabled).
    pub fn encode(&self) -> [u8; PACKET_LEN] {
        let mut buf = [0u8; PACKET_LEN];
        buf[0] = (1 << 5) | (self.diag as u8);
        buf[1] =
            ((self.state as u8) << 6) | ((self.poll as u8) << 5) | ((self.final_bit as u8) << 4);
        buf[2] = self.detect_mult;
        buf[3] = PACKET_LEN as u8;
        put32(&mut buf, 4, self.my_discr);
        put32(&mut buf, 8, self.your_discr);
        put32(&mut buf, 12, self.desired_min_tx_us);
        put32(&mut buf, 16, self.required_min_rx_us);
        put32(&mut buf, 20, 0); // echo disabled
        buf
    }

    /// This packet in its RFC 5881 single-hop frame — UDP port 3784 both
    /// ways, TTL 255 so a receiver can reject anything that crossed a
    /// router — encoded straight into a recycled frame buffer.
    pub fn frame(
        &self,
        src_mac: MacAddr,
        src_ip: Ipv4Addr,
        dst_mac: MacAddr,
        dst_ip: Ipv4Addr,
    ) -> Frame {
        let ep = UdpEndpoints {
            src_mac,
            dst_mac,
            src_ip,
            dst_ip,
            src_port: BFD_CONTROL,
            dst_port: BFD_CONTROL,
        };
        udp_frame(ep, 255, &self.encode())
    }

    /// Parse and validate (RFC 5880 §6.8.6 reception rules that concern
    /// the packet itself).
    pub fn parse(buf: &[u8]) -> Result<BfdPacket, WireError> {
        need(buf, PACKET_LEN)?;
        let version = buf[0] >> 5;
        if version != 1 {
            return Err(WireError::Unsupported("bfd version"));
        }
        let length = buf[3] as usize;
        if length < PACKET_LEN || length > buf.len() {
            return Err(WireError::BadLength);
        }
        let detect_mult = buf[2];
        if detect_mult == 0 {
            return Err(WireError::BadField("detect mult zero"));
        }
        if buf[1] & 0b0000_0100 != 0 {
            return Err(WireError::Unsupported("bfd authentication"));
        }
        let multipoint = buf[1] & 0b0000_0001 != 0;
        if multipoint {
            return Err(WireError::BadField("multipoint bit set"));
        }
        let my_discr = be32(buf, 4);
        if my_discr == 0 {
            return Err(WireError::BadField("my discriminator zero"));
        }
        Ok(BfdPacket {
            diag: BfdDiag::from_u8(buf[0]),
            state: BfdState::from_u8(buf[1] >> 6),
            poll: buf[1] & 0b0010_0000 != 0,
            final_bit: buf[1] & 0b0001_0000 != 0,
            detect_mult,
            my_discr,
            your_discr: be32(buf, 8),
            desired_min_tx_us: be32(buf, 12),
            required_min_rx_us: be32(buf, 16),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> BfdPacket {
        BfdPacket {
            diag: BfdDiag::None,
            state: BfdState::Up,
            poll: false,
            final_bit: false,
            detect_mult: 3,
            my_discr: 0x1111_2222,
            your_discr: 0x3333_4444,
            desired_min_tx_us: 30_000,
            required_min_rx_us: 30_000,
        }
    }

    #[test]
    fn roundtrip_all_states() {
        for state in [
            BfdState::AdminDown,
            BfdState::Down,
            BfdState::Init,
            BfdState::Up,
        ] {
            for diag in [
                BfdDiag::None,
                BfdDiag::DetectionTimeExpired,
                BfdDiag::NeighborSignaledDown,
                BfdDiag::AdministrativelyDown,
            ] {
                for (poll, final_bit) in [(false, false), (true, false), (false, true)] {
                    for your_discr in [0, 1, u32::MAX] {
                        let p = BfdPacket {
                            state,
                            diag,
                            poll,
                            final_bit,
                            your_discr,
                            ..sample()
                        };
                        let bytes = p.encode();
                        assert_eq!(bytes[0] >> 5, 1, "version 1");
                        assert_eq!(bytes[3] as usize, PACKET_LEN);
                        assert_eq!(BfdPacket::parse(&bytes).unwrap(), p);
                    }
                }
            }
        }
    }

    #[test]
    fn frame_is_single_hop_udp() {
        let src = (MacAddr::new(2, 0, 0, 0, 0, 1), Ipv4Addr::new(10, 0, 0, 1));
        let dst = (MacAddr::new(2, 0, 0, 0, 0, 2), Ipv4Addr::new(10, 0, 0, 2));
        let frame = sample().frame(src.0, src.1, dst.0, dst.1);
        let d = sc_net::wire::peek_udp_frame(&frame).unwrap().unwrap();
        assert_eq!((d.eth.src, d.eth.dst), (src.0, dst.0));
        assert_eq!((d.ip.src, d.ip.dst, d.ip.ttl), (src.1, dst.1, 255));
        assert_eq!((d.udp.src_port, d.udp.dst_port), (3784, 3784));
        assert_eq!(BfdPacket::parse(d.payload).unwrap(), sample());
    }

    #[test]
    fn poll_final_flags_roundtrip() {
        let p = BfdPacket {
            poll: true,
            final_bit: true,
            ..sample()
        };
        let parsed = BfdPacket::parse(&p.encode()).unwrap();
        assert!(parsed.poll && parsed.final_bit);
    }

    #[test]
    fn rejects_bad_version_and_fields() {
        let mut b = sample().encode();
        b[0] = (2 << 5) | (b[0] & 0x1f); // version 2
        assert_eq!(
            BfdPacket::parse(&b),
            Err(WireError::Unsupported("bfd version"))
        );

        let mut b = sample().encode();
        b[2] = 0; // detect mult zero
        assert!(BfdPacket::parse(&b).is_err());

        let mut b = sample().encode();
        b[4..8].copy_from_slice(&[0; 4]); // my discr zero
        assert!(BfdPacket::parse(&b).is_err());

        let mut b = sample().encode();
        b[1] |= 0b0000_0100; // auth present
        assert_eq!(
            BfdPacket::parse(&b),
            Err(WireError::Unsupported("bfd authentication"))
        );

        let b = sample().encode();
        assert!(BfdPacket::parse(&b[..20]).is_err());
    }

    #[test]
    fn length_field_checked() {
        let mut b = sample().encode();
        b[3] = 23; // below minimum
        assert_eq!(BfdPacket::parse(&b), Err(WireError::BadLength));
        let mut b = sample().encode();
        b[3] = 30; // longer than buffer
        assert_eq!(BfdPacket::parse(&b), Err(WireError::BadLength));
    }
}
