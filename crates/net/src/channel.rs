//! A reliable, in-order *message* transport — a deliberately simplified
//! TCP.
//!
//! BGP and OpenFlow both assume a reliable, ordered byte stream (real
//! deployments use TCP). Re-implementing full TCP would add nothing to
//! the paper's experiments, which depend only on reliable in-order
//! delivery and latency; this module provides exactly that as a
//! **poll-based state machine** in the style the networking guides
//! recommend (no I/O, no timers of its own — the caller supplies `now`
//! and asks what to transmit, which is what a discrete-event node needs).
//!
//! Properties:
//! * message-oriented: each `send` is delivered as one message;
//! * cumulative ACKs, fixed RTO retransmission, bounded in-flight window;
//! * out-of-order segments are buffered and re-sequenced;
//! * duplicate segments are discarded and re-ACKed;
//! * a 2-segment handshake (`SYN` / `SYN|ACK`) and a `FIN` half-close.
//!
//! The simplifications versus TCP (no window scaling, no congestion
//! control, no byte-stream framing) are documented in `DESIGN.md` §2.

use crate::time::{SimDuration, SimTime};
use crate::wire::{need, WireError};
use std::collections::{BTreeMap, VecDeque};

const FLAG_DATA: u8 = 0x01;
const FLAG_ACK: u8 = 0x02;
const FLAG_SYN: u8 = 0x04;
const FLAG_FIN: u8 = 0x08;

/// Fixed segment header: flags(1) seq(8) ack(8) len(2).
pub const SEGMENT_HEADER_LEN: usize = 19;

/// Configuration for a channel endpoint.
#[derive(Clone, Copy, Debug)]
pub struct ChannelConfig {
    /// Retransmission timeout for unacknowledged segments.
    pub rto: SimDuration,
    /// Maximum number of unacknowledged data segments in flight.
    pub window: usize,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            rto: SimDuration::from_millis(200),
            window: 32,
        }
    }
}

/// Connection state.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ChannelState {
    /// Passive side waiting for a SYN (the initial state).
    Listen,
    /// Active side: SYN sent, waiting for SYN|ACK.
    SynSent,
    /// Both sides may exchange data.
    Established,
    /// Peer sent FIN (or we did); no further data expected.
    Closed,
}

/// Events surfaced to the application by [`Endpoint::on_segment`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum ChannelEvent {
    /// The handshake completed (reported once per endpoint).
    Connected,
    /// An application message arrived, in order.
    Delivered(Vec<u8>),
    /// The peer closed the channel.
    PeerClosed,
}

/// Counters for diagnostics and tests.
#[derive(Clone, Copy, Default, Debug, PartialEq, Eq)]
pub struct ChannelStats {
    pub segments_sent: u64,
    pub segments_received: u64,
    pub retransmits: u64,
    pub duplicates_dropped: u64,
    pub messages_delivered: u64,
}

#[derive(Debug)]
struct InFlight {
    seq: u64,
    payload: Vec<u8>,
    /// None = never transmitted yet.
    last_sent: Option<SimTime>,
    fin: bool,
}

/// One endpoint of a reliable message channel.
#[derive(Debug)]
pub struct Endpoint {
    cfg: ChannelConfig,
    state: ChannelState,
    /// Next sequence number to assign to an outgoing message.
    next_seq: u64,
    /// Outgoing messages: unsent and unacknowledged, in seq order.
    queue: VecDeque<InFlight>,
    /// Next expected incoming sequence number.
    recv_next: u64,
    /// Out-of-order buffer: seq -> (payload, fin).
    reorder: BTreeMap<u64, (Vec<u8>, bool)>,
    /// A (re-)ACK should be emitted even if there is no data to send.
    ack_pending: bool,
    /// SYN bookkeeping.
    syn_last_sent: Option<SimTime>,
    /// True once we have proof the peer's handshake completed: an
    /// opener stuck in SynSent only ever emits pure SYNs, so any
    /// received segment *without* the SYN flag is that proof. Until
    /// then a listener keeps the SYN flag on everything it sends
    /// (SYN|ACK, and SYN-marked data/FIN), so the opener can complete
    /// even when its SYN|ACK was lost or data was piggy-backed over it.
    peer_handshake_done: bool,
    connected_reported: bool,
    stats: ChannelStats,
    /// Recycled message buffers: acknowledged payloads return here and
    /// [`Endpoint::send_from`] reuses them, so a steady-state sender
    /// allocates no fresh `Vec<u8>` per message.
    free: Vec<Vec<u8>>,
}

/// Cap on recycled message buffers kept per endpoint (a few windows'
/// worth; beyond that the memory is better returned to the allocator).
const FREE_POOL_CAP: usize = 64;

impl Endpoint {
    /// A passive endpoint, waiting for the peer's SYN.
    pub fn listen(cfg: ChannelConfig) -> Endpoint {
        Endpoint {
            cfg,
            state: ChannelState::Listen,
            next_seq: 0,
            queue: VecDeque::new(),
            recv_next: 0,
            reorder: BTreeMap::new(),
            ack_pending: false,
            syn_last_sent: None,
            peer_handshake_done: false,
            connected_reported: false,
            stats: ChannelStats::default(),
            free: Vec::new(),
        }
    }

    /// An active endpoint; a SYN will be emitted by the next
    /// [`Endpoint::poll_transmit`].
    pub fn connect(cfg: ChannelConfig) -> Endpoint {
        let mut ep = Endpoint::listen(cfg);
        ep.state = ChannelState::SynSent;
        ep
    }

    /// Current connection state.
    pub fn state(&self) -> ChannelState {
        self.state
    }

    /// Diagnostics counters.
    pub fn stats(&self) -> ChannelStats {
        self.stats
    }

    /// Number of queued-or-in-flight outgoing messages.
    pub fn backlog(&self) -> usize {
        self.queue.len()
    }

    /// Queue an application message for reliable delivery.
    ///
    /// Messages may be queued in any state; they flow once established.
    pub fn send(&mut self, msg: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(InFlight {
            seq,
            payload: msg,
            last_sent: None,
            fin: false,
        });
    }

    /// A cleared buffer from the recycle pool (or a fresh one). Encode
    /// into it and hand it back via [`Endpoint::send`]: the zero-alloc,
    /// zero-copy send path (acknowledged messages return their buffers
    /// to the pool, so a steady-state control-plane sender performs no
    /// allocation per message).
    pub fn take_buffer(&mut self) -> Vec<u8> {
        let mut buf = self.free.pop().unwrap_or_default();
        buf.clear();
        buf
    }

    /// Queue a FIN: the peer will observe [`ChannelEvent::PeerClosed`]
    /// after all preceding messages are delivered.
    pub fn close(&mut self) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.queue.push_back(InFlight {
            seq,
            payload: Vec::new(),
            last_sent: None,
            fin: true,
        });
    }

    /// Process an incoming segment; returns application events in order.
    pub fn on_segment(
        &mut self,
        seg: &[u8],
        _now: SimTime,
    ) -> Result<Vec<ChannelEvent>, WireError> {
        need(seg, SEGMENT_HEADER_LEN)?;
        let flags = seg[0];
        let seq = u64::from_be_bytes(seg[1..9].try_into().unwrap());
        let ack = u64::from_be_bytes(seg[9..17].try_into().unwrap());
        let len = u16::from_be_bytes([seg[17], seg[18]]) as usize;
        if seg.len() < SEGMENT_HEADER_LEN + len {
            return Err(WireError::BadLength);
        }
        let payload = &seg[SEGMENT_HEADER_LEN..SEGMENT_HEADER_LEN + len];
        self.stats.segments_received += 1;

        let mut events = Vec::new();

        // A listener only reacts to SYNs. Anything else is a stray
        // segment from a *previous* connection on the same 5-tuple (the
        // peer retransmitting across a [`Endpoint::listen`] reset);
        // buffering it would leak old-epoch data into the next
        // connection's sequence space. Real TCP would RST; we drop and
        // let the peer's own reset/retransmission sort it out.
        if self.state == ChannelState::Listen && flags & FLAG_SYN == 0 {
            self.stats.duplicates_dropped += 1;
            return Ok(events);
        }
        // Any segment without SYN proves the peer is past its handshake
        // (an opener in SynSent only emits pure SYNs) — we can stop
        // SYN-marking our own transmissions.
        if flags & FLAG_SYN == 0 {
            self.peer_handshake_done = true;
        }
        // Data is only acceptable once our handshake completed, with
        // one exception: a just-accepted listener SYN-marks its data
        // (piggy-backed over the SYN|ACK), which is same-epoch by
        // construction. Anything else reaching a SynSent endpoint is
        // old-epoch traffic from before a transport reset — buffering
        // it would leak stale bytes into the new connection's sequence
        // space. Genuine data dropped here is repaired by
        // retransmission once we are established.
        let data_acceptable =
            self.state != ChannelState::SynSent || (flags & FLAG_SYN != 0 && flags & FLAG_ACK != 0);

        // --- handshake ---
        if flags & FLAG_SYN != 0 {
            match self.state {
                ChannelState::Listen => {
                    self.state = ChannelState::Established;
                    // Reply with SYN|ACK at next poll.
                    self.syn_last_sent = None;
                    self.ack_pending = true;
                    if !self.connected_reported {
                        self.connected_reported = true;
                        events.push(ChannelEvent::Connected);
                    }
                }
                ChannelState::SynSent if flags & FLAG_ACK != 0 => {
                    self.state = ChannelState::Established;
                    // The SYN|ACK sender was a listener: it completed.
                    self.peer_handshake_done = true;
                    if !self.connected_reported {
                        self.connected_reported = true;
                        events.push(ChannelEvent::Connected);
                    }
                }
                ChannelState::Established => {
                    if flags == FLAG_SYN && self.recv_next > 0 {
                        // A *pure* SYN after data flowed is not a
                        // handshake duplicate — only a fresh opener
                        // emits those, so the peer reset its endpoint
                        // and is opening a NEW connection against our
                        // stale one. Real TCP would exchange
                        // challenge-ACK/RST; we surface the old
                        // connection's death so the owner resets us
                        // too, and the peer's SYN retransmission then
                        // lands on a fresh endpoint.
                        self.state = ChannelState::Closed;
                        events.push(ChannelEvent::PeerClosed);
                        return Ok(events);
                    }
                    // A pure duplicate SYN of the current handshake
                    // (our SYN|ACK was lost): re-ACK it. SYN-marked
                    // data/ACK segments from a listener that has not
                    // heard from us yet fall through to the normal
                    // ACK/data handling below.
                    if flags == FLAG_SYN {
                        self.ack_pending = true;
                        self.stats.duplicates_dropped += 1;
                    }
                }
                _ => {}
            }
        }

        // --- acknowledgements ---
        // Note: a *pure* ACK never completes the active open — the
        // handshake section above requires the listener's SYN|ACK. A
        // pure ACK reaching a SynSent endpoint can only be old-epoch
        // traffic from a peer that still holds the previous connection
        // (re-ACKing our SYN as a "duplicate"); treating it as a
        // handshake completion would black-hole the new epoch's data as
        // duplicates on the peer. (In SynSent nothing has been
        // transmitted, so the cumulative-ACK pop below is a no-op.)
        if flags & FLAG_ACK != 0 {
            while let Some(front) = self.queue.front() {
                if front.last_sent.is_some() && front.seq < ack {
                    let acked = self.queue.pop_front().expect("front exists");
                    if self.free.len() < FREE_POOL_CAP {
                        self.free.push(acked.payload);
                    }
                } else {
                    break;
                }
            }
        }

        // --- data / fin ---
        if flags & (FLAG_DATA | FLAG_FIN) != 0 && data_acceptable {
            let is_fin = flags & FLAG_FIN != 0;
            if seq < self.recv_next {
                // Duplicate: our ACK was lost; re-ACK.
                self.stats.duplicates_dropped += 1;
                self.ack_pending = true;
            } else {
                self.reorder.insert(seq, (payload.to_vec(), is_fin));
                self.ack_pending = true;
                // Deliver any now-contiguous run.
                while let Some((p, fin)) = self.reorder.remove(&self.recv_next) {
                    self.recv_next += 1;
                    if fin {
                        self.state = ChannelState::Closed;
                        events.push(ChannelEvent::PeerClosed);
                    } else {
                        self.stats.messages_delivered += 1;
                        events.push(ChannelEvent::Delivered(p));
                    }
                }
            }
        }

        Ok(events)
    }

    /// Append the next segment due on the wire to `out`, if any; false
    /// when nothing is due. Call repeatedly until it returns false.
    /// Deterministic in `now`. Encoding straight into the caller's
    /// buffer lets the owner build the whole frame in place.
    pub fn poll_transmit(&mut self, now: SimTime, out: &mut Vec<u8>) -> bool {
        // 1. Handshake segments.
        match self.state {
            ChannelState::SynSent => {
                if self.due(self.syn_last_sent, now) {
                    if self.syn_last_sent.is_some() {
                        self.stats.retransmits += 1;
                    }
                    self.syn_last_sent = Some(now);
                    self.encode(FLAG_SYN, 0, &[], out);
                    return true;
                }
                return false; // no data before establishment
            }
            ChannelState::Listen => return false,
            _ => {}
        }

        // Until the peer is proven established, every segment carries
        // SYN: a just-accepted listener's SYN|ACK may be overtaken by
        // its own piggy-backed data, and the opener must be able to
        // complete off either — while *refusing* unmarked segments,
        // which can only be old-epoch traffic across a transport reset.
        let syn_mark = if self.peer_handshake_done {
            0
        } else {
            FLAG_SYN
        };

        // 2. Data: retransmissions first (oldest outstanding), then fresh
        //    segments while the window allows.
        let mut in_flight = 0;
        for item in self.queue.iter_mut() {
            match item.last_sent {
                Some(t) => {
                    in_flight += 1;
                    if now.saturating_duration_since(t) >= self.cfg.rto {
                        item.last_sent = Some(now);
                        self.stats.retransmits += 1;
                        self.stats.segments_sent += 1;
                        let flags = if item.fin {
                            FLAG_FIN | FLAG_ACK
                        } else {
                            FLAG_DATA | FLAG_ACK
                        } | syn_mark;
                        encode_segment(flags, item.seq, self.recv_next, &item.payload, out);
                        self.ack_pending = false;
                        return true;
                    }
                }
                None => {
                    if in_flight >= self.cfg.window {
                        break;
                    }
                    item.last_sent = Some(now);
                    self.stats.segments_sent += 1;
                    let flags = if item.fin {
                        FLAG_FIN | FLAG_ACK
                    } else {
                        FLAG_DATA | FLAG_ACK
                    } | syn_mark;
                    encode_segment(flags, item.seq, self.recv_next, &item.payload, out);
                    self.ack_pending = false;
                    return true;
                }
            }
        }

        // 3. Pure ACK (doubles as the listener's SYN|ACK reply while the
        //    opener has not completed).
        if self.ack_pending {
            self.ack_pending = false;
            self.stats.segments_sent += 1;
            self.encode(FLAG_ACK | syn_mark, 0, &[], out);
            return true;
        }

        false
    }

    /// Earliest instant at which [`Endpoint::poll_transmit`] could have
    /// new work due to a timeout (retransmission), if any.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        let mut earliest: Option<SimTime> = None;
        let mut consider = |t: Option<SimTime>| {
            if let Some(t) = t {
                let deadline = t + self.cfg.rto;
                earliest = Some(match earliest {
                    Some(e) if e <= deadline => e,
                    _ => deadline,
                });
            }
        };
        if self.state == ChannelState::SynSent {
            consider(self.syn_last_sent);
        }
        for item in &self.queue {
            consider(item.last_sent);
        }
        earliest
    }

    fn due(&self, last: Option<SimTime>, now: SimTime) -> bool {
        match last {
            None => true,
            Some(t) => now.saturating_duration_since(t) >= self.cfg.rto,
        }
    }

    fn encode(&mut self, flags: u8, seq: u64, payload: &[u8], out: &mut Vec<u8>) {
        self.stats.segments_sent += 1;
        encode_segment(flags, seq, self.recv_next, payload, out);
    }
}

fn encode_segment(flags: u8, seq: u64, ack: u64, payload: &[u8], out: &mut Vec<u8>) {
    out.push(flags);
    out.extend_from_slice(&seq.to_be_bytes());
    out.extend_from_slice(&ack.to_be_bytes());
    out.extend_from_slice(&(payload.len() as u16).to_be_bytes());
    out.extend_from_slice(payload);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// The next segment due, as its own buffer.
    fn next_seg(ep: &mut Endpoint, now: SimTime) -> Option<Vec<u8>> {
        let mut seg = Vec::new();
        ep.poll_transmit(now, &mut seg).then_some(seg)
    }

    fn segment(flags: u8, seq: u64, ack: u64, payload: &[u8]) -> Vec<u8> {
        let mut seg = Vec::new();
        encode_segment(flags, seq, ack, payload, &mut seg);
        seg
    }

    /// Drive both endpoints until neither has anything to transmit,
    /// delivering every segment with optional loss decided by `lose`.
    fn pump(
        a: &mut Endpoint,
        b: &mut Endpoint,
        now: SimTime,
        mut lose: impl FnMut(usize) -> bool,
    ) -> (Vec<ChannelEvent>, Vec<ChannelEvent>) {
        let mut ev_a = Vec::new();
        let mut ev_b = Vec::new();
        let mut n = 0;
        loop {
            let mut progressed = false;
            while let Some(seg) = next_seg(a, now) {
                progressed = true;
                if !lose(n) {
                    ev_b.extend(b.on_segment(&seg, now).unwrap());
                }
                n += 1;
            }
            while let Some(seg) = next_seg(b, now) {
                progressed = true;
                if !lose(n) {
                    ev_a.extend(a.on_segment(&seg, now).unwrap());
                }
                n += 1;
            }
            if !progressed {
                return (ev_a, ev_b);
            }
        }
    }

    #[test]
    fn handshake_then_messages_in_order() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"one".to_vec());
        a.send(b"two".to_vec());
        a.send(b"three".to_vec());
        let (ev_a, ev_b) = pump(&mut a, &mut b, t(0), |_| false);
        assert!(ev_a.contains(&ChannelEvent::Connected));
        assert!(ev_b.contains(&ChannelEvent::Connected));
        let msgs: Vec<&[u8]> = ev_b
            .iter()
            .filter_map(|e| match e {
                ChannelEvent::Delivered(m) => Some(m.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(
            msgs,
            vec![b"one".as_slice(), b"two".as_slice(), b"three".as_slice()]
        );
        assert_eq!(a.backlog(), 0, "all segments acked");
        assert_eq!(a.state(), ChannelState::Established);
        assert_eq!(b.state(), ChannelState::Established);
    }

    #[test]
    fn loss_is_repaired_by_retransmission() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 4,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        for i in 0..10u8 {
            a.send(vec![i]);
        }
        // Lose every third segment on the first exchange.
        let (_, ev_b0) = pump(&mut a, &mut b, t(0), |n| n % 3 == 0);
        // Advance past RTO repeatedly until everything is delivered.
        let mut delivered: Vec<u8> = ev_b0
            .iter()
            .filter_map(|e| match e {
                ChannelEvent::Delivered(m) => Some(m[0]),
                _ => None,
            })
            .collect();
        for round in 1..20 {
            let (_, ev_b) = pump(&mut a, &mut b, t(round * 150), |_| false);
            delivered.extend(ev_b.iter().filter_map(|e| match e {
                ChannelEvent::Delivered(m) => Some(m[0]),
                _ => None,
            }));
            if delivered.len() == 10 {
                break;
            }
        }
        assert_eq!(
            delivered,
            (0..10).collect::<Vec<u8>>(),
            "in order despite loss"
        );
        assert!(a.stats().retransmits > 0);
        assert_eq!(a.backlog(), 0);
    }

    #[test]
    fn duplicates_are_dropped_and_reacked() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"msg".to_vec());
        // Capture the data segment and deliver it twice.
        let syn = next_seg(&mut a, t(0)).unwrap();
        b.on_segment(&syn, t(0)).unwrap();
        let synack = next_seg(&mut b, t(0)).unwrap();
        a.on_segment(&synack, t(0)).unwrap();
        let data = next_seg(&mut a, t(0)).unwrap();
        let ev1 = b.on_segment(&data, t(0)).unwrap();
        let ev2 = b.on_segment(&data, t(0)).unwrap();
        assert_eq!(
            ev1.iter()
                .filter(|e| matches!(e, ChannelEvent::Delivered(_)))
                .count(),
            1
        );
        assert!(ev2.iter().all(|e| !matches!(e, ChannelEvent::Delivered(_))));
        assert_eq!(b.stats().duplicates_dropped, 1);
    }

    #[test]
    fn out_of_order_reassembled() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        // Establish first.
        pump(&mut a, &mut b, t(0), |_| false);
        a.send(b"A".to_vec());
        a.send(b"B".to_vec());
        let s1 = next_seg(&mut a, t(1)).unwrap();
        let s2 = next_seg(&mut a, t(1)).unwrap();
        // Deliver in reverse order.
        let ev_first = b.on_segment(&s2, t(2)).unwrap();
        assert!(ev_first
            .iter()
            .all(|e| !matches!(e, ChannelEvent::Delivered(_))));
        let ev_second = b.on_segment(&s1, t(2)).unwrap();
        let msgs: Vec<&[u8]> = ev_second
            .iter()
            .filter_map(|e| match e {
                ChannelEvent::Delivered(m) => Some(m.as_slice()),
                _ => None,
            })
            .collect();
        assert_eq!(msgs, vec![b"A".as_slice(), b"B".as_slice()]);
    }

    #[test]
    fn window_limits_in_flight() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 2,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        pump(&mut a, &mut b, t(0), |_| false);
        for i in 0..5u8 {
            a.send(vec![i]);
        }
        // Without ACKs coming back, only `window` data segments emerge.
        let mut sent = 0;
        while let Some(_seg) = next_seg(&mut a, t(1)) {
            sent += 1;
            assert!(sent <= 2, "window must cap in-flight segments");
        }
        assert_eq!(sent, 2);
    }

    #[test]
    fn fin_delivered_after_data() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"last-words".to_vec());
        a.close();
        let (_, ev_b) = pump(&mut a, &mut b, t(0), |_| false);
        let kinds: Vec<u8> = ev_b
            .iter()
            .map(|e| match e {
                ChannelEvent::Connected => 0,
                ChannelEvent::Delivered(_) => 1,
                ChannelEvent::PeerClosed => 2,
            })
            .collect();
        assert_eq!(kinds, vec![0, 1, 2]);
        assert_eq!(b.state(), ChannelState::Closed);
    }

    #[test]
    fn next_wakeup_tracks_oldest_unacked() {
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(100),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        assert_eq!(a.next_wakeup(), None, "nothing sent yet");
        let _syn = next_seg(&mut a, t(5)).unwrap();
        assert_eq!(a.next_wakeup(), Some(t(105)));
    }

    #[test]
    fn malformed_segments_rejected() {
        let mut a = Endpoint::listen(ChannelConfig::default());
        assert!(a.on_segment(&[0u8; 5], t(0)).is_err());
        // Length field larger than buffer.
        let mut seg = segment(FLAG_DATA, 0, 0, b"xy");
        seg[18] = 200;
        assert!(a.on_segment(&seg, t(0)).is_err());
    }

    #[test]
    fn reconnect_against_stale_endpoint_restarts_cleanly() {
        // Establish and exchange data, then the client resets (fresh
        // connect endpoint, the BGP transport-restart path) while the
        // server still holds the old connection.
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        a.send(b"old-epoch".to_vec());
        pump(&mut a, &mut b, t(0), |_| false);
        assert_eq!(b.state(), ChannelState::Established);

        // A stale pure ACK from the old server must NOT complete a new
        // opener's handshake (the old failure mode: Connected fired,
        // then every new-epoch message died as a "duplicate").
        let mut a2 = Endpoint::connect(ChannelConfig::default());
        let _syn = next_seg(&mut a2, t(1000)).unwrap();
        let stale_ack = segment(FLAG_ACK, 0, 42, &[]);
        let ev = a2.on_segment(&stale_ack, t(1001)).unwrap();
        assert!(
            !ev.contains(&ChannelEvent::Connected),
            "pure ACK must not complete the open"
        );
        assert_eq!(a2.state(), ChannelState::SynSent);

        // The new SYN reaching the stale established server kills the
        // old connection (PeerClosed) instead of being "re-ACKed".
        let syn = next_seg(&mut a2, t(1200)).unwrap();
        let ev = b.on_segment(&syn, t(1201)).unwrap();
        assert_eq!(ev, vec![ChannelEvent::PeerClosed]);
        assert_eq!(b.state(), ChannelState::Closed);

        // The server's owner resets to a fresh listener; the opener's
        // SYN retransmission then completes a clean new connection that
        // really delivers data.
        let mut b2 = Endpoint::listen(ChannelConfig::default());
        a2.send(b"new-epoch".to_vec());
        let (ev_a2, ev_b2) = pump(&mut a2, &mut b2, t(1500), |_| false);
        assert!(ev_a2.contains(&ChannelEvent::Connected));
        assert!(ev_b2.contains(&ChannelEvent::Connected));
        assert!(ev_b2.contains(&ChannelEvent::Delivered(b"new-epoch".to_vec())));
    }

    #[test]
    fn take_buffer_recycles_acked_buffers() {
        let mut a = Endpoint::connect(ChannelConfig::default());
        let mut b = Endpoint::listen(ChannelConfig::default());
        pump(&mut a, &mut b, t(0), |_| false);
        // First batch populates the pool on ACK; the second drains it.
        for round in 0..2u64 {
            for i in 0..5u8 {
                let mut buf = a.take_buffer();
                buf.extend_from_slice(&[i, i, i]);
                a.send(buf);
            }
            let (_, ev_b) = pump(&mut a, &mut b, t(1 + round), |_| false);
            let got: Vec<u8> = ev_b
                .iter()
                .filter_map(|e| match e {
                    ChannelEvent::Delivered(m) => Some(m[0]),
                    _ => None,
                })
                .collect();
            assert_eq!(got, vec![0, 1, 2, 3, 4]);
        }
        assert_eq!(a.backlog(), 0);
        assert_eq!(a.free.len(), 5, "acked buffers returned to the pool");
    }

    #[test]
    fn heavy_loss_eventually_delivers_everything() {
        // Deterministic pseudo-random 40% loss; the channel must still
        // deliver all 50 messages in order.
        let cfg = ChannelConfig {
            rto: SimDuration::from_millis(50),
            window: 8,
        };
        let mut a = Endpoint::connect(cfg);
        let mut b = Endpoint::listen(cfg);
        for i in 0..50u8 {
            a.send(vec![i]);
        }
        let mut rng_state = 12345u64;
        let mut delivered = Vec::new();
        for round in 0..200u64 {
            let (_, ev_b) = pump(&mut a, &mut b, t(round * 60), |_| {
                rng_state = rng_state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (rng_state >> 33) % 10 < 4
            });
            delivered.extend(ev_b.iter().filter_map(|e| match e {
                ChannelEvent::Delivered(m) => Some(m[0]),
                _ => None,
            }));
            if delivered.len() == 50 {
                break;
            }
        }
        assert_eq!(delivered, (0..50).collect::<Vec<u8>>());
    }
}
