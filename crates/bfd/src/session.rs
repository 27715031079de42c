//! The BFD session state machine (RFC 5880 §6.8), asynchronous mode.
//!
//! Calibration note: the paper's lab detects R2's failure via BFD before
//! anything else happens, in both the stock and the supercharged setup.
//! With the workspace defaults (30 ms interval, multiplier 3 — see
//! `sc-router::calibration`) detection takes at most ~90 ms, which is the
//! first term of the supercharged router's ~150 ms convergence budget.

use crate::packet::{BfdDiag, BfdPacket, BfdState};
use sc_net::{SimDuration, SimTime};

/// Static session configuration.
#[derive(Clone, Copy, Debug)]
pub struct BfdConfig {
    /// Our discriminator (non-zero, unique per session on this system).
    pub local_discr: u32,
    /// Desired Min TX Interval.
    pub desired_min_tx: SimDuration,
    /// Required Min RX Interval.
    pub required_min_rx: SimDuration,
    /// Detection multiplier.
    pub detect_mult: u8,
}

impl BfdConfig {
    /// The paper's calibration: 30 ms × 3 ⇒ ≤ 90 ms detection.
    pub fn paper_defaults(local_discr: u32) -> BfdConfig {
        BfdConfig {
            local_discr,
            desired_min_tx: SimDuration::from_millis(30),
            required_min_rx: SimDuration::from_millis(30),
            detect_mult: 3,
        }
    }
}

/// State-change events surfaced to the owner.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BfdEvent {
    /// The session reached Up.
    Up,
    /// The session left Up (diag explains why).
    Down(BfdDiag),
}

/// One asynchronous-mode BFD session.
#[derive(Debug)]
pub struct BfdSession {
    cfg: BfdConfig,
    state: BfdState,
    diag: BfdDiag,
    remote_discr: u32,
    remote_state: BfdState,
    remote_min_rx_us: u32,
    remote_desired_tx_us: u32,
    remote_detect_mult: u8,
    /// When the detection timer fires (armed after the first received
    /// packet).
    detect_deadline: Option<SimTime>,
    /// Next control-packet transmission.
    next_tx: Option<SimTime>,
    /// Deterministic jitter source (RFC mandates 75–100% jitter).
    jitter_state: u64,
    /// Diagnostics.
    pub packets_sent: u64,
    pub packets_received: u64,
    /// FSM state changes (any direction), for the metrics registry.
    pub transitions: u64,
}

impl BfdSession {
    pub fn new(cfg: BfdConfig) -> BfdSession {
        assert!(cfg.local_discr != 0, "discriminator must be non-zero");
        assert!(cfg.detect_mult != 0, "detect mult must be non-zero");
        BfdSession {
            cfg,
            state: BfdState::Down,
            diag: BfdDiag::None,
            remote_discr: 0,
            remote_state: BfdState::Down,
            remote_min_rx_us: 1,
            remote_desired_tx_us: 1_000_000,
            remote_detect_mult: cfg.detect_mult,
            detect_deadline: None,
            next_tx: None,
            jitter_state: cfg.local_discr as u64 ^ 0x9e37_79b9_7f4a_7c15,
            packets_sent: 0,
            packets_received: 0,
            transitions: 0,
        }
    }

    /// Fold this session's counters into a metrics registry (the
    /// embedding node calls this; the sans-io session never sees one).
    pub fn fold_metrics(&self, reg: &mut sc_net::metrics::Registry) {
        reg.add("bfd.packets_sent", self.packets_sent);
        reg.add("bfd.packets_received", self.packets_received);
        reg.add("bfd.transitions", self.transitions);
    }

    /// Begin transmitting (the session starts in Down and bootstraps via
    /// the three-way handshake).
    pub fn start(&mut self, now: SimTime) {
        if self.next_tx.is_none() {
            self.next_tx = Some(now);
        }
    }

    pub fn state(&self) -> BfdState {
        self.state
    }

    pub fn diag(&self) -> BfdDiag {
        self.diag
    }

    /// Administratively disable the session. The peer will observe
    /// `AdminDown` and hold its own session Down without flapping.
    pub fn admin_down(&mut self) -> Option<BfdEvent> {
        let was_up = self.state == BfdState::Up;
        if self.state != BfdState::AdminDown {
            self.transitions += 1;
        }
        self.state = BfdState::AdminDown;
        self.diag = BfdDiag::AdministrativelyDown;
        self.detect_deadline = None;
        was_up.then_some(BfdEvent::Down(BfdDiag::AdministrativelyDown))
    }

    /// The transmit interval currently in force (RFC 5880 §6.8.3: the
    /// negotiated interval, floored at 1 s while the session is not Up).
    pub fn tx_interval(&self) -> SimDuration {
        let negotiated = self
            .cfg
            .desired_min_tx
            .max(SimDuration::from_micros(self.remote_min_rx_us as u64));
        if self.state == BfdState::Up {
            negotiated
        } else {
            negotiated.max(SimDuration::from_secs(1))
        }
    }

    /// The detection time currently in force: remote detect-mult × the
    /// slower of (our required-min-rx, remote desired-min-tx).
    pub fn detection_time(&self) -> SimDuration {
        let base = self
            .cfg
            .required_min_rx
            .max(SimDuration::from_micros(self.remote_desired_tx_us as u64));
        base.saturating_mul(self.remote_detect_mult as u64)
    }

    /// True when liveness evidence is stale: the session is not Up, or
    /// more than half the detection time has passed since the last
    /// received control packet. A live peer transmits at 75–100 % of
    /// the negotiated interval, so with the standard detect-mult of 3
    /// its silence never exceeds ~⅓ of the detection time — half is a
    /// comfortable margin. Degraded-mode route selection in `sc-router`
    /// uses this to quarantine next-hops whose BFD is formally Up but
    /// has gone quiet (the cable was very likely pulled; the detection
    /// timer just hasn't expired yet).
    pub fn is_stale(&self, now: SimTime) -> bool {
        match (self.state, self.detect_deadline) {
            (BfdState::Up, Some(deadline)) => now + self.detection_time() / 2 >= deadline,
            // Up without a deadline cannot happen (the deadline arms on
            // the packet that brought the session Up); treat as fresh.
            (BfdState::Up, None) => false,
            _ => true,
        }
    }

    /// Feed a received control packet (UDP payload, already demuxed to
    /// this session). Returns the state change it caused, if any.
    pub fn on_packet(&mut self, pkt: &BfdPacket, now: SimTime) -> Option<BfdEvent> {
        // Demultiplexing check: if the packet names a session, it must be
        // ours.
        if pkt.your_discr != 0 && pkt.your_discr != self.cfg.local_discr {
            return None;
        }
        if self.state == BfdState::AdminDown {
            return None;
        }
        self.packets_received += 1;
        self.remote_discr = pkt.my_discr;
        self.remote_state = pkt.state;
        self.remote_min_rx_us = pkt.required_min_rx_us.max(1);
        self.remote_desired_tx_us = pkt.desired_min_tx_us;
        self.remote_detect_mult = pkt.detect_mult;

        let mut event = None;
        let was_up = self.state == BfdState::Up;

        if pkt.state == BfdState::AdminDown {
            if self.state != BfdState::Down {
                self.state = BfdState::Down;
                self.transitions += 1;
                self.diag = BfdDiag::NeighborSignaledDown;
                self.detect_deadline = None;
                if was_up {
                    event = Some(BfdEvent::Down(BfdDiag::NeighborSignaledDown));
                }
            }
            return event;
        }

        match self.state {
            BfdState::Down => match pkt.state {
                BfdState::Down => {
                    self.state = BfdState::Init;
                    self.transitions += 1;
                }
                BfdState::Init => {
                    self.state = BfdState::Up;
                    self.transitions += 1;
                    self.diag = BfdDiag::None;
                    self.adopt_fast_cadence(now);
                    event = Some(BfdEvent::Up);
                }
                _ => {}
            },
            BfdState::Init => match pkt.state {
                BfdState::Init | BfdState::Up => {
                    self.state = BfdState::Up;
                    self.transitions += 1;
                    self.diag = BfdDiag::None;
                    self.adopt_fast_cadence(now);
                    event = Some(BfdEvent::Up);
                }
                _ => {}
            },
            BfdState::Up => {
                if pkt.state == BfdState::Down {
                    self.state = BfdState::Down;
                    self.transitions += 1;
                    self.diag = BfdDiag::NeighborSignaledDown;
                    event = Some(BfdEvent::Down(BfdDiag::NeighborSignaledDown));
                }
            }
            BfdState::AdminDown => unreachable!("handled above"),
        }

        // Receipt of any valid packet re-arms the detection timer — but
        // the timer only runs in Init/Up (RFC 5880 §6.8.4). A deadline
        // left armed across a Down transition would pin `next_wakeup`
        // in the past once it expired (poll's detection branch ignores
        // Down), and the owner would spin re-arming an already-due
        // timer until the next handshake packet.
        if matches!(self.state, BfdState::Init | BfdState::Up) {
            self.detect_deadline = Some(now + self.detection_time());
        } else {
            self.detect_deadline = None;
        }
        event
    }

    /// Pump timers: returns `(state change, packet to send)` — each
    /// timer fires at most once per instant, so there is at most one of
    /// each.
    pub fn poll(&mut self, now: SimTime) -> (Option<BfdEvent>, Option<BfdPacket>) {
        let mut event = None;
        let mut out = None;

        // 1. Detection timeout.
        if let Some(deadline) = self.detect_deadline {
            if now >= deadline && matches!(self.state, BfdState::Init | BfdState::Up) {
                let was_up = self.state == BfdState::Up;
                self.state = BfdState::Down;
                self.transitions += 1;
                self.diag = BfdDiag::DetectionTimeExpired;
                self.detect_deadline = None;
                // Forget the remote's identity and timing (it is gone).
                self.remote_discr = 0;
                self.remote_min_rx_us = 1;
                self.remote_desired_tx_us = 1_000_000;
                if was_up {
                    event = Some(BfdEvent::Down(BfdDiag::DetectionTimeExpired));
                }
            }
        }

        // 2. Periodic transmission.
        if let Some(at) = self.next_tx {
            if now >= at {
                out = Some(self.make_packet());
                let interval = self.tx_interval();
                self.next_tx = Some(now + self.apply_jitter(interval));
                self.packets_sent += 1;
            }
        }

        (event, out)
    }

    /// When [`BfdSession::poll`] next has work.
    pub fn next_wakeup(&self) -> Option<SimTime> {
        match (self.next_tx, self.detect_deadline) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (Some(a), None) => Some(a),
            (None, Some(b)) => Some(b),
            (None, None) => None,
        }
    }

    fn make_packet(&self) -> BfdPacket {
        // RFC 5880 §6.8.3: while the session is not Up we must *advertise*
        // a Desired Min TX of at least one second, so the peer's detection
        // timer stays wide during the (slow) bootstrap handshake.
        let advertised_tx = if self.state == BfdState::Up {
            self.cfg.desired_min_tx
        } else {
            self.cfg.desired_min_tx.max(SimDuration::from_secs(1))
        };
        BfdPacket {
            diag: self.diag,
            state: self.state,
            poll: false,
            final_bit: false,
            detect_mult: self.cfg.detect_mult,
            my_discr: self.cfg.local_discr,
            your_discr: self.remote_discr,
            desired_min_tx_us: advertised_tx.as_micros() as u32,
            required_min_rx_us: self.cfg.required_min_rx.as_micros() as u32,
        }
    }

    /// On entering Up the transmit cadence drops from the ≥1 s bootstrap
    /// interval to the negotiated one. The already-armed (slow) timer
    /// must be pulled forward, otherwise the peer — which may switch to
    /// the fast detection time as soon as it sees our Up — would expire
    /// waiting out our stale slow schedule. (Full BFD serializes timing
    /// changes with the Poll sequence; adopting the fast cadence
    /// immediately on the Up transition is the conservative equivalent.)
    fn adopt_fast_cadence(&mut self, now: SimTime) {
        let fast = now + self.apply_jitter(self.tx_interval());
        self.next_tx = Some(match self.next_tx {
            Some(t) => t.min(fast),
            None => fast,
        });
    }

    /// RFC 5880 §6.8.7: jitter the interval to 75–100% (≤90% when
    /// detect-mult is 1). Deterministic per-session.
    fn apply_jitter(&mut self, interval: SimDuration) -> SimDuration {
        self.jitter_state = self
            .jitter_state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let span: u64 = if self.cfg.detect_mult == 1 { 15 } else { 25 };
        let pct = 100 - (self.jitter_state >> 33) % (span + 1); // 75..=100 (or 85..=100)
        SimDuration::from_nanos(interval.as_nanos() * pct / 100)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn pair() -> (BfdSession, BfdSession) {
        (
            BfdSession::new(BfdConfig::paper_defaults(1)),
            BfdSession::new(BfdConfig::paper_defaults(2)),
        )
    }

    type EventLog = Vec<(SimTime, BfdEvent)>;

    /// Event-driven co-simulation of two sessions with symmetric one-way
    /// `latency`; runs until `until`, delivering packets instantly at
    /// their arrival instant. Returns events of each side, timestamped.
    fn cosim(
        a: &mut BfdSession,
        b: &mut BfdSession,
        start: SimTime,
        until: SimTime,
        latency: SimDuration,
        mut deliver_to_b: impl FnMut(SimTime) -> bool,
    ) -> (EventLog, EventLog) {
        a.start(start);
        b.start(start);
        // In-flight packets: (arrival, to_b?, packet)
        let mut wire: Vec<(SimTime, bool, BfdPacket)> = Vec::new();
        let (mut ev_a, mut ev_b) = (Vec::new(), Vec::new());
        let mut now = start;
        loop {
            // Next interesting instant.
            let mut next = SimTime::MAX;
            for t in [a.next_wakeup(), b.next_wakeup()].into_iter().flatten() {
                next = next.min(t);
            }
            for (t, _, _) in &wire {
                next = next.min(*t);
            }
            if next == SimTime::MAX || next > until {
                return (ev_a, ev_b);
            }
            now = now.max(next);
            // Deliver arrivals due now.
            let (due, rest): (Vec<_>, Vec<_>) = wire.into_iter().partition(|(t, _, _)| *t <= now);
            wire = rest;
            for (t, to_b, pkt) in due {
                if to_b {
                    if let Some(e) = b.on_packet(&pkt, t) {
                        ev_b.push((t, e));
                    }
                } else if let Some(e) = a.on_packet(&pkt, t) {
                    ev_a.push((t, e));
                }
            }
            // Pump both sides.
            let (ea, out_a) = a.poll(now);
            if let Some(e) = ea {
                ev_a.push((now, e));
            }
            if let Some(p) = out_a {
                if deliver_to_b(now) {
                    wire.push((now + latency, true, p));
                }
            }
            let (eb, out_b) = b.poll(now);
            if let Some(e) = eb {
                ev_b.push((now, e));
            }
            if let Some(p) = out_b {
                wire.push((now + latency, false, p));
            }
        }
    }

    #[test]
    fn three_way_handshake_reaches_up() {
        let (mut a, mut b) = pair();
        let (ev_a, ev_b) = cosim(
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimTime::from_secs(5),
            SimDuration::from_micros(10),
            |_| true,
        );
        assert_eq!(a.state(), BfdState::Up);
        assert_eq!(b.state(), BfdState::Up);
        assert!(matches!(ev_a.first(), Some((_, BfdEvent::Up))));
        assert!(matches!(ev_b.first(), Some((_, BfdEvent::Up))));
        // Discriminators learned.
        assert!(a.packets_received > 0 && b.packets_received > 0);
    }

    #[test]
    fn detection_fires_within_mult_times_interval() {
        let (mut a, mut b) = pair();
        let cut = SimTime::from_secs(10);
        // Deliver a→b always; b→a packets stop at `cut` (peer dies).
        let (ev_a, _) = cosim(
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimTime::from_secs(15),
            SimDuration::from_micros(10),
            |_| true,
        );
        assert!(ev_a.iter().any(|(_, e)| *e == BfdEvent::Up));
        // Now silence b by not delivering anything further: simulate by
        // polling only a beyond its detection deadline.
        let down_deadline = a.next_wakeup().unwrap();
        let (event, _) = a.poll(down_deadline);
        let _ = cut;
        // Depending on which timer fires first we may need to advance to
        // the detection deadline specifically.
        let mut all = event;
        while all.is_none() {
            let now = a.next_wakeup().expect("session must keep timers while Up");
            let (e, _) = a.poll(now);
            all = e;
            assert!(
                now <= SimTime::from_secs(15) + SimDuration::from_millis(91),
                "detection must fire within detect_mult x interval"
            );
        }
        assert_eq!(all, Some(BfdEvent::Down(BfdDiag::DetectionTimeExpired)));
        assert_eq!(a.state(), BfdState::Down);
    }

    #[test]
    fn paper_calibration_detects_within_90ms() {
        // Bring the pair Up, then kill b and measure the gap between the
        // last packet a received and a's Down event.
        let (mut a, mut b) = pair();
        cosim(
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimTime::from_secs(5),
            SimDuration::from_micros(10),
            |_| true,
        );
        assert_eq!(a.state(), BfdState::Up);
        let t_fail = SimTime::from_secs(5);
        // a hears nothing after t_fail; walk its timers.
        let mut now;
        loop {
            now = a.next_wakeup().unwrap();
            let (event, _) = a.poll(now);
            if event == Some(BfdEvent::Down(BfdDiag::DetectionTimeExpired)) {
                break;
            }
            assert!(now < t_fail + SimDuration::from_millis(200), "runaway");
        }
        let detection_delay = now - t_fail;
        assert!(
            detection_delay <= SimDuration::from_millis(91),
            "detected after {detection_delay}, budget is 90ms"
        );
    }

    #[test]
    fn admin_down_signals_neighbor_without_flap() {
        let (mut a, mut b) = pair();
        cosim(
            &mut a,
            &mut b,
            SimTime::ZERO,
            SimTime::from_secs(5),
            SimDuration::from_micros(10),
            |_| true,
        );
        let ev = b.admin_down();
        assert_eq!(ev, Some(BfdEvent::Down(BfdDiag::AdministrativelyDown)));
        // b transmits AdminDown; a must go Down with NeighborSignaledDown
        // and *not* bounce through Init back to Up.
        let (_, pkt) = b.poll(SimTime::from_secs(5) + SimDuration::from_millis(40));
        let pkt = pkt.expect("AdminDown packet due");
        let a_event = a.on_packet(&pkt, SimTime::from_secs(5) + SimDuration::from_millis(41));
        assert_eq!(a_event, Some(BfdEvent::Down(BfdDiag::NeighborSignaledDown)));
        assert_eq!(a.state(), BfdState::Down);
    }

    #[test]
    fn tx_interval_slow_while_down_fast_while_up() {
        let mut s = BfdSession::new(BfdConfig::paper_defaults(7));
        assert_eq!(s.state(), BfdState::Down);
        assert_eq!(
            s.tx_interval(),
            SimDuration::from_secs(1),
            "floored at 1s while Down"
        );
        // Fake reaching Up via handshake packets.
        let peer = BfdPacket {
            diag: BfdDiag::None,
            state: BfdState::Down,
            poll: false,
            final_bit: false,
            detect_mult: 3,
            my_discr: 9,
            your_discr: 0,
            desired_min_tx_us: 30_000,
            required_min_rx_us: 30_000,
        };
        s.on_packet(&peer, SimTime::ZERO);
        assert_eq!(s.state(), BfdState::Init);
        let peer_init = BfdPacket {
            state: BfdState::Init,
            your_discr: 7,
            ..peer
        };
        let ev = s.on_packet(&peer_init, SimTime::from_millis(10));
        assert_eq!(ev, Some(BfdEvent::Up));
        assert_eq!(s.tx_interval(), SimDuration::from_millis(30));
        assert_eq!(s.detection_time(), SimDuration::from_millis(90));
    }

    #[test]
    fn jitter_stays_in_rfc_band() {
        let mut s = BfdSession::new(BfdConfig::paper_defaults(3));
        let base = SimDuration::from_millis(30);
        for _ in 0..1000 {
            let j = s.apply_jitter(base);
            assert!(j >= SimDuration::from_nanos(base.as_nanos() * 75 / 100));
            assert!(j <= base);
        }
    }

    #[test]
    fn foreign_discriminator_ignored() {
        let mut s = BfdSession::new(BfdConfig::paper_defaults(5));
        let pkt = BfdPacket {
            diag: BfdDiag::None,
            state: BfdState::Up,
            poll: false,
            final_bit: false,
            detect_mult: 3,
            my_discr: 77,
            your_discr: 999, // not us
            desired_min_tx_us: 30_000,
            required_min_rx_us: 30_000,
        };
        assert!(s.on_packet(&pkt, SimTime::ZERO).is_none());
        assert_eq!(s.packets_received, 0);
        assert_eq!(s.state(), BfdState::Down);
    }
}
