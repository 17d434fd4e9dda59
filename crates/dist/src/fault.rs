//! Fault injection for chaos testing: kill a worker at any protocol point.
//!
//! A [`FaultTransport`] wraps a worker-side [`Transport`] and "kills" the
//! worker when a configured [`KillSpec`] matches a frame event. Two kill
//! modes model the two deployment shapes:
//!
//! * [`KillMode::Sever`] — drop the inner transport (closing both
//!   directions, exactly like a crashed process's socket) and fail every
//!   subsequent operation. Used by in-process loopback chaos tests.
//! * [`KillMode::Exit`] — call `std::process::exit` so the OS closes the
//!   socket. Used by `tps dist worker --kill-at` (the `--dist-local`
//!   spawner forwards it), which is what the CI `dist-chaos` job drives.
//!
//! The trigger fires *after* the matching frame completes: `send:run:1`
//! delivers one full `Run` frame and then dies — a genuine mid-stream
//! death — and `recv:globals` dies right after the worker learns the
//! merged degrees, i.e. while phase 1 runs.

use std::io;
use std::time::Duration;

use crate::protocol::{Message, SERVE_TAG_BASE};
use crate::transport::Transport;

/// Which frame event triggers the kill.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillPoint {
    /// After the `n`-th frame with this tag is received (1-based).
    AfterRecv {
        /// The message tag to match.
        tag: u8,
        /// Which occurrence triggers (1 = first).
        n: u32,
    },
    /// After the `n`-th frame with this tag is sent (1-based).
    AfterSend {
        /// The message tag to match.
        tag: u8,
        /// Which occurrence triggers (1 = first).
        n: u32,
    },
    /// After `n` frames total (sends + receives); `0` kills before the
    /// first frame moves.
    Frames(u32),
}

/// A parsed `--kill-at` specification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct KillSpec {
    /// The trigger.
    pub point: KillPoint,
}

impl KillSpec {
    /// Parse a spec string:
    ///
    /// * `recv:TAG[:N]` — after receiving the N-th frame named `TAG`
    ///   (message names as in the protocol table, case-insensitive);
    /// * `send:TAG[:N]` — after sending the N-th such frame;
    /// * `frames:N` — after N frames in either direction.
    pub fn parse(spec: &str) -> Result<KillSpec, String> {
        let parts: Vec<&str> = spec.split(':').collect();
        let point = match parts.as_slice() {
            ["frames", n] => KillPoint::Frames(
                n.parse()
                    .map_err(|_| format!("kill spec {spec:?}: bad frame count {n:?}"))?,
            ),
            ["recv", tag] => KillPoint::AfterRecv {
                tag: tag_by_name(tag)?,
                n: 1,
            },
            ["send", tag] => KillPoint::AfterSend {
                tag: tag_by_name(tag)?,
                n: 1,
            },
            ["recv", tag, n] => KillPoint::AfterRecv {
                tag: tag_by_name(tag)?,
                n: parse_count(spec, n)?,
            },
            ["send", tag, n] => KillPoint::AfterSend {
                tag: tag_by_name(tag)?,
                n: parse_count(spec, n)?,
            },
            _ => {
                return Err(format!(
                    "kill spec {spec:?}: expected recv:TAG[:N], send:TAG[:N] or frames:N"
                ))
            }
        };
        Ok(KillSpec { point })
    }
}

fn parse_count(spec: &str, n: &str) -> Result<u32, String> {
    let n: u32 = n
        .parse()
        .map_err(|_| format!("kill spec {spec:?}: bad occurrence count {n:?}"))?;
    if n == 0 {
        return Err(format!("kill spec {spec:?}: occurrence counts are 1-based"));
    }
    Ok(n)
}

fn tag_by_name(name: &str) -> Result<u8, String> {
    (1..SERVE_TAG_BASE)
        .filter(|&t| Message::tag_name(t) != "unknown")
        .find(|&t| Message::tag_name(t).eq_ignore_ascii_case(name))
        .ok_or_else(|| format!("unknown message name {name:?} in kill spec"))
}

/// What happens when the kill triggers.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KillMode {
    /// Drop the inner transport and fail all further operations — the
    /// in-process stand-in for a crashed worker.
    Sever,
    /// `std::process::exit(3)` — a real crashed worker process.
    Exit,
}

/// A worker-side transport that dies per a [`KillSpec`] (see module docs).
pub struct FaultTransport<T: Transport> {
    inner: Option<T>,
    spec: KillSpec,
    mode: KillMode,
    frames: u32,
    sends: u32,
    recvs: u32,
    sent_by_tag: [u32; 17],
    recv_by_tag: [u32; 17],
}

impl<T: Transport> FaultTransport<T> {
    /// Wrap `inner`, killing per `spec` with `mode`.
    pub fn new(inner: T, spec: KillSpec, mode: KillMode) -> Self {
        FaultTransport {
            inner: Some(inner),
            spec,
            mode,
            frames: 0,
            sends: 0,
            recvs: 0,
            sent_by_tag: [0; 17],
            recv_by_tag: [0; 17],
        }
    }

    fn dead(&self) -> io::Error {
        io::Error::new(
            io::ErrorKind::BrokenPipe,
            "worker killed by fault injection",
        )
    }

    fn kill(&mut self) {
        match self.mode {
            KillMode::Sever => {
                // Dropping the inner transport closes both directions, as a
                // process death closes its socket.
                self.inner = None;
            }
            KillMode::Exit => std::process::exit(3),
        }
    }

    /// Whether a pre-op trigger (frames:0 style) fires now.
    fn check_pre(&mut self) {
        if self.spec.point == KillPoint::Frames(self.frames) {
            self.kill();
        }
    }

    /// Record a completed frame event and fire a matching trigger.
    fn check_post(&mut self, sent: bool, tag: u8) {
        self.frames += 1;
        let slot = usize::from(tag.min(16));
        let by_tag = if sent {
            self.sends += 1;
            self.sent_by_tag[slot] += 1;
            self.sent_by_tag[slot]
        } else {
            self.recvs += 1;
            self.recv_by_tag[slot] += 1;
            self.recv_by_tag[slot]
        };
        let fired = match self.spec.point {
            KillPoint::Frames(n) => self.frames >= n,
            KillPoint::AfterSend { tag: t, n } => sent && t == tag && by_tag >= n,
            KillPoint::AfterRecv { tag: t, n } => !sent && t == tag && by_tag >= n,
        };
        if fired {
            self.kill();
        }
    }
}

impl<T: Transport> Transport for FaultTransport<T> {
    fn send(&mut self, frame: &[u8]) -> io::Result<()> {
        self.check_pre();
        let Some(inner) = self.inner.as_mut() else {
            return Err(self.dead());
        };
        inner.send(frame)?;
        self.check_post(true, frame.first().copied().unwrap_or(0));
        Ok(())
    }

    fn recv(&mut self) -> io::Result<Vec<u8>> {
        self.check_pre();
        let Some(inner) = self.inner.as_mut() else {
            return Err(self.dead());
        };
        let frame = inner.recv()?;
        self.check_post(false, frame.first().copied().unwrap_or(0));
        if self.inner.is_none() {
            // The trigger severed us on this very frame: the frame was
            // consumed but the worker dies before acting on it — drop it.
            return Err(self.dead());
        }
        Ok(frame)
    }

    fn set_recv_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        match self.inner.as_mut() {
            Some(inner) => inner.set_recv_timeout(timeout),
            None => Err(self.dead()),
        }
    }
}

impl std::fmt::Display for KillSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.point {
            KillPoint::Frames(n) => write!(f, "frames:{n}"),
            KillPoint::AfterSend { tag, n } => {
                write!(f, "send:{}:{n}", Message::tag_name(tag).to_lowercase())
            }
            KillPoint::AfterRecv { tag, n } => {
                write!(f, "recv:{}:{n}", Message::tag_name(tag).to_lowercase())
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::loopback_pair;

    #[test]
    fn parses_all_spec_shapes() {
        assert_eq!(
            KillSpec::parse("frames:7").unwrap().point,
            KillPoint::Frames(7)
        );
        assert_eq!(
            KillSpec::parse("recv:globals").unwrap().point,
            KillPoint::AfterRecv { tag: 4, n: 1 }
        );
        assert_eq!(
            KillSpec::parse("send:Run:3").unwrap().point,
            KillPoint::AfterSend { tag: 11, n: 3 }
        );
        assert_eq!(
            KillSpec::parse("send:LocalClustering").unwrap().point,
            KillPoint::AfterSend { tag: 5, n: 1 }
        );
        assert_eq!(
            KillSpec::parse("send:censuschunk").unwrap().point,
            KillPoint::AfterSend { tag: 18, n: 1 }
        );
        for bad in [
            "",
            "frames",
            "frames:x",
            "recv:NoSuchTag",
            "recv:unknown",
            "send:run:0",
            "whenever",
        ] {
            assert!(KillSpec::parse(bad).is_err(), "{bad:?} should fail");
        }
        let spec = KillSpec::parse("send:run:2").unwrap();
        assert_eq!(KillSpec::parse(&spec.to_string()).unwrap(), spec);
    }

    #[test]
    fn sever_after_nth_send_delivers_then_dies() {
        let (a, mut b) = loopback_pair();
        let mut t =
            FaultTransport::new(a, KillSpec::parse("send:hello:2").unwrap(), KillMode::Sever);
        let hello = Message::Hello { version: 1 }.encode();
        t.send(&hello).unwrap();
        t.send(&hello).unwrap(); // delivered, then severed
        assert_eq!(b.recv().unwrap(), hello);
        assert_eq!(b.recv().unwrap(), hello);
        assert!(t.send(&hello).is_err(), "dead after trigger");
        assert!(b.recv().is_err(), "peer sees the closed channel");
    }

    #[test]
    fn sever_on_recv_consumes_the_frame_and_dies() {
        let (a, mut b) = loopback_pair();
        let mut t = FaultTransport::new(
            a,
            KillSpec::parse("recv:shutdown").unwrap(),
            KillMode::Sever,
        );
        b.send(&Message::Pull.encode()).unwrap();
        b.send(&Message::Shutdown.encode()).unwrap();
        assert_eq!(t.recv().unwrap()[0], 10, "pre-trigger frame passes");
        assert!(t.recv().is_err(), "trigger frame is consumed, worker dies");
        assert!(t.recv().is_err());
    }

    #[test]
    fn frames_zero_kills_before_anything_moves() {
        let (a, mut b) = loopback_pair();
        let mut t = FaultTransport::new(a, KillSpec::parse("frames:0").unwrap(), KillMode::Sever);
        assert!(t.send(&[1, 0, 0, 0, 0]).is_err());
        assert!(b.recv().is_err(), "channel closed without a frame");
    }
}
