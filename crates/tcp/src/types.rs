//! Flow identity and TCP flag types.

use std::fmt;
use std::net::Ipv4Addr;

/// A globally unique flow identifier.
///
/// The paper: "Flow ID is a unique ID used globally in F4T to identify a
/// flow" (§4.1.2). The RX parser maps a packet's 4-tuple to a `FlowId`
/// through the cuckoo hash table; everything downstream (scheduler,
/// location LUT, FPC CAM) operates on flow ids only.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct FlowId(pub u32);

impl fmt::Display for FlowId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow#{}", self.0)
    }
}

/// The connection 4-tuple: source/destination IPv4 address and port.
///
/// # Examples
///
/// ```
/// use f4t_tcp::FourTuple;
/// use std::net::Ipv4Addr;
/// let t = FourTuple::new(Ipv4Addr::new(10, 0, 0, 1), 40000,
///                        Ipv4Addr::new(10, 0, 0, 2), 80);
/// assert_eq!(t.reversed().src_port, 80);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FourTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Source TCP port.
    pub src_port: u16,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Destination TCP port.
    pub dst_port: u16,
}

impl FourTuple {
    /// Creates a 4-tuple.
    pub fn new(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FourTuple {
        FourTuple { src_ip, src_port, dst_ip, dst_port }
    }

    /// Returns the tuple seen from the other endpoint (src/dst swapped).
    pub fn reversed(&self) -> FourTuple {
        FourTuple {
            src_ip: self.dst_ip,
            src_port: self.dst_port,
            dst_ip: self.src_ip,
            dst_port: self.src_port,
        }
    }
}

impl Default for FourTuple {
    fn default() -> FourTuple {
        FourTuple::new(Ipv4Addr::UNSPECIFIED, 0, Ipv4Addr::UNSPECIFIED, 0)
    }
}

impl fmt::Display for FourTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{}",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port
        )
    }
}

/// TCP header flags (RFC 793 control bits).
///
/// Implemented as a transparent `u8` newtype with constants rather than an
/// enum: flags combine freely, and the event handler accumulates them with
/// a simple OR (paper §4.2.1: "flags other than ACK only indicate the
/// occurrence of each flag and therefore can be accumulated").
///
/// # Examples
///
/// ```
/// use f4t_tcp::TcpFlags;
/// let f = TcpFlags::SYN | TcpFlags::ACK;
/// assert!(f.contains(TcpFlags::SYN));
/// assert!(!f.contains(TcpFlags::FIN));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// No flags set.
    pub const NONE: TcpFlags = TcpFlags(0);
    /// FIN: sender is finished sending.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronize sequence numbers.
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: acknowledgment field is significant.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// URG: urgent pointer is significant.
    pub const URG: TcpFlags = TcpFlags(0x20);

    /// Returns whether all flags in `other` are set in `self`.
    #[inline]
    pub fn contains(self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns whether any flag in `other` is set in `self`.
    #[inline]
    pub fn intersects(self, other: TcpFlags) -> bool {
        self.0 & other.0 != 0
    }

    /// Returns whether no flags are set.
    #[inline]
    pub fn is_empty(self) -> bool {
        self.0 == 0
    }

    /// Inserts the flags in `other` (the event handler's accumulation op).
    #[inline]
    pub fn insert(&mut self, other: TcpFlags) {
        self.0 |= other.0;
    }

    /// Removes the flags in `other`.
    #[inline]
    pub fn remove(&mut self, other: TcpFlags) {
        self.0 &= !other.0;
    }
}

impl std::ops::BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl std::ops::BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (bit, name) in [
            (TcpFlags::FIN, "FIN"),
            (TcpFlags::SYN, "SYN"),
            (TcpFlags::RST, "RST"),
            (TcpFlags::PSH, "PSH"),
            (TcpFlags::ACK, "ACK"),
            (TcpFlags::URG, "URG"),
        ] {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A 48-bit Ethernet MAC address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct MacAddr(pub [u8; 6]);

impl MacAddr {
    /// The broadcast address ff:ff:ff:ff:ff:ff.
    pub const BROADCAST: MacAddr = MacAddr([0xff; 6]);
}

impl fmt::Display for MacAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let b = self.0;
        write!(
            f,
            "{:02x}:{:02x}:{:02x}:{:02x}:{:02x}:{:02x}",
            b[0], b[1], b[2], b[3], b[4], b[5]
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn four_tuple_reverse_involution() {
        let t = FourTuple::new(Ipv4Addr::new(1, 2, 3, 4), 10, Ipv4Addr::new(5, 6, 7, 8), 20);
        assert_eq!(t.reversed().reversed(), t);
        assert_ne!(t.reversed(), t);
        assert_eq!(t.to_string(), "1.2.3.4:10 -> 5.6.7.8:20");
    }

    #[test]
    fn flags_combine_and_test() {
        let mut f = TcpFlags::SYN;
        f |= TcpFlags::ACK;
        assert!(f.contains(TcpFlags::SYN | TcpFlags::ACK));
        assert!(f.intersects(TcpFlags::ACK | TcpFlags::FIN));
        assert!(!f.contains(TcpFlags::FIN));
        f.remove(TcpFlags::SYN);
        assert!(!f.contains(TcpFlags::SYN));
        assert!(!f.is_empty());
    }

    #[test]
    fn flags_accumulate_by_or() {
        // The event-handler property: OR-accumulation preserves occurrence.
        let seen = [TcpFlags::SYN, TcpFlags::ACK, TcpFlags::FIN];
        let mut acc = TcpFlags::NONE;
        for s in seen {
            acc.insert(s);
        }
        for s in seen {
            assert!(acc.contains(s));
        }
    }

    #[test]
    fn flags_display() {
        assert_eq!((TcpFlags::SYN | TcpFlags::ACK).to_string(), "SYN|ACK");
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }

    #[test]
    fn mac_display() {
        assert_eq!(MacAddr([0xde, 0xad, 0, 0, 0xbe, 0xef]).to_string(), "de:ad:00:00:be:ef");
        assert_eq!(MacAddr::BROADCAST.to_string(), "ff:ff:ff:ff:ff:ff");
    }

    #[test]
    fn flow_id_display() {
        assert_eq!(FlowId(3).to_string(), "flow#3");
    }
}
