//! Hardware clock domains.
//!
//! FtEngine runs most modules at 250 MHz, the Ethernet-facing modules at
//! 322 MHz, and the host CPU at 2.3 GHz (the paper's Xeon Gold 5118).
//! [`ClockDomain`] converts between cycle counts, wall-clock nanoseconds
//! and throughput figures without accumulating floating-point drift in the
//! hot loop: conversions are only performed when reporting.

use std::fmt;

/// A fixed-frequency clock domain.
///
/// # Examples
///
/// ```
/// use f4t_sim::ClockDomain;
/// let engine = ClockDomain::ENGINE_CORE;
/// assert_eq!(engine.cycles_to_ns(250), 1_000); // 4 ns per cycle
/// assert_eq!(engine.to_string(), "250 MHz");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ClockDomain {
    freq_hz: u64,
}

impl ClockDomain {
    /// FtEngine's core processing domain (scheduler, FPCs, memory manager).
    pub const ENGINE_CORE: ClockDomain = ClockDomain { freq_hz: 250_000_000 };
    /// FtEngine's network-facing domain (packet generator, RX parser, MAC).
    pub const ENGINE_NET: ClockDomain = ClockDomain { freq_hz: 322_000_000 };
    /// The evaluation host CPU (Intel Xeon Gold 5118, 2.3 GHz).
    pub const HOST_CPU: ClockDomain = ClockDomain { freq_hz: 2_300_000_000 };
    /// TONIC's target domain from the paper (100 MHz, one 128 B segment/cycle).
    pub const TONIC: ClockDomain = ClockDomain { freq_hz: 100_000_000 };

    /// Returns the frequency of this domain in hertz.
    pub fn freq_hz(self) -> u64 {
        self.freq_hz
    }

    /// Converts a cycle count in this domain to nanoseconds (rounded down).
    pub fn cycles_to_ns(self, cycles: u64) -> u64 {
        // cycles / freq * 1e9, computed as u128 to avoid overflow.
        ((cycles as u128 * 1_000_000_000) / self.freq_hz as u128) as u64
    }

    /// Bytes transferred per cycle of this domain on a link of
    /// `gbps` gigabits/second, as an exact rational (numerator, denominator)
    /// in bytes. E.g. a 100 Gbps link delivers 50 bytes per 250 MHz cycle.
    pub fn link_bytes_per_cycle(self, link_gbps: u64) -> (u64, u64) {
        // link_gbps * 1e9 / 8 bytes per second, divided by freq.
        let num = link_gbps * 1_000_000_000 / 8;
        (num, self.freq_hz)
    }
}

impl fmt::Display for ClockDomain {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.freq_hz.is_multiple_of(1_000_000) {
            write!(f, "{} MHz", self.freq_hz / 1_000_000)
        } else {
            write!(f, "{} Hz", self.freq_hz)
        }
    }
}

/// The 250 → 322 MHz crossing of the Ethernet-facing modules (RX parser,
/// packet generator): every engine-core cycle earns
/// `ENGINE_NET / ENGINE_CORE` network cycles, the fraction carried
/// exactly from one cycle to the next.
///
/// # Examples
///
/// ```
/// use f4t_sim::NetCycleCredit;
/// let mut net = NetCycleCredit::default();
/// let earned: u64 = (0..1_000).map(|_| net.tick()).sum();
/// assert_eq!(earned, 1_288); // 322 / 250 network cycles per core cycle
/// ```
#[derive(Debug, Clone, Copy, Default)]
pub struct NetCycleCredit {
    /// Network cycles earned but not yet whole, in units of `1 / DEN`.
    credit: u64,
}

impl NetCycleCredit {
    const NUM: u64 = ClockDomain::ENGINE_NET.freq_hz;
    const DEN: u64 = ClockDomain::ENGINE_CORE.freq_hz;

    /// Advances one engine-core cycle; returns the whole network cycles
    /// it completes (1 or 2).
    #[inline]
    pub fn tick(&mut self) -> u64 {
        self.credit += Self::NUM;
        let whole = self.credit / Self::DEN;
        self.credit %= Self::DEN;
        whole
    }

    /// `n` engine-core cycles whose network cycles go unused, folded into
    /// one modular step (the fast-forward catch-up of an idle module).
    pub fn skip(&mut self, n: u64) {
        let credit = u128::from(self.credit) + u128::from(Self::NUM) * u128::from(n);
        self.credit = (credit % u128::from(Self::DEN)) as u64;
    }
}

/// A byte budget that accrues fractionally per cycle, used to model fixed
/// bandwidth resources (Ethernet link serialization, DRAM, PCIe) without
/// floating point in the per-cycle hot loop.
///
/// Each call to [`BytePacer::tick`] accrues `rate_num / rate_den` bytes of
/// credit (saturating at `burst` bytes); [`BytePacer::try_consume`] spends
/// credit.
///
/// # Examples
///
/// ```
/// use f4t_sim::clock::BytePacer;
/// // 50 bytes/cycle (100 Gbps at 250 MHz), up to one MTU of burst.
/// let mut pacer = BytePacer::new(50, 1, 1600);
/// pacer.tick();
/// assert!(pacer.try_consume(50));
/// assert!(!pacer.try_consume(1));
/// ```
#[derive(Debug, Clone)]
pub struct BytePacer {
    rate_num: u64,
    rate_den: u64,
    /// Credit in units of 1/rate_den bytes.
    credit: u64,
    burst_units: u64,
}

impl BytePacer {
    /// Creates a pacer accruing `rate_num / rate_den` bytes per tick with a
    /// maximum accumulated burst of `burst` bytes.
    ///
    /// # Panics
    ///
    /// Panics if `rate_den` or `burst` is zero.
    pub fn new(rate_num: u64, rate_den: u64, burst: u64) -> BytePacer {
        assert!(rate_den > 0, "rate denominator must be non-zero");
        assert!(burst > 0, "burst must be non-zero");
        BytePacer { rate_num, rate_den, credit: 0, burst_units: burst * rate_den }
    }

    /// Creates a pacer for a link of `gbps` gigabits/second observed from
    /// clock domain `domain`, with a burst of `burst` bytes.
    pub fn for_link(gbps: u64, domain: ClockDomain, burst: u64) -> BytePacer {
        let (num, den) = domain.link_bytes_per_cycle(gbps);
        BytePacer::new(num, den, burst)
    }

    /// Accrues one tick's worth of byte credit.
    #[inline]
    pub fn tick(&mut self) {
        self.credit = (self.credit + self.rate_num).min(self.burst_units);
    }

    /// Accrues `n` ticks' worth of byte credit at once.
    #[inline]
    pub fn tick_n(&mut self, n: u64) {
        self.credit = self
            .credit
            .saturating_add(self.rate_num.saturating_mul(n))
            .min(self.burst_units);
    }

    /// Attempts to consume `bytes` of credit; returns whether it succeeded.
    #[inline]
    pub fn try_consume(&mut self, bytes: u64) -> bool {
        let units = bytes * self.rate_den;
        if self.credit >= units {
            self.credit -= units;
            true
        } else {
            false
        }
    }

    /// Returns the currently available credit in whole bytes.
    pub fn available(&self) -> u64 {
        self.credit / self.rate_den
    }
}

/// Combines two activity horizons, keeping the earlier one.
///
/// A horizon is the earliest cycle at which a module's observable state
/// can next change; `None` means "never, absent new input". Modules
/// report horizons through their `next_activity()` methods and the
/// engine folds them with this combinator to find the first cycle worth
/// executing — everything before it can be fast-forwarded.
///
/// # Examples
///
/// ```
/// use f4t_sim::clock::merge_horizon;
/// assert_eq!(merge_horizon(None, None), None);
/// assert_eq!(merge_horizon(Some(8), None), Some(8));
/// assert_eq!(merge_horizon(Some(8), Some(3)), Some(3));
/// ```
#[inline]
pub fn merge_horizon(a: Option<u64>, b: Option<u64>) -> Option<u64> {
    match (a, b) {
        (Some(a), Some(b)) => Some(a.min(b)),
        (h, None) | (None, h) => h,
    }
}

/// Number of odd cycles in the half-open window `[start, start + n)`.
///
/// Fast-forward catch-up needs this because the FPC's two-phase schedule
/// only touches its dispatch-stall counters on odd cycles; skipping a
/// window must account for exactly the odd cycles the window contained.
///
/// # Examples
///
/// ```
/// use f4t_sim::clock::odd_cycles_in;
/// assert_eq!(odd_cycles_in(0, 4), 2); // 1, 3
/// assert_eq!(odd_cycles_in(1, 3), 2); // 1, 3
/// assert_eq!(odd_cycles_in(2, 0), 0);
/// ```
#[inline]
pub fn odd_cycles_in(start: u64, n: u64) -> u64 {
    if start.is_multiple_of(2) {
        n / 2
    } else {
        n.div_ceil(2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The crossing earns exactly what the per-mille credit it replaced
    /// (`credit += 1288; whole = credit / 1000; credit %= 1000`) earned,
    /// tick by tick and across a skipped idle window.
    #[test]
    fn net_credit_matches_the_per_mille_crossing() {
        let (mut net, mut milli) = (NetCycleCredit::default(), 0u64);
        for i in 0..5_000u64 {
            if i % 700 == 3 {
                net.skip(i);
                milli = (milli + 1288 * i) % 1000;
            }
            milli += 1288;
            assert_eq!(net.tick(), milli / 1000, "cycle {i}");
            milli %= 1000;
        }
    }

    #[test]
    fn cycles_to_ns_rounds_down() {
        assert_eq!(ClockDomain::ENGINE_CORE.cycles_to_ns(250), 1000);
        assert_eq!(ClockDomain::ENGINE_NET.cycles_to_ns(322), 1000);
        assert_eq!(ClockDomain::ENGINE_NET.cycles_to_ns(321), 996);
    }

    #[test]
    fn domain_display() {
        assert_eq!(ClockDomain::ENGINE_CORE.to_string(), "250 MHz");
        assert_eq!(ClockDomain::HOST_CPU.to_string(), "2300 MHz");
        assert_eq!(ClockDomain { freq_hz: 1234 }.to_string(), "1234 Hz");
    }

    #[test]
    fn link_budget_100g_at_250mhz() {
        let (num, den) = ClockDomain::ENGINE_CORE.link_bytes_per_cycle(100);
        // 12.5 GB/s over 250 MHz = 50 bytes/cycle.
        assert_eq!(num as f64 / den as f64, 50.0);
    }

    #[test]
    fn pacer_accrues_and_consumes() {
        let mut p = BytePacer::new(50, 1, 200);
        p.tick();
        p.tick();
        assert_eq!(p.available(), 100);
        assert!(p.try_consume(100));
        assert!(!p.try_consume(1));
        // Burst cap.
        p.tick_n(100);
        assert_eq!(p.available(), 200);
    }

    #[test]
    fn pacer_fractional_rate() {
        // 1/3 byte per tick.
        let mut p = BytePacer::new(1, 3, 10);
        p.tick();
        p.tick();
        assert!(!p.try_consume(1));
        p.tick();
        assert!(p.try_consume(1));
    }
}
