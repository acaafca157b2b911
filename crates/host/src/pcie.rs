//! The PCIe interconnect model.
//!
//! The paper's host link is PCIe Gen3 ×16. Two results hinge on it:
//! Fig. 9's 396 Mrps ceiling at 16 B requests ("bounded by the PCIe
//! bandwidth, where each 16 B request requires a 16 B command and 16 B
//! payload DMA" — 396 M × 32 B ≈ 12.7 GB/s) and Fig. 16a's observation
//! that 16 B commands alone saturate PCIe at extreme rates while 8 B
//! commands scale to ~900 Mrps.
//!
//! The model is a per-direction byte budget at the effective rate of
//! 12.9 GB/s, accrued per 250 MHz engine cycle. TLP/DLLP framing is
//! folded into that rate (descriptors are batched), so a transfer is
//! charged its payload bytes only.

use f4t_sim::clock::BytePacer;
use f4t_sim::ClockDomain;

/// Transfer direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PcieDir {
    /// Host memory → device (command fetch, TX payload DMA reads).
    HostToDevice,
    /// Device → host memory (completions, RX payload DMA writes).
    DeviceToHost,
}

/// The PCIe link.
#[derive(Debug, Clone)]
pub struct PcieModel {
    h2d: BytePacer,
    d2h: BytePacer,
    h2d_bytes: u64,
    d2h_bytes: u64,
    refusals: u64,
}

/// Effective per-direction bandwidth (bytes/s): Gen3 ×16 ≈ 15.75 GB/s raw,
/// ~12.9 GB/s after TLP/DLLP framing with batched descriptors. This is
/// the calibration anchor for Fig. 9's 396 Mrps (DESIGN.md §5).
pub const PCIE_EFFECTIVE_BPS: u64 = 12_900_000_000;

/// Budget a direction can bank: the largest transfer one
/// [`PcieModel::try_transfer`] can ever pass. A longer DMA streams.
pub const PCIE_BURST_BYTES: u64 = 8192;

impl PcieModel {
    /// Creates the Gen3 ×16 model clocked at 250 MHz.
    pub fn gen3x16() -> PcieModel {
        let freq = ClockDomain::ENGINE_CORE.freq_hz();
        PcieModel {
            h2d: BytePacer::new(PCIE_EFFECTIVE_BPS, freq, PCIE_BURST_BYTES),
            d2h: BytePacer::new(PCIE_EFFECTIVE_BPS, freq, PCIE_BURST_BYTES),
            h2d_bytes: 0,
            d2h_bytes: 0,
            refusals: 0,
        }
    }

    /// Accrues one engine cycle of budget in both directions.
    pub fn tick(&mut self) {
        self.h2d.tick();
        self.d2h.tick();
    }

    /// Attempts a transfer of `bytes`; `false` when the direction's
    /// budget is exhausted this cycle (the DMA engine retries).
    pub fn try_transfer(&mut self, dir: PcieDir, bytes: u64) -> bool {
        let (pacer, counter) = match dir {
            PcieDir::HostToDevice => (&mut self.h2d, &mut self.h2d_bytes),
            PcieDir::DeviceToHost => (&mut self.d2h, &mut self.d2h_bytes),
        };
        if pacer.try_consume(bytes) {
            *counter += bytes;
            true
        } else {
            self.refusals += 1;
            false
        }
    }

    /// Bytes moved host→device.
    pub fn h2d_bytes(&self) -> u64 {
        self.h2d_bytes
    }

    /// Bytes moved device→host.
    pub fn d2h_bytes(&self) -> u64 {
        self.d2h_bytes
    }

    /// Budget-limited refusals (indicates the PCIe ceiling was hit).
    pub fn refusals(&self) -> u64 {
        self.refusals
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn budget_is_51_bytes_per_cycle() {
        let mut p = PcieModel::gen3x16();
        p.tick();
        // 12.9 GB/s / 250 MHz = 51.6 B/cycle.
        assert!(p.try_transfer(PcieDir::HostToDevice, 51));
        assert!(!p.try_transfer(PcieDir::HostToDevice, 51));
        assert!(p.refusals() > 0);
    }

    #[test]
    fn directions_are_independent() {
        let mut p = PcieModel::gen3x16();
        p.tick();
        assert!(p.try_transfer(PcieDir::HostToDevice, 51));
        assert!(p.try_transfer(PcieDir::DeviceToHost, 51), "other direction untouched");
        assert_eq!(p.h2d_bytes(), 51);
        assert_eq!(p.d2h_bytes(), 51);
    }

    #[test]
    fn sixteen_byte_requests_cap_near_400mrps() {
        // Fig. 9's ceiling: command (16 B) + payload (16 B) per request,
        // host→device. Count how many fit in 1 ms of budget.
        let mut p = PcieModel::gen3x16();
        let mut served = 0u64;
        for _ in 0..250_000 {
            p.tick();
            while p.try_transfer(PcieDir::HostToDevice, 32) {
                served += 1;
            }
        }
        let mrps = served as f64 / 1e3; // per ms -> Mrps
        assert!((390.0..410.0).contains(&mrps), "got {mrps:.0} Mrps");
    }
}
