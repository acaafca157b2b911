//! Figure 7: FtEngine FPGA resource utilization.
//!
//! Reproduced with the component-level resource model calibrated to the
//! paper's Vivado totals (1 FPC: 16 % LUT / 11 % FF / 27 % BRAM; 8 FPC:
//! 23 % / 15 % / 32 % of a U280). The shape to check: FPCs are cheap
//! relative to the shared data path, so scaling 1 → 8 FPCs costs only a
//! few percent of the device.

use crate::{banner, f, Table, Windows};
use f4t_core::resource_report;

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 7", "FtEngine resource utilization on a Xilinx U280", w);
    for fpcs in [1u64, 8] {
        out += &format!("FtEngine with {fpcs} FPC(s):\n");
        let mut t = Table::new(&["component", "LUT", "LUT %", "FF", "FF %", "BRAM", "BRAM %"]);
        for row in resource_report(fpcs) {
            t.row(&[
                row.component.to_string(),
                row.luts.to_string(),
                f(row.lut_pct(), 1),
                row.ffs.to_string(),
                f(row.ff_pct(), 1),
                row.brams.to_string(),
                f(row.bram_pct(), 1),
            ]);
        }
        out += &t.render();
        out += "\n";
    }
    out += "Paper: 1 FPC = 16% LUT / 11% FF / 27% BRAM; 8 FPCs = 23% / 15% / 32%.\n\
            The remaining logic is available for user functions.\n";
    out
}
