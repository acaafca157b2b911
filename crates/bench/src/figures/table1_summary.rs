//! Table 1: summary of TCP implementations.
//!
//! The qualitative comparison, with this reproduction's measured evidence
//! attached to each claim (run the figure reports for the full data).

use crate::{banner, Table, Windows};
use f4t_tcp::{FlowId, FlowTable, FourTuple};
use std::net::Ipv4Addr;

pub fn report(w: Windows) -> String {
    let mut out = banner("Table 1", "summary of existing TCP implementations", w);

    // Evidence probe: the cuckoo flow table really holds 64K+ flows.
    let mut table = FlowTable::with_capacity(65_536);
    let mut held = 0u32;
    for i in 0..65_536u32 {
        let t = FourTuple::new(
            Ipv4Addr::from(0x0a00_0000 | (i & 0xffff)),
            (i % 60_000 + 1_024) as u16,
            Ipv4Addr::new(10, 1, 0, 1),
            80,
        );
        if table.insert(t, FlowId(i)).is_ok() {
            held += 1;
        }
    }

    let mut t = Table::new(&["", "Host CPUs", "Embedded", "ASICs", "Existing FPGAs", "F4T"]);
    t.row(&["Host CPU util.", "bad", "limited", "good", "good", "good"]);
    t.row(&["Connectivity", "64K+", "64K+", "64K+", "~1K", "64K+"]);
    t.row(&["Flexibility", "limited*", "limited*", "none", "limited*", "high"]);
    out += &t.render();
    out += &format!(
        "* low versatility: complex algorithms conflict with peak performance.\n\n\
         Reproduction evidence:\n  \
         - host CPU: F4T removes all kernel-TCP cycles (fig11) and saturates\n    \
         the link with 2 cores (fig08); Linux needs >13 cores (fig01).\n  \
         - connectivity: flow table holds {held} concurrent flows here;\n    \
         echo sustains rate at 64K flows with HBM (fig13).\n  \
         - flexibility: New Reno / CUBIC / Vegas (14/41/68-cycle FPU) all run\n    \
         at the same 125 Mev/s per FPC (fig15); traces match NS3 (fig14);\n    \
         custom algorithms plug in via the CongestionControl trait\n    \
         (examples/custom_cc.rs).\n"
    );
    out
}
