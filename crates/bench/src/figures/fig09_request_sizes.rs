//! Figure 9: bulk data transfer with various request sizes.
//!
//! Goodput (a) and request rate (b) for sizes from 16 B to 1024 B at
//! several core counts. Paper headline: 50.7 Gbps / 396 Mrps at 16 B with
//! 16 cores, bounded by PCIe (each 16 B request = 16 B command + 16 B
//! payload DMA).

use super::fig08_request_patterns::f4t_point;
use crate::{banner, f, Table, Windows};

pub fn report(w: Windows) -> String {
    let mut out = banner("Fig. 9", "bulk transfer vs request size (F4T)", w);
    let mut gbps = Table::new(&["size (B)", "1C", "2C", "8C", "16C"]);
    let mut mrps = Table::new(&["size (B)", "1C", "2C", "8C", "16C"]);
    for size in [16u32, 64, 128, 256, 512, 1024] {
        let mut grow = vec![size.to_string()];
        let mut rrow = vec![size.to_string()];
        for cores in [1usize, 2, 8, 16] {
            let m = f4t_point(cores, false, size, w);
            grow.push(f(m.goodput_gbps(), 1));
            rrow.push(f(m.mrps(), 1));
        }
        gbps.row(&grow);
        mrps.row(&rrow);
    }
    out += "(a) goodput (Gbps):\n";
    out += &gbps.render();
    out += "\n(b) request rate (Mrps):\n";
    out += &mrps.render();
    out += "\n\
            Paper: 16 B requests reach 50.7 Gbps / 396 Mrps with 16 cores,\n\
            bounded by PCIe bandwidth (16 B command + 16 B payload per request);\n\
            larger requests saturate the 100 G link with 1-2 cores.\n";
    out
}
