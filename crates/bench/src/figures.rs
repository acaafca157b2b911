//! The paper's evaluation as values: one submodule per figure and table.
//!
//! Each submodule's `report` returns the text the `figures` binary prints
//! for it, and its per-point measurement functions are public, so tests
//! check a figure's shape on the numbers rather than on the text.

use crate::Windows;

/// A report: the text one figure or table prints for the given windows.
pub type Report = fn(Windows) -> String;

/// Declares a submodule per name and [`REPORTS`] from the one list.
macro_rules! reports {
    ($($name:ident),* $(,)?) => {
        $(pub mod $name;)*

        /// Every report, by the name `results/<name>.txt` carries, in print order.
        pub const REPORTS: &[(&str, Report)] = &[$((stringify!($name), $name::report)),*];
    };
}

reports![
    fig01_nginx_linux,
    fig02_rmw_stalls,
    fig07_resources,
    fig08_request_patterns,
    fig09_request_sizes,
    fig10_nginx_rps,
    fig11_cpu_breakdown,
    fig12_nginx_latency,
    fig13_connectivity,
    fig14_cwnd,
    fig15_versatility,
    fig16_header_rate,
    table1_summary,
    ablations,
    cpu_vs_load,
];
