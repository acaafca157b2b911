#![warn(missing_docs)]
//! # f4t-workloads — the evaluation's application workloads
//!
//! Drivers reproducing the paper's workload suite, written against the
//! F4T library's socket API (`f4t-host::F4tLib`) so the system simulator
//! can run them unchanged on any core:
//!
//! * [`BulkSender`] / [`BulkReceiver`] — iperf-style fixed-size send
//!   requests rotating over a flow set: one flow per core is the bulk
//!   transfer (§5.1, Figs. 2, 8a, 9, 16); "each CPU core generates send
//!   requests in a round-robin manner for 16 flows" is the same sender
//!   over 16 (§5.1, Fig. 8b); with a minimum gap between sends it is the
//!   FtStorm slowloris dripper.
//! * [`RequestClient`] / [`RequestServer`] — closed-loop request/response
//!   with one message outstanding per flow. Echo is the
//!   `(msg, msg)` case, the 128 B ping-pong connectivity benchmark with
//!   the worst-case TCB locality (§5.3, Fig. 13); wrk + Nginx is the
//!   `(128, 256)` case, the server paying application cycles plus a VFS
//!   read as kernel time ([`http`]; §5.2, Figs. 1, 10–12).
//! * [`storm`] — the rest of the FtStorm hostile-scenario drivers
//!   (DESIGN.md §14): the synchronized incast sender, the connect/close
//!   churn client, and the one [`SinkServer`] that receives all three
//!   scenarios, answering a churning peer's FIN with a close.
//!
//! Every driver is pure bookkeeping over library pointers; CPU cycle
//! costs are returned to the caller (the per-core loop in `f4t-system`)
//! so utilization accounting stays in one place.

pub mod bulk;
pub mod http;
pub mod request;
pub mod storm;

pub use bulk::{BulkReceiver, BulkSender};
pub use http::{NGINX_RESPONSE_BYTES, WRK_REQUEST_BYTES};
pub use request::{RequestClient, RequestServer, ECHO_APP_CYCLES};
pub use storm::{
    ChurnClient, IncastSender, SinkServer, CHURN_APP_CYCLES, CHURN_REQUEST_BYTES,
    INCAST_BURST_BYTES, INCAST_EPOCH_NS, SLOWLORIS_DRIP_BYTES,
};
