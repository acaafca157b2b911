//! The Nginx + wrk HTTP workload's sizes and CPU costs (§5.2, Figs. 1,
//! 10, 11, 12); it runs on [`crate::RequestClient`] and
//! [`crate::RequestServer`].
//!
//! wrk issues closed-loop HTTP GETs; Nginx answers each with a 256 B
//! response "including the HTTP header and the HTML payload" (the paper
//! uses 256 B rather than 128 B because Nginx's header alone exceeds
//! 128 B). The server pays per-request application cycles plus a VFS read
//! for the HTML file — the kernel cost the paper observes remaining even
//! under F4T (Fig. 11's `vfs_read` note).

/// wrk's request size (a minimal GET).
pub const WRK_REQUEST_BYTES: u32 = 128;
/// Nginx's response size (HTTP header + HTML payload).
pub const NGINX_RESPONSE_BYTES: u32 = 256;
/// wrk's application cycles per request.
pub const WRK_APP_CYCLES: u64 = 300;
/// Nginx's application cycles per request: the calibrated Fig. 11
/// budget (see `f4t_host::linux_model`).
pub const NGINX_APP_CYCLES: u64 = 5_000;
/// VFS cost of fetching the HTML file, charged as kernel time (it
/// remains under F4T, Fig. 11).
pub const NGINX_VFS_CYCLES: u64 = 2_000;
