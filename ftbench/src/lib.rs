//! FtBench: the repository's two-clock benchmark. See `bench/README.md`.

pub mod child;
pub mod cli;
pub mod e2e;
pub mod json;
pub mod layers;
pub mod record;
pub mod spans;
pub mod spec;
pub mod stats;
pub mod workloads;
