//! End-to-end and per-layer benchmark of the NASPipe reproduction.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml --
//! --workload <name> --seed <n> --seconds <s> --trace <0|1>` runs one
//! workload. The untraced run (`--trace 0`) times the workload's public
//! entry point and prints the end-to-end metrics; the traced run
//! (`--trace 1`) times the public calls into each layer and prints the
//! per-layer metrics. Every run checks its outputs against sequential
//! training and prints, last, one JSON line with the verdict, the
//! subnets attempted and failed, and the metrics.

pub mod e2e;
pub mod host;
pub mod layers;
pub mod measure;
pub mod workload;
