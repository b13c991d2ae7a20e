//! Deterministic discrete-event simulation of a multi-GPU training host.
//!
//! The NASPipe paper evaluates on 8 hosts x 4 Nvidia 2080Ti GPUs (11 GB
//! each, PCIe 3.0 x16 at 15 760 MB/s, 40 Gbps Ethernet). This crate
//! substitutes for that hardware: it models GPUs as serially-occupied
//! compute engines with a memory pool, PCIe links as bandwidth-limited
//! transfer resources, and advances a virtual clock through an event queue
//! with fully deterministic tie-breaking.
//!
//! Every quantity the paper's systems evaluation reports — throughput,
//! bubble ratio, ALU utilisation, memory high-water marks, cache hits — is
//! a function of task durations and ordering, which this simulator
//! reproduces exactly and reproducibly.
//!
//! # Example
//!
//! ```
//! use naspipe_sim::cluster::Cluster;
//! use naspipe_sim::time::{SimDuration, SimTime};
//!
//! let mut cluster = Cluster::testbed(4);
//! let gpu = cluster.gpu_mut(naspipe_sim::gpu::GpuId(0));
//! let start = gpu.compute_mut().reserve_from(SimTime::ZERO, SimDuration::from_ms(1.5));
//! assert_eq!(start.as_us(), 0);
//! ```

pub mod cluster;
pub mod event;
pub mod gpu;
pub mod link;
pub mod resource;
pub mod time;

pub use cluster::Cluster;
pub use event::EventQueue;
pub use gpu::{GpuDevice, GpuId, MemoryPool};
pub use link::Link;
pub use resource::Resource;
pub use time::{SimDuration, SimTime};
