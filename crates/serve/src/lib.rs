//! # AP3ESM serving subsystem (`ap3esm-serve`)
//!
//! The ROADMAP's north star is a production system serving km-scale
//! forecast products to heavy traffic — not just a simulation. This crate
//! is the layer that turns the §5.2 AI physics networks (`ap3esm-ai`) and
//! the coupled forecast (`esm::forecast`) into such a service:
//!
//! * [`registry`] — versioned model registry: warm
//!   `TendencyModule`/`RadiationModule` weights + normalisers, atomic
//!   hot-swap ([`ModelRegistry::publish`]) and
//!   [`ModelRegistry::rollback`]. Swaps land on batch boundaries.
//! * [`batcher`] + [`service`] — micro-batching inference: a bounded
//!   submission queue, a batch former that closes on `max_batch` or a
//!   `max_wait` deadline (whichever first), and a worker pool on
//!   `pp::Threads` running **one** batched forward per batch
//!   (`predict_batch_into`, through a workspace each worker owns for its
//!   life) and scattering per-request results.
//! * [`admission`] — per-tenant token-bucket rate limits; together with
//!   the bounded queue this sheds load with structured
//!   [`ServeError::Overloaded`] / [`ServeError::RateLimited`] rejections
//!   instead of unbounded latency.
//! * [`jobs`] — async forecast-job scheduler: background
//!   `esm::forecast` ensemble runs with an LRU product cache keyed by
//!   (region, init-time, member) and dedup of identical in-flight
//!   requests.
//!
//! Everything reports through `obs` (queue-wait / forward-time / latency
//! histograms, batch-size distribution, shed/served counters, a span per
//! batch and per job), so serving runs plug into the existing
//! `target/obs/` report schema and chrome-trace export. Graceful
//! shutdown is a first-class guarantee: [`Service::drain`] stops
//! admitting, flushes in-flight batches and joins workers — every
//! submitted request resolves to a result or an explicit error.

pub mod admission;
pub mod batcher;
pub mod error;
pub mod jobs;
pub mod registry;
pub mod service;

pub use admission::{Admission, TokenBucket};
pub use error::ServeError;
pub use jobs::{coupled_compute, ForecastProduct, ForecastScheduler, ProductHandle, ProductKey};
pub use registry::{warm_modules, ModelRegistry, ModelVersion};
pub use service::{perf_snapshot, ServeConfig, Service, Ticket};
