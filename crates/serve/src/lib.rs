#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]
//! `foldic-serve` — a batch design-study daemon.
//!
//! The rest of the workspace computes one study per process: the `repro`
//! CLI generates a design, runs the requested experiments and exits. The
//! dominant traffic shape of a *service* built on that harness is very
//! different — mostly re-runs of the same study with a small config delta
//! — which turns the manifest digest machinery of `foldic-obs` into a
//! cache key. This crate supplies the serving layer, zero-dependency like
//! the rest of the workspace (hand-rolled TCP + HTTP/1.1 + JSON, same
//! idiom as `foldic_obs::json`):
//!
//! * [`http`] — a bounded, typed HTTP/1.1 request parser and response
//!   writer. Truncated requests, oversized headers/bodies and malformed
//!   syntax yield typed 4xx errors, never panics or hangs;
//! * [`job`] — the job-submission JSON schema ([`job::JobSpec`]) with
//!   strict field validation;
//! * [`queue`] — a bounded FIFO [`queue::Scheduler`] with admission
//!   control (full queue ⇒ 429 + `Retry-After`), cancel-before-start,
//!   oversized jobs dispatched alone, and drain-on-shutdown;
//! * [`cache`] — the content-addressed [`cache::ResultCache`], keyed on
//!   the FNV-1a digest of the canonical manifest config (the `repro
//!   compare` schema), entries carrying full manifest provenance,
//!   optionally spilled to a verified-on-load cache directory;
//! * [`journal`] — the write-ahead job [`journal::Journal`]
//!   (`foldic-serve-journal/1`): fsync-before-ack acceptance records and
//!   torn-tail-tolerant replay, so a SIGKILLed daemon loses no
//!   acknowledged job;
//! * [`chaos`] — the deterministic chaos harness behind
//!   `repro loadgen --chaos`: seeded mid-load SIGKILL, client
//!   disconnects and slow-loris submissions against a real subprocess
//!   daemon, gating on the durability invariants;
//! * [`server`] — the TCP daemon tying it together: job submission,
//!   status/result/cancel endpoints, stats, graceful shutdown;
//! * [`client`] — a minimal blocking HTTP client for tests and the load
//!   generator;
//! * [`loadgen`] — a seeded multi-client load generator replaying
//!   hit/miss/cancel/deadline job mixes and emitting a
//!   `foldic-serve-bench/2` report (throughput, latency percentiles, hit
//!   ratio, server-side counter deltas), so "heavy traffic" is a tested
//!   property;
//! * [`telemetry`] — the live-telemetry hub: the
//!   `foldic-serve-metrics/1` exposition contract behind `GET /metrics`,
//!   request-id allocation, structured-log plumbing and the per-job
//!   trace mux behind `GET /jobs/<id>/trace`.
//!
//! The daemon is generic over a [`queue::StudyRunner`]; the real runner
//! (which executes `foldic-bench` experiments and emits run manifests)
//! lives in `foldic-bench`, keeping this crate free of flow dependencies.

pub mod cache;
pub mod chaos;
pub mod client;
pub mod cost;
pub mod http;
pub mod job;
pub mod journal;
pub mod loadgen;
pub mod overload;
pub mod queue;
pub mod server;
pub mod telemetry;

pub use cache::ResultCache;
pub use job::JobSpec;
pub use journal::{Journal, JournalError, Replay};
pub use queue::{Scheduler, SchedulerConfig, StudyRunner, Submission};
pub use server::{Server, ServerConfig};
pub use telemetry::{Telemetry, TelemetryConfig};
