//! # zr-sched — the concurrent build scheduler
//!
//! The paper's evaluation (§6) builds many images back-to-back; this
//! crate turns the single-build [`Builder`](zr_build::Builder) into a
//! batch engine. A [`Scheduler`] owns one shared
//! [`ShardedRegistry`](zr_image::ShardedRegistry) and one shared
//! [`LayerStore`](zr_image::LayerStore); each worker thread builds on a
//! private simulated kernel (per-build kernels already isolate state),
//! so the only shared edges are the pull-through blob cache and the
//! layer cache — both designed for concurrent access.
//!
//! There is one pool lifecycle: each batch spawns its workers and
//! [`BatchHandle::wait`] joins them. The caches outlive the batch — they
//! belong to the scheduler — so the next batch on the same scheduler
//! replays what the last one built.
//!
//! ```
//! use zeroroot_core::Mode;
//! use zr_build::BuildOptions;
//! use zr_sched::{BuildRequest, Scheduler, SchedulerConfig};
//!
//! let sched = Scheduler::new(SchedulerConfig {
//!     jobs: 4,
//!     ..SchedulerConfig::default()
//! });
//! let reports = sched.build_many(vec![
//!     BuildRequest::new("a", "FROM alpine:3.19\nRUN apk add sl\n"),
//!     BuildRequest::with_options(
//!         "b",
//!         "FROM centos:7\nRUN yum install -y openssh\n",
//!         BuildOptions::new("b", Mode::Seccomp),
//!     ),
//! ]);
//! assert!(reports.iter().all(|r| r.result.success), "{}", reports[1].result.log_text());
//! // Results come back in input order, whatever order workers finished.
//! assert_eq!(reports[0].id, "a");
//! assert_eq!(reports[1].id, "b");
//! ```
//!
//! Concurrency never trades away determinism: building the same batch
//! serially and with 8 workers yields identical image digests — the
//! scheduler's test suite and the paper-report throughput gate both
//! check exactly that.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod scheduler;

pub use scheduler::{
    BatchHandle, BuildReport, BuildRequest, BuildStatus, LogEvent, Priority, Scheduler,
    SchedulerConfig,
};
