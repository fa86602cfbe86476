//! `aitia-bench` — the experiment harness for the AITIA reproduction.
//!
//! [`experiments`] regenerates every table and figure of the paper's
//! evaluation section; the `report` binary renders them beside the paper's
//! reported numbers. Wall-clock timing belongs to `perfbench/`.

#![warn(missing_docs)]

pub mod experiments;
