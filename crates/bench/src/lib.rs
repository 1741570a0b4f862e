//! # aas-bench — the experiment harness
//!
//! One module per experiment (E1–E20; the retired E19 was folded into
//! E15). Each exposes `run() -> Table` regenerating the experiment's
//! result table; the Criterion targets in `benches/` print these tables
//! and add wall-clock micro-measurements of the hot primitives. See `EXPERIMENTS.md` for the claim ↔ measurement
//! mapping and recorded results.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod common;
pub mod e01;
pub mod e02;
pub mod e03;
pub mod e04;
pub mod e05;
pub mod e06;
pub mod e07;
pub mod e08;
pub mod e09;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e14;
pub mod e15;
pub mod e16;
pub mod e17;
pub mod e18;
pub mod e20;
pub mod table;

pub use table::Table;
