//! # mvrc-bench
//!
//! Shared harness code for regenerating every table and figure of the paper's evaluation
//! (Section 7). The `repro` binary drives these functions from the command line. Timing the
//! analyzer is perfbench's job (`perfbench/`); this crate only reproduces the paper's numbers.

pub mod figures;
pub mod tables;

pub use figures::{figure6, figure7, figure8, Figure8Row, RobustSubsetRow};
pub use tables::{table2, Table2Row};
