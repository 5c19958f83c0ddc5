//! # borg-experiments
//!
//! The experiment harness regenerating every table and figure of the
//! paper (see DESIGN.md §4 for the full index):
//!
//! | Artifact | Module | CLI subcommand |
//! |---|---|---|
//! | Table II | [`table2`] | `borg-exp table2` |
//! | Figure 1 | [`timeline`] | `borg-exp fig1` |
//! | Figure 2 | [`timeline`] | `borg-exp fig2` |
//! | Figure 3 | [`hvspeedup`] | `borg-exp fig3` |
//! | Figure 4 | [`hvspeedup`] | `borg-exp fig4` |
//! | Figure 5 | [`heatmap`] | `borg-exp fig5` |
//! | Eqs. 3–4 | [`bounds`] | `borg-exp bounds` |
//! | §IV-B fitting | [`fitdemo`] | `borg-exp fit` |
//! | DESIGN.md §5 ablations | [`ablation`] | `borg-exp ablations` |
//! | §VI/VII algorithm dynamics | [`dynamics`] | `borg-exp dynamics` |

#![warn(missing_docs)]
#![forbid(unsafe_code)]
#![deny(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::print_stdout,
    clippy::print_stderr
)]
#![cfg_attr(not(test), deny(clippy::float_cmp, clippy::float_cmp_const))]
// Test regions may spawn raw threads (BORG-L009); the library target's own pass still
// checks every line outside them.
#![cfg_attr(test, allow(clippy::disallowed_methods))]

pub mod ablation;
pub mod bounds;
pub mod dynamics;
pub mod fitdemo;
pub mod heatmap;
pub mod hvspeedup;
pub(crate) mod par;
pub mod report;
pub mod suite;
pub mod table2;
pub mod timeline;
pub mod tracebundle;
