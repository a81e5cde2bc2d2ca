//! # clio-model — application behavioral model (paper Section 2.1)
//!
//! The first benchmark of *Benchmarking the CLI for I/O-Intensive
//! Computing* is driven by a formal model of parallel applications,
//! extended from Rosti et al. with communication requirements:
//!
//! - An **application** is a set of interdependent *programs* that
//!   execute in a coordinated manner ([`Application`]).
//! - A **program** executes a sequence of *working sets*
//!   ([`Program`], [`WorkingSet`]).
//! - A **working set** `Γᵢ = (φᵢ, γᵢ, ρᵢ, τᵢ)` describes `τᵢ`
//!   statistically identical consecutive *phases*, each spending a
//!   fraction `φᵢ` of its time on disk I/O, `γᵢ` on communication and
//!   the remainder on CPU, and each lasting a fraction `ρᵢ` of the
//!   program's reference execution time.
//! - A **phase** is one I/O burst + computation burst + communication
//!   burst, with `Tⁱ = Tⁱ_CPU + Tⁱ_COM + Tⁱ_Disk` (Eq. 1).
//!
//! Aggregate requirements `R_CPU`, `R_Disk`, `R_COM` (Eqs. 3–5) fall out
//! of summing phases ([`Requirements`]).
//!
//! The crate ships the two workloads the paper uses —
//! [`qcrd::qcrd_application`] (Eqs. 8–10) and [`figure1::figure1_program`]
//! (the worked example of Fig. 1) — plus a random model generator
//! ([`synth`]) for stress-testing the simulator with other working-set
//! mixes.
//!
//! ```
//! use clio_model::qcrd::qcrd_application;
//!
//! let app = qcrd_application();
//! let req = app.requirements();
//! // Program 2 is far more I/O-intensive than program 1 (paper Fig. 3).
//! let p1 = app.programs()[0].requirements();
//! let p2 = app.programs()[1].requirements();
//! assert!(p2.io_percentage() > 3.0 * p1.io_percentage());
//! assert!(req.disk > 0.0);
//! ```

#![warn(missing_docs)]

pub mod application;
pub mod catalog;
pub mod figure1;
pub mod phase;
pub mod program;
pub mod qcrd;
pub mod requirements;
pub mod synth;
pub mod validate;
pub mod working_set;

pub use application::Application;
pub use phase::PhaseTimes;
pub use program::Program;
pub use requirements::Requirements;
pub use validate::ModelError;
pub use working_set::WorkingSet;
