//! Joint-constraint equation formation — the paper's §IV-A transformation.
//!
//! Instead of the exponential all-paths formulation (see
//! `mea_model::paths`), Parma constrains the *joints* of an equivalent
//! per-pair topology (the paper's Figure 5): for each endpoint pair `(i, j)`
//! there are `2n` joints — the source `i`, the destination `j`, `n−1`
//! intermediate voltages `Ua` (the other vertical wires) and `n−1`
//! intermediate voltages `Ub` (the other horizontal wires) — yielding `2n`
//! Kirchhoff current equations per pair and `2n³` for the whole array, with
//! `(2n−1)·n²` unknowns.
//!
//! This crate owns:
//!
//! * [`unknowns`] — the global unknown indexing (`R`, `Ua`, `Ub`),
//! * [`constraint`] — equation and flow-term representations plus residual
//!   evaluation,
//! * [`formation`] — building the equations for one pair or the whole
//!   array (the workload Figures 6, 7 and 9 of the paper time),
//! * [`system`] — the assembled [`EquationSystem`] with census and
//!   residual-validation APIs,
//! * [`pair_topology`] — the Figure-4/5 equivalent topology (routes and
//!   joint census),
//! * [`writer`] — paper-style text rendering and bulk file output, from a
//!   formed system or streamed pair by pair (the Figure-9 I/O workload).

pub mod constraint;
pub mod formation;
pub mod jacobian;
pub mod pair_topology;
pub mod reader;
pub mod system;
pub mod unknowns;
pub mod writer;

pub use constraint::{ConstraintCategory, Equation, FlowTerm, PairValues, PotentialRef};
pub use formation::{
    form_all_equations, form_category_equations, form_pair_equations, FormationCensus,
};
pub use jacobian::{jacobian, JacobianTemplate};
pub use pair_topology::PairTopology;
pub use reader::{read_system, ReadError};
pub use system::EquationSystem;
pub use unknowns::{Unknown, UnknownIndex};
pub use writer::{render_equation, stream_system, write_system};
