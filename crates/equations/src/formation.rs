//! Building the joint-constraint equations — the workload the paper's
//! Figures 6, 7 and 9 time.
//!
//! Formation is *per endpoint pair*: pairs are independent work units (the
//! homological "holes" of §III give `(n−1)²` independent cycles, and every
//! pair's equation block touches only that pair's `Ua`/`Ub` unknowns), so
//! any `mea-parallel` strategy can map [`form_pair_equations`] over the
//! pair list. [`form_all_equations`] is the sequential reference.

use crate::constraint::{ConstraintCategory, Equation, FlowTerm, PotentialRef};
use crate::unknowns::UnknownIndex;
use mea_model::{MeaGrid, ZMatrix};

/// Forms the `2 + (cols−1) + (rows−1)` equations of one endpoint pair
/// (`2n` for square arrays).
///
/// `voltage` is the applied `U_ij`; `z` the measured impedance for the
/// pair. Equations arrive in category order: source, destination, all
/// `Ua`, all `Ub`.
pub fn form_pair_equations(
    grid: MeaGrid,
    i: usize,
    j: usize,
    voltage: f64,
    z: f64,
) -> Vec<Equation> {
    let (rows, cols) = (grid.rows(), grid.cols());
    let mut out = Vec::with_capacity(2 + (cols - 1) + (rows - 1));
    for category in ConstraintCategory::ALL {
        out.extend(form_category_equations(grid, i, j, voltage, z, category));
    }
    out
}

/// Forms only one §IV-A category of a pair's equations — the work unit of
/// the category-granular parallel schedules (*Parallel* assigns one thread
/// per category; *Balanced Parallel* partitions these blocks by cost).
pub fn form_category_equations(
    grid: MeaGrid,
    i: usize,
    j: usize,
    voltage: f64,
    z: f64,
    category: ConstraintCategory,
) -> Vec<Equation> {
    assert!(i < grid.rows() && j < grid.cols(), "pair out of range");
    assert!(voltage > 0.0 && z > 0.0, "measured values must be positive");
    let (rows, cols) = (grid.rows(), grid.cols());
    // Equations store wire indices as u16; without this gate an oversized
    // grid would truncate silently through the `as u16` casts below.
    assert!(
        rows <= u16::MAX as usize + 1 && cols <= u16::MAX as usize + 1,
        "wire indices are stored as u16; grids beyond 65536 wires per axis are unsupported"
    );
    let pair = (i as u16, j as u16);
    match category {
        // Source balance at horizontal wire i:
        //   U/Z = U/R_ij + Σ_{k≠j} (U − Ua_k')/R_ik
        ConstraintCategory::Source => {
            let mut terms = Vec::with_capacity(cols);
            terms.push(FlowTerm {
                from: PotentialRef::Applied,
                to: PotentialRef::Ground,
                resistor: pair,
                sign: 1,
            });
            for k in 0..cols {
                if k == j {
                    continue;
                }
                terms.push(FlowTerm {
                    from: PotentialRef::Applied,
                    to: PotentialRef::Ua(UnknownIndex::k_prime(j, k) as u16),
                    resistor: (i as u16, k as u16),
                    sign: 1,
                });
            }
            vec![Equation {
                pair,
                category,
                node: u16::MAX,
                voltage,
                rhs: voltage / z,
                terms,
            }]
        }
        // Destination balance at vertical wire j:
        //   U/Z = U/R_ij + Σ_{m≠i} Ub_m'/R_mj
        ConstraintCategory::Destination => {
            let mut terms = Vec::with_capacity(rows);
            terms.push(FlowTerm {
                from: PotentialRef::Applied,
                to: PotentialRef::Ground,
                resistor: pair,
                sign: 1,
            });
            for m in 0..rows {
                if m == i {
                    continue;
                }
                terms.push(FlowTerm {
                    from: PotentialRef::Ub(UnknownIndex::k_prime(i, m) as u16),
                    to: PotentialRef::Ground,
                    resistor: (m as u16, j as u16),
                    sign: 1,
                });
            }
            vec![Equation {
                pair,
                category,
                node: u16::MAX,
                voltage,
                rhs: voltage / z,
                terms,
            }]
        }
        // Ua balance at each undriven vertical wire k:
        //   (U − Ua_k')/R_ik = Σ_{m≠i} (Ua_k' − Ub_m')/R_mk
        ConstraintCategory::IntermediateUa => {
            let mut out = Vec::with_capacity(cols - 1);
            for k in 0..cols {
                if k == j {
                    continue;
                }
                let kp = UnknownIndex::k_prime(j, k) as u16;
                let mut terms = Vec::with_capacity(rows);
                terms.push(FlowTerm {
                    from: PotentialRef::Applied,
                    to: PotentialRef::Ua(kp),
                    resistor: (i as u16, k as u16),
                    sign: 1,
                });
                for m in 0..rows {
                    if m == i {
                        continue;
                    }
                    terms.push(FlowTerm {
                        from: PotentialRef::Ua(kp),
                        to: PotentialRef::Ub(UnknownIndex::k_prime(i, m) as u16),
                        resistor: (m as u16, k as u16),
                        sign: -1,
                    });
                }
                out.push(Equation {
                    pair,
                    category,
                    node: k as u16,
                    voltage,
                    rhs: 0.0,
                    terms,
                });
            }
            out
        }
        // Ub balance at each undriven horizontal wire m:
        //   Σ_{k≠j} (Ua_k' − Ub_m')/R_mk = Ub_m'/R_mj
        ConstraintCategory::IntermediateUb => {
            let mut out = Vec::with_capacity(rows - 1);
            for m in 0..rows {
                if m == i {
                    continue;
                }
                let mp = UnknownIndex::k_prime(i, m) as u16;
                let mut terms = Vec::with_capacity(cols);
                for k in 0..cols {
                    if k == j {
                        continue;
                    }
                    terms.push(FlowTerm {
                        from: PotentialRef::Ua(UnknownIndex::k_prime(j, k) as u16),
                        to: PotentialRef::Ub(mp),
                        resistor: (m as u16, k as u16),
                        sign: 1,
                    });
                }
                terms.push(FlowTerm {
                    from: PotentialRef::Ub(mp),
                    to: PotentialRef::Ground,
                    resistor: (m as u16, j as u16),
                    sign: -1,
                });
                out.push(Equation {
                    pair,
                    category,
                    node: m as u16,
                    voltage,
                    rhs: 0.0,
                    terms,
                });
            }
            out
        }
    }
}

/// Forms the full array's equations sequentially (the *Single-thread*
/// baseline of §V). Measured impedances come from `z`; the same `voltage`
/// is applied to every pair (5 V in the paper's lab).
pub fn form_all_equations(z: &ZMatrix, voltage: f64) -> Vec<Equation> {
    let _span = mea_obs::span("equations/form_all");
    let grid = z.grid();
    let mut out = Vec::with_capacity(grid.equations());
    for (i, j) in grid.pair_iter() {
        out.extend(form_pair_equations(grid, i, j, voltage, z.get(i, j)));
    }
    mea_obs::counter_add("equations.formed", out.len() as u64);
    out
}

/// Census of a formed system — the counts §IV-A derives analytically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FormationCensus {
    /// Equations per category, indexed by [`ConstraintCategory::index`].
    pub per_category: [usize; 4],
    /// Total equations (`2n³` for square `n×n`).
    pub equations: usize,
    /// Total flow terms (the real formation work; `Θ(n⁴)`).
    pub terms: usize,
}

impl FormationCensus {
    /// Counts a formed equation list.
    pub fn of(equations: &[Equation]) -> Self {
        let mut census = FormationCensus::default();
        census.add(equations);
        census
    }

    /// Adds a block of formed equations, e.g. one pair's, to the counts.
    pub(crate) fn add(&mut self, equations: &[Equation]) {
        for e in equations {
            self.per_category[e.category.index()] += 1;
            self.terms += e.term_count();
        }
        self.equations += equations.len();
    }

    /// The analytic census for a grid, without forming anything.
    pub fn expected(grid: MeaGrid) -> Self {
        let (m, n) = (grid.rows(), grid.cols());
        let pairs = grid.pairs();
        let per_category = [pairs, pairs, pairs * (n - 1), pairs * (m - 1)];
        let equations = per_category.iter().sum();
        // Terms: source n, dest m, each Ua 1+(m−1)=m, each Ub (n−1)+1=n.
        let terms = pairs * (n + m + (n - 1) * m + (m - 1) * n);
        FormationCensus {
            per_category,
            equations,
            terms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_model::CrossingMatrix;

    fn uniform_z(n: usize) -> ZMatrix {
        CrossingMatrix::filled(MeaGrid::square(n), 1500.0)
    }

    #[test]
    fn pair_block_has_2n_equations_in_category_order() {
        let grid = MeaGrid::square(4);
        let eqs = form_pair_equations(grid, 1, 2, 5.0, 1500.0);
        assert_eq!(eqs.len(), 8);
        assert_eq!(eqs[0].category, ConstraintCategory::Source);
        assert_eq!(eqs[1].category, ConstraintCategory::Destination);
        assert!(eqs[2..5]
            .iter()
            .all(|e| e.category == ConstraintCategory::IntermediateUa));
        assert!(eqs[5..8]
            .iter()
            .all(|e| e.category == ConstraintCategory::IntermediateUb));
    }

    #[test]
    fn whole_system_census_matches_paper() {
        for n in [2usize, 3, 5] {
            let z = uniform_z(n);
            let eqs = form_all_equations(&z, 5.0);
            let census = FormationCensus::of(&eqs);
            assert_eq!(census, FormationCensus::expected(z.grid()), "n = {n}");
            assert_eq!(census.equations, 2 * n * n * n, "2n³ equations");
            // Intermediate categories dominate by the cubic skew of §IV-C.
            assert_eq!(census.per_category[2], n * n * (n - 1));
            assert_eq!(census.per_category[3], n * n * (n - 1));
        }
    }

    #[test]
    fn source_equation_structure() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 2, 0, 5.0, 1000.0);
        let src = &eqs[0];
        assert_eq!(src.term_count(), 3); // direct + 2 intermediates
        assert!((src.rhs - 0.005).abs() < 1e-15);
        // Direct term divides by R[2][0].
        assert_eq!(src.terms[0].resistor, (2, 0));
        assert_eq!(src.terms[0].from, PotentialRef::Applied);
        assert_eq!(src.terms[0].to, PotentialRef::Ground);
        // Intermediate terms divide by R[2][k] for k ≠ 0.
        assert_eq!(src.terms[1].resistor, (2, 1));
        assert_eq!(src.terms[2].resistor, (2, 2));
    }

    #[test]
    fn destination_equation_structure() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 2, 0, 5.0, 1000.0);
        let dst = &eqs[1];
        assert_eq!(dst.term_count(), 3);
        // Inflow terms divide by R[m][0] for m ≠ 2.
        assert_eq!(dst.terms[1].resistor, (0, 0));
        assert_eq!(dst.terms[2].resistor, (1, 0));
        assert!(matches!(dst.terms[1].from, PotentialRef::Ub(_)));
    }

    #[test]
    fn ua_equation_balances_across_resistors_on_wire_k() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 0, 0, 5.0, 1000.0);
        // First Ua equation is for k = 1.
        let ua = &eqs[2];
        assert_eq!(ua.category, ConstraintCategory::IntermediateUa);
        assert_eq!(ua.node, 1);
        assert_eq!(ua.rhs, 0.0);
        // Terms: inflow through R[0][1], outflow through R[1][1], R[2][1].
        let resistors: Vec<_> = ua.terms.iter().map(|t| t.resistor).collect();
        assert_eq!(resistors, vec![(0, 1), (1, 1), (2, 1)]);
        assert_eq!(ua.terms[1].sign, -1);
    }

    #[test]
    fn ub_equation_balances_row_m() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 0, 0, 5.0, 1000.0);
        let ub = eqs
            .iter()
            .find(|e| e.category == ConstraintCategory::IntermediateUb)
            .unwrap();
        assert_eq!(ub.node, 1); // first m ≠ 0
        let resistors: Vec<_> = ub.terms.iter().map(|t| t.resistor).collect();
        // Inflows through R[1][1], R[1][2]; outflow through R[1][0].
        assert_eq!(resistors, vec![(1, 1), (1, 2), (1, 0)]);
        assert_eq!(ub.terms.last().unwrap().sign, -1);
    }

    #[test]
    fn category_formation_composes_to_pair_formation() {
        let grid = MeaGrid::new(3, 4);
        let full = form_pair_equations(grid, 1, 2, 5.0, 1100.0);
        let mut composed = Vec::new();
        for c in ConstraintCategory::ALL {
            composed.extend(form_category_equations(grid, 1, 2, 5.0, 1100.0, c));
        }
        assert_eq!(full, composed);
        // Per-category sizes match the census: 1, 1, cols−1, rows−1.
        for (c, want) in ConstraintCategory::ALL.iter().zip([1usize, 1, 3, 2]) {
            assert_eq!(
                form_category_equations(grid, 1, 2, 5.0, 1100.0, *c).len(),
                want,
                "{c:?}"
            );
        }
    }

    #[test]
    fn n1_pair_has_only_source_and_destination() {
        let eqs = form_pair_equations(MeaGrid::square(1), 0, 0, 5.0, 800.0);
        assert_eq!(eqs.len(), 2);
        assert_eq!(eqs[0].term_count(), 1);
        assert_eq!(eqs[1].term_count(), 1);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_nonpositive_measurement() {
        let _ = form_pair_equations(MeaGrid::square(2), 0, 0, 5.0, 0.0);
    }

    #[test]
    fn rectangular_grids_form_cleanly() {
        let grid = MeaGrid::new(2, 5);
        let z = CrossingMatrix::filled(grid, 900.0);
        let eqs = form_all_equations(&z, 5.0);
        let census = FormationCensus::of(&eqs);
        assert_eq!(census, FormationCensus::expected(grid));
        assert_eq!(census.equations, (2 + 4 + 1) * 10);
    }
}
