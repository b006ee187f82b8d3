//! Baseline-versus-Parma comparisons: the asymptotic blow-up the paper
//! argues from (§II-C), and agreement between Parma's fixed point, the
//! analytic-Jacobian Gauss-Newton reference and the exponential path
//! baseline at small scales.

use mea_equations::{FormationCensus, PairTopology};
use mea_model::{exact_path_count, paper_path_count};
use parma::classical::{gauss_newton, GaussNewtonOptions};
use parma::path_solver::PathTable;
use parma::prelude::*;

#[test]
fn joint_constraints_beat_paths_asymptotically() {
    // The §IV-A saving: O(n³) joints vs O(nⁿ) paths, at every paper scale.
    for n in [3usize, 6, 10, 20] {
        let grid = MeaGrid::square(n);
        let (joints, paths) = PairTopology::array_totals(grid);
        assert_eq!(joints, 2 * n * n * n);
        if n > 3 {
            assert!(
                paths > joints as u128 * 100,
                "n = {n}: paths {paths} must dwarf joints {joints}"
            );
        }
    }
    // The paper's n > 6 infeasibility threshold for the path approach:
    // 7^8 ≈ 5.8 M stored paths for the whole array.
    assert!(paper_path_count(7, true) > 5_000_000);
    assert!(exact_path_count(MeaGrid::square(7)) > 1_000_000);
}

#[test]
fn equation_terms_scale_polynomially() {
    // Formation work is Θ(n⁴) terms — polynomial, vs the exponential path
    // storage.
    let t10 = FormationCensus::expected(MeaGrid::square(10)).terms as f64;
    let t20 = FormationCensus::expected(MeaGrid::square(20)).terms as f64;
    let ratio = t20 / t10;
    assert!(
        (14.0..18.0).contains(&ratio),
        "doubling n must ~16× the term count, got {ratio}"
    );
}

#[test]
fn three_solvers_meet_on_small_arrays() {
    // Parma fixed point vs analytic-Jacobian Gauss-Newton: same physics,
    // same root.
    let grid = MeaGrid::square(4);
    let (truth, _) = AnomalyConfig::default().generate(grid, 2222);
    let z = ForwardSolver::new(&truth).unwrap().solve_all();

    let fixed = ParmaSolver::new(ParmaConfig::default()).solve(&z).unwrap();
    let gn = gauss_newton(&z, &z, &GaussNewtonOptions::default()).unwrap();

    assert!(fixed.resistors.rel_max_diff(&truth) < 1e-6);
    assert!(gn.rel_max_diff(&truth) < 1e-6);
    assert!(gn.rel_max_diff(&fixed.resistors) < 1e-5);
}

#[test]
fn naive_path_model_disagrees_with_physics() {
    // The baseline's forward model is *not* the exact effective
    // resistance; its error is what deep-learning corrections in the
    // pre-Parma line of work had to absorb.
    let grid = MeaGrid::square(3);
    let (truth, _) = AnomalyConfig::default().generate(grid, 9);
    let table = PathTable::build(grid, None);
    let naive = table.naive_forward(&truth);
    let exact = ForwardSolver::new(&truth).unwrap().solve_all();
    let gap = naive.rel_max_diff(&exact);
    assert!(
        gap > 0.01,
        "the naive model must deviate measurably, got {gap}"
    );
    for (i, j) in grid.pair_iter() {
        assert!(naive.get(i, j) <= exact.get(i, j) + 1e-9);
    }
}

#[test]
fn path_table_storage_matches_census() {
    for n in [2usize, 3, 4] {
        let grid = MeaGrid::square(n);
        let table = PathTable::build(grid, None);
        assert_eq!(
            table.total_paths() as u128,
            exact_path_count(grid) * (n * n) as u128
        );
    }
}
