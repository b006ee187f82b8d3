//! The supervised session solve, replayed call by call.
//!
//! This mirrors `Pipeline::run_cached` under the supervisor's retry
//! ladder with the `parma` defaults (tol 1e-10, 500 iterations, two
//! escalating retries, detection factor 1.5), but makes each layer call
//! itself so the replay can time it: `SolvePlan::new`,
//! `session::ratio_extrapolate`, `ParmaSolver::solve_supervised` and
//! `detect_anomalies`. The floating-point work is the same calls in the
//! same order, so the results carry the same bits as the program's. Only
//! the traced replay uses it; the harness checks its results against the
//! program's own `BatchSolver` and `SolveService`.

use crate::trace::Tracer;
use mea_model::{MeaGrid, ResistorGrid, WetLabDataset, ZMatrix};
use mea_parallel::CancelToken;
use parma::pipeline::TimePointResult;
use parma::session::ratio_extrapolate;
use parma::supervisor::{classify, escalated};
use parma::{detect_anomalies, ParmaConfig, ParmaError, ParmaSolver, SolvePlan, SolveScratch};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Anomaly-detection factor (`--detect` default).
pub const DETECT: f64 = 1.5;

/// Retries after the first attempt (`--max-retries` default).
pub const MAX_RETRIES: usize = 2;

/// The base solver configuration `parma batch` and `parma serve` run.
pub fn base_config() -> ParmaConfig {
    ParmaConfig {
        tol: 1e-10,
        ..Default::default()
    }
}

/// A warm-start seed: the previous solution and the measurement it answered.
pub type Warm = Option<(ResistorGrid, ZMatrix)>;

/// Plans built so far; a batch attempt starts empty, a serve chain keeps
/// its plans like the service's topology cache.
pub type Plans = Vec<Arc<SolvePlan>>;

/// A failed attempt: the error and the iterations it spent.
pub struct AttemptError {
    pub error: ParmaError,
    pub iterations: u64,
}

/// One attempt at a whole session under `config`.
pub fn attempt(
    ds: &WetLabDataset,
    config: ParmaConfig,
    warm_seed: &Warm,
    plans: &mut Plans,
    tr: &Tracer,
    recoveries: &AtomicU64,
    parent: u32,
) -> Result<Vec<TimePointResult>, AttemptError> {
    let mut out = Vec::with_capacity(ds.measurements.len());
    let mut warm = warm_seed.clone();
    let mut scratch = SolveScratch::new();
    let mut spent = 0u64;
    for m in &ds.measurements {
        let grid = m.z.grid();
        let solver = ParmaSolver::new(ParmaConfig {
            voltage: m.voltage,
            ..config
        });
        let plan = plan_for(plans, grid, tr, parent);
        let init = match &warm {
            Some((prev_r, prev_z)) if prev_r.grid() == grid => {
                let mut sp = tr.span("parma.session.extrapolate", parent);
                sp.set_n(grid.rows());
                Some(ratio_extrapolate(prev_r, prev_z, &m.z))
            }
            _ => None,
        };
        let result = {
            let mut sp = tr.span("parma.solver.solve", parent);
            sp.set_n(grid.rows());
            let result =
                solver.solve_supervised(&plan, &m.z, init, &mut scratch, &CancelToken::unbounded());
            let iterations = match &result {
                Ok(sol) => sol.iterations as u64,
                Err(e) => error_iterations(e),
            };
            sp.set_count(iterations);
            sp.set_ok(result.is_ok());
            spent += iterations;
            result
        };
        let solution = match result {
            Ok(sol) => sol,
            Err(error) => {
                return Err(AttemptError {
                    error,
                    iterations: spent,
                })
            }
        };
        recoveries.fetch_add(solution.recovery.len() as u64, Ordering::Relaxed);
        let detection = {
            let mut sp = tr.span("parma.detect", parent);
            sp.set_n(grid.rows());
            detect_anomalies(&solution.resistors, DETECT)
        };
        warm = Some((solution.resistors.clone(), m.z.clone()));
        out.push(TimePointResult {
            hours: m.hours,
            solution,
            detection,
            ground_truth_error: None,
        });
    }
    Ok(out)
}

/// The outcome of a supervised item.
pub struct Supervised {
    pub result: Result<Vec<TimePointResult>, String>,
    pub attempts: usize,
    pub wasted_iters: u64,
}

/// Whether the supervisor retries after `error` at attempt `escalation`.
pub fn retries(error: &ParmaError, escalation: usize) -> bool {
    classify(error).retryable() && escalation < MAX_RETRIES
}

/// One item under the retry ladder, attempts run back to back (the
/// single-item supervision a serve job gets).
pub fn supervised(
    ds: &WetLabDataset,
    warm: &Warm,
    plans: &mut Plans,
    tr: &Tracer,
    recoveries: &AtomicU64,
    parent: u32,
) -> Supervised {
    let mut wasted = 0u64;
    for escalation in 0..=MAX_RETRIES {
        let mut sp = tr.span("parma.supervisor.attempt", parent);
        let parent = sp.id();
        let config = escalated(&base_config(), escalation);
        match attempt(ds, config, warm, plans, tr, recoveries, parent) {
            Ok(tps) => {
                return Supervised {
                    result: Ok(tps),
                    attempts: escalation + 1,
                    wasted_iters: wasted,
                }
            }
            Err(e) => {
                sp.set_ok(false);
                wasted += e.iterations;
                if !retries(&e.error, escalation) {
                    return Supervised {
                        result: Err(e.error.to_string()),
                        attempts: escalation + 1,
                        wasted_iters: wasted,
                    };
                }
            }
        }
    }
    unreachable!("the last escalation never retries")
}

fn plan_for(plans: &mut Plans, grid: MeaGrid, tr: &Tracer, parent: u32) -> Arc<SolvePlan> {
    if let Some(plan) = plans.iter().find(|p| p.grid() == grid) {
        return Arc::clone(plan);
    }
    let plan = {
        let mut sp = tr.span("parma.plan.new", parent);
        sp.set_n(grid.rows());
        Arc::new(SolvePlan::new(grid))
    };
    plans.push(Arc::clone(&plan));
    plan
}

fn error_iterations(e: &ParmaError) -> u64 {
    match e {
        ParmaError::NoConvergence { iterations, .. }
        | ParmaError::Timeout { iterations, .. }
        | ParmaError::Cancelled { iterations } => *iterations as u64,
        _ => 0,
    }
}

/// What the harness checks per time point.
pub struct TpCheck {
    pub hours: u32,
    pub iterations: usize,
    pub fnv: u64,
    pub anomalies: usize,
    /// Max relative error against the generated ground truth.
    pub gt_err: f64,
}

/// Checks for a solved session against its generated twin.
pub fn checks(tps: &[TimePointResult], truth: &WetLabDataset) -> Vec<TpCheck> {
    tps.iter()
        .zip(&truth.measurements)
        .map(|(tp, m)| TpCheck {
            hours: tp.hours,
            iterations: tp.solution.iterations,
            fnv: parma_cli::journal::fnv1a64(tp.solution.resistors.as_slice()),
            anomalies: tp.detection.anomalies.len(),
            gt_err: m
                .ground_truth
                .as_ref()
                .map_or(f64::INFINITY, |t| tp.solution.resistors.rel_max_diff(t)),
        })
        .collect()
}

/// JSON array of per-time-point checks.
pub fn checks_json(checks: &[TpCheck]) -> String {
    let mut out = String::from("[");
    for (k, c) in checks.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let mut obj = mea_obs::json::Object::begin(&mut out);
        obj.field_u64("hours", u64::from(c.hours));
        obj.field_u64("iterations", c.iterations as u64);
        obj.field_str("fnv", &format!("{:016x}", c.fnv));
        obj.field_u64("anomalies", c.anomalies as u64);
        obj.field_f64("gt_err", c.gt_err);
        obj.end();
    }
    out.push(']');
    out
}
