//! Batched throughput solving: many measurements (or whole wet-lab
//! sessions) in flight at once over the work-stealing pool.
//!
//! The per-*pair* parallelism inside one solve (`crate::solver`) is fine-
//! grained and saturates quickly; when the workload is *many* devices —
//! a plate of MEA wells measured together, or a parameter sweep — the
//! right axis is one solve per work item. [`BatchSolver`] schedules whole
//! solves on `mea_parallel::WorkStealingPool`, splitting its thread
//! budget between the two axes ([`mea_parallel::ThreadBudget`]): the
//! batch (outer) axis is saturated first — `min(threads, items)` workers,
//! the historical single-thread-inner shape — and only a *surplus*
//! (threads > items, the paper-scale few-large-solves regime) flows to
//! the intra-solve axis, capped per item by its Betti parallelism bound
//! β₁ ([`crate::betti`]). Inner sweeps always run
//! [`Strategy::SingleThread`]; the intra-solve workers parallelize the
//! structured *factorization* stages instead.
//!
//! # Determinism
//!
//! Results come back in input order (`map_indexed` writes into per-index
//! slots), and each solve is bitwise identical to running
//! [`ParmaSolver::solve`] sequentially on the same measurement: the pair
//! updates inside a sweep are independent and reduced in id order
//! regardless of schedule, the batch engine shares one immutable
//! [`SolvePlan`] per topology (which `solver::tests::
//! plan_reuse_is_bitwise_identical` pins down), and the intra-solve
//! factorization stages use fixed row-chunk partitions that are
//! independent of the worker count. Thread count — on either axis — and
//! steal interleavings affect wall time only, never bits.

use crate::config::ParmaConfig;
use crate::error::ParmaError;
use crate::pipeline::{Pipeline, TimePointResult};
use crate::solver::{ParmaSolution, ParmaSolver, SolvePlan, SolveScratch};
use crate::stream::{IngestError, StreamingLoader};
use crate::supervisor::{supervise, FailureReport, SupervisorConfig};
use mea_model::{MeaGrid, WetLabDataset, ZMatrix};
use mea_parallel::{Interrupt, IoBudget, Strategy, ThreadBudget, WorkStealingPool};
use std::cell::RefCell;
use std::path::PathBuf;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// Wall-clock per batch item (ms), attempts beyond the first included.
static ITEM_MS: mea_obs::hist::Hist = mea_obs::hist::Hist::new("parma.batch.item_ms");

thread_local! {
    /// One solve scratch per worker thread: items on the same worker share
    /// factorization buffers across solves. Carries no data-dependent
    /// state, so batch results stay bitwise independent of scheduling.
    static SCRATCH: RefCell<SolveScratch> = RefCell::new(SolveScratch::new());
}

/// A batch driver: one configuration, `threads` outer workers.
#[derive(Clone, Debug)]
pub struct BatchSolver {
    config: ParmaConfig,
    threads: usize,
}

impl BatchSolver {
    /// A batch solver with a total budget of `threads` workers (at least
    /// one), split between the batch and intra-solve axes by
    /// [`ThreadBudget::split`]. The configuration's `strategy` field is
    /// ignored: inner *sweeps* always run single-threaded (the batch axis
    /// owns the cores when items are plentiful); surplus threads
    /// parallelize each item's structured factorization instead. Returns
    /// [`ParmaError::InvalidConfig`] for out-of-range configurations.
    pub fn new(config: ParmaConfig, threads: usize) -> Result<Self, ParmaError> {
        config.validate()?;
        Ok(BatchSolver {
            config: config.with_strategy(Strategy::SingleThread),
            threads: threads.max(1),
        })
    }

    /// The (strategy-normalized) solver configuration.
    pub fn config(&self) -> &ParmaConfig {
        &self.config
    }

    /// Outer worker count.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Solves every measurement, returning outcomes in input order.
    ///
    /// Per-topology [`SolvePlan`]s are built once and shared across items;
    /// each item gets its own obs span and its wall time lands in the
    /// `parma.batch.item_ms` series, id order, so traces stay comparable
    /// across runs.
    pub fn solve_all(&self, measurements: &[ZMatrix]) -> Vec<Result<ParmaSolution, ParmaError>> {
        let _span = mea_obs::span("parma/batch");
        let plans = plan_set(measurements.iter().map(|z| z.grid()));
        let solver = ParmaSolver::new(self.config);
        let budget = ThreadBudget::split(self.threads, measurements.len());
        let pool = WorkStealingPool::new(budget.outer);
        let timed = pool.map_indexed(measurements.len(), |i| {
            let _item = mea_obs::span("parma/batch/item");
            let _scope = mea_obs::events::item_scope(i as u64);
            let z = &measurements[i];
            let plan = lookup(&plans, z.grid());
            let t0 = Instant::now();
            let out = SCRATCH.with(|scratch| {
                let mut scratch = scratch.borrow_mut();
                scratch.set_intra_threads(intra_width(&budget, z.grid()));
                solver.solve_with_scratch(plan, z, None, &mut scratch)
            });
            (out, (i, t0.elapsed().as_secs_f64() * 1e3))
        });
        let (out, times): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
        record_batch_obs(&out, times);
        out
    }

    /// Runs the full measurement-to-detection pipeline over every session,
    /// one session per work item, results in input order.
    ///
    /// Time points *within* a session stay sequential — each warm-starts
    /// from the previous solution — so the parallel axis is across
    /// sessions, matching how a plate of wells is processed; session runs
    /// keep their inner solves fully sequential (no intra-solve split —
    /// the pipeline owns its own scratch). The outer `Err` is an up-front
    /// configuration failure; per-session failures come back in their
    /// slot without disturbing the rest of the batch.
    #[allow(clippy::type_complexity)]
    pub fn run_sessions(
        &self,
        datasets: &[WetLabDataset],
        detection_factor: f64,
    ) -> Result<Vec<Result<Vec<TimePointResult>, ParmaError>>, ParmaError> {
        let pipeline = Pipeline::new(self.config, detection_factor)?;
        let _span = mea_obs::span("parma/batch");
        let pool = WorkStealingPool::new(self.threads);
        let timed = pool.map_indexed(datasets.len(), |i| {
            let _item = mea_obs::span("parma/batch/item");
            let _scope = mea_obs::events::item_scope(i as u64);
            let t0 = Instant::now();
            let out = pipeline.run(&datasets[i]);
            (out, (i, t0.elapsed().as_secs_f64() * 1e3))
        });
        let (out, times): (Vec<_>, Vec<_>) = timed.into_iter().unzip();
        record_batch_obs(&out, times);
        Ok(out)
    }

    /// Supervised throughput solving: like [`Self::solve_all`] but items
    /// that panic, time out, or diverge are retried per `sup` (escalating
    /// the recovery configuration on divergence/timeout) and quarantined
    /// with a classified [`FailureReport`] once retries are exhausted.
    /// Healthy items complete regardless.
    ///
    /// With `sup.max_retries == 0`, no deadlines and no chaos, successful
    /// results are bitwise identical to [`Self::solve_all`] (and therefore
    /// to the sequential solver).
    pub fn solve_all_supervised(
        &self,
        measurements: &[ZMatrix],
        sup: &SupervisorConfig,
    ) -> Vec<Result<ParmaSolution, FailureReport>> {
        let _span = mea_obs::span("parma/batch");
        let plans = plan_set(measurements.iter().map(|z| z.grid()));
        let budget = ThreadBudget::split(self.threads, measurements.len());
        let pool = WorkStealingPool::new(budget.outer);
        let times: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
        let out = supervise(
            &pool,
            measurements.len(),
            sup,
            &|i, escalation, token| {
                let _item = mea_obs::span("parma/batch/item");
                let z = &measurements[i];
                let plan = lookup(&plans, z.grid());
                let solver =
                    ParmaSolver::new(crate::supervisor::escalated(&self.config, escalation));
                let t0 = Instant::now();
                let res = SCRATCH.with(|scratch| {
                    let mut scratch = scratch.borrow_mut();
                    scratch.set_intra_threads(intra_width(&budget, z.grid()));
                    solver.solve_supervised(plan, z, None, &mut scratch, token)
                });
                times
                    .lock()
                    .expect("batch timing lock")
                    .push((i, t0.elapsed().as_secs_f64() * 1e3));
                res
            },
            &|_, _| {},
        );
        record_batch_obs(&out, times.into_inner().expect("batch timing lock"));
        out
    }

    /// Supervised session runs: [`Self::run_sessions`] under the full
    /// retry/backoff/quarantine policy. `on_done` fires exactly once per
    /// dataset — as soon as it succeeds or is quarantined, possibly from a
    /// worker thread — which is what lets callers journal results
    /// incrementally (the CLI's `--resume` support).
    #[allow(clippy::type_complexity)]
    pub fn run_sessions_supervised(
        &self,
        datasets: &[WetLabDataset],
        detection_factor: f64,
        sup: &SupervisorConfig,
        on_done: &(dyn Fn(usize, &Result<Vec<TimePointResult>, FailureReport>) + Sync),
    ) -> Result<Vec<Result<Vec<TimePointResult>, FailureReport>>, ParmaError> {
        let base_pipeline = Pipeline::new(self.config, detection_factor)?;
        let _span = mea_obs::span("parma/batch");
        let pool = WorkStealingPool::new(self.threads);
        let times: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
        let out = supervise(
            &pool,
            datasets.len(),
            sup,
            &|i, escalation, token| {
                let _item = mea_obs::span("parma/batch/item");
                let pipeline = if escalation == 0 {
                    base_pipeline.clone()
                } else {
                    Pipeline::new(
                        crate::supervisor::escalated(&self.config, escalation),
                        detection_factor,
                    )?
                };
                let t0 = Instant::now();
                let res = pipeline.run_supervised(&datasets[i], token, sup.solve_deadline);
                times
                    .lock()
                    .expect("batch timing lock")
                    .push((i, t0.elapsed().as_secs_f64() * 1e3));
                res
            },
            on_done,
        );
        record_batch_obs(&out, times.into_inner().expect("batch timing lock"));
        Ok(out)
    }

    /// Streamed supervised session runs: like
    /// [`Self::run_sessions_supervised`], but datasets are *paths* —
    /// loading and validation overlap the solves. [`IoBudget::carve`]
    /// splits the thread budget, a [`StreamingLoader`] prefetches on the
    /// I/O side, and each compute worker rendezvouses with its dataset as
    /// its work item comes up.
    ///
    /// Per-item semantics match the preloaded path exactly: a file that
    /// fails ingest (unreadable, corrupt, non-physical values) is
    /// quarantined as `non_finite_input` with no retries, without
    /// disturbing the rest of the batch, and solve results over streamed
    /// inputs are bitwise identical to preloading. The loaded dataset is
    /// cached per item across retry attempts, so escalation never re-reads
    /// the file; a take interrupted by cancellation or a deadline is
    /// classified as such (never as bad input) and is *not* cached, so a
    /// later attempt retries the load.
    #[allow(clippy::type_complexity)]
    pub fn run_streamed_supervised(
        &self,
        paths: &[PathBuf],
        detection_factor: f64,
        sup: &SupervisorConfig,
        on_done: &(dyn Fn(usize, &Result<Vec<TimePointResult>, FailureReport>) + Sync),
    ) -> Result<Vec<Result<Vec<TimePointResult>, FailureReport>>, ParmaError> {
        let base_pipeline = Pipeline::new(self.config, detection_factor)?;
        let _span = mea_obs::span("parma/batch");
        let budget = IoBudget::carve(self.threads);
        let pool = WorkStealingPool::new(budget.compute);
        // Window: every compute worker can have one item in flight plus a
        // full I/O side of lookahead — bounded memory, never gates takes.
        let loader =
            StreamingLoader::start(paths.to_vec(), budget.io, budget.compute + budget.io + 1);
        let cache: Vec<OnceLock<Result<Arc<WetLabDataset>, IngestError>>> =
            paths.iter().map(|_| OnceLock::new()).collect();
        let times: Mutex<Vec<(usize, f64)>> = Mutex::new(Vec::new());
        let out = supervise(
            &pool,
            paths.len(),
            sup,
            &|i, escalation, token| {
                let _item = mea_obs::span("parma/batch/item");
                let dataset =
                    loop {
                        if let Some(cached) = cache[i].get() {
                            break Arc::clone(cached.as_ref().map_err(|e| {
                                ParmaError::Dataset(e.clone().into_dataset_error())
                            })?);
                        }
                        let res = loader.take(i, token);
                        if let Err(IngestError::Interrupted(interrupt)) = &res {
                            // The attempt was stopped, not the file — report
                            // the interrupt and leave the slot uncached so a
                            // retry reloads.
                            return Err(match interrupt {
                                Interrupt::Cancelled => ParmaError::Cancelled { iterations: 0 },
                                Interrupt::TimedOut => ParmaError::Timeout {
                                    iterations: 0,
                                    partial: None,
                                },
                            });
                        }
                        let _ = cache[i].set(res);
                    };
                let pipeline = if escalation == 0 {
                    base_pipeline.clone()
                } else {
                    Pipeline::new(
                        crate::supervisor::escalated(&self.config, escalation),
                        detection_factor,
                    )?
                };
                let t0 = Instant::now();
                let res = pipeline.run_supervised(&dataset, token, sup.solve_deadline);
                times
                    .lock()
                    .expect("batch timing lock")
                    .push((i, t0.elapsed().as_secs_f64() * 1e3));
                res
            },
            on_done,
        );
        record_batch_obs(&out, times.into_inner().expect("batch timing lock"));
        Ok(out)
    }
}

/// Batch-level observability: item/failure counters (`parma.batch.items`,
/// `parma.batch.failures`) plus the id-ordered per-item wall-time series
/// `parma.batch.item_ms` (the schema the golden-trace test pins). `times`
/// holds `(item id, ms)` samples; under supervision an item's retries add
/// extra samples under its id.
fn record_batch_obs<T, E>(out: &[Result<T, E>], mut times: Vec<(usize, f64)>) {
    times.sort_by(|a, b| a.0.cmp(&b.0).then(a.1.total_cmp(&b.1)));
    let ms: Vec<f64> = times.into_iter().map(|(_, ms)| ms).collect();
    mea_obs::counter_add("parma.batch.items", out.len() as u64);
    mea_obs::counter_add(
        "parma.batch.failures",
        out.iter().filter(|r| r.is_err()).count() as u64,
    );
    for &v in &ms {
        ITEM_MS.record(v);
    }
    mea_obs::record_series("parma.batch.item_ms", &ms);
}

/// Intra-solve width for one item: the budget's inner share, capped by
/// the grid's Betti parallelism bound β₁ (more workers than independent
/// cycles buys nothing — `crate::betti`). Skips the homology computation
/// entirely in the common items-saturated regime where the batch axis
/// already owns the whole budget.
fn intra_width(budget: &ThreadBudget, grid: MeaGrid) -> usize {
    if budget.inner <= 1 {
        1
    } else {
        budget.inner_capped(crate::betti::parallelism_bound(grid))
    }
}

/// One plan per distinct geometry in the batch (batches are usually
/// homogeneous, so this is almost always a single entry).
fn plan_set(grids: impl Iterator<Item = MeaGrid>) -> Vec<SolvePlan> {
    let mut plans: Vec<SolvePlan> = Vec::new();
    for grid in grids {
        if !plans.iter().any(|p| p.grid() == grid) {
            plans.push(SolvePlan::new(grid));
        }
    }
    plans
}

fn lookup(plans: &[SolvePlan], grid: MeaGrid) -> &SolvePlan {
    plans
        .iter()
        .find(|p| p.grid() == grid)
        .expect("every batch geometry has a plan by construction")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mea_model::{AnomalyConfig, CrossingMatrix, ForwardSolver};

    fn measurements(n: usize, count: usize) -> Vec<ZMatrix> {
        (0..count)
            .map(|k| {
                let (truth, _) =
                    AnomalyConfig::default().generate(MeaGrid::square(n), 900 + k as u64);
                ForwardSolver::new(&truth).unwrap().solve_all()
            })
            .collect()
    }

    #[test]
    fn batch_matches_sequential_bitwise() {
        let zs = measurements(5, 6);
        let solver = ParmaSolver::new(ParmaConfig::default());
        let batch = BatchSolver::new(ParmaConfig::default(), 4).unwrap();
        let batched = batch.solve_all(&zs);
        assert_eq!(batched.len(), zs.len());
        for (z, out) in zs.iter().zip(&batched) {
            let sequential = solver.solve(z).unwrap();
            let b = out.as_ref().unwrap();
            assert_eq!(b.iterations, sequential.iterations);
            for (x, y) in b
                .resistors
                .as_slice()
                .iter()
                .zip(sequential.resistors.as_slice())
            {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn thread_count_never_changes_bits() {
        let zs = measurements(4, 5);
        let one = BatchSolver::new(ParmaConfig::default(), 1)
            .unwrap()
            .solve_all(&zs);
        for threads in [2usize, 3, 8] {
            let many = BatchSolver::new(ParmaConfig::default(), threads)
                .unwrap()
                .solve_all(&zs);
            for (a, b) in one.iter().zip(&many) {
                let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
                assert_eq!(a.iterations, b.iterations, "{threads} threads");
                for (x, y) in a.resistors.as_slice().iter().zip(b.resistors.as_slice()) {
                    assert_eq!(x.to_bits(), y.to_bits(), "{threads} threads");
                }
            }
        }
    }

    #[test]
    fn surplus_threads_flow_to_the_intra_solve_axis_without_changing_bits() {
        // Few large items, many threads: ThreadBudget routes the surplus
        // to each item's structured factorization (dim = 2n−1 = 49 ≥
        // STRUCTURED_MIN_DIM at n = 25, so the auto dispatch takes the
        // structured path and the intra pool actually runs). Capped
        // iterations keep the test cheap; partial results must still be
        // bitwise identical to the single-thread run.
        let zs = measurements(25, 2);
        let cfg = ParmaConfig {
            max_iter: 3,
            tol: 1e-15,
            ..Default::default()
        };
        let bits_for = |threads: usize| -> Vec<Vec<u64>> {
            BatchSolver::new(cfg, threads)
                .unwrap()
                .solve_all(&zs)
                .into_iter()
                .map(|r| match r {
                    Ok(sol) => sol
                        .resistors
                        .as_slice()
                        .iter()
                        .map(|v| v.to_bits())
                        .collect(),
                    Err(ParmaError::NoConvergence { partial, .. }) => {
                        partial.as_slice().iter().map(|v| v.to_bits()).collect()
                    }
                    Err(e) => panic!("unexpected failure: {e}"),
                })
                .collect()
        };
        assert_eq!(
            bits_for(1),
            bits_for(8),
            "intra-solve width must not change bits"
        );
    }

    #[test]
    fn failures_stay_in_their_slot() {
        let mut zs = measurements(3, 3);
        // Item 1 cannot converge in one iteration at an absurd tolerance.
        let cfg = ParmaConfig {
            max_iter: 1,
            tol: 1e-16,
            ..Default::default()
        };
        zs.insert(1, zs[0].clone());
        let out = BatchSolver::new(cfg, 2).unwrap().solve_all(&zs);
        assert_eq!(out.len(), 4);
        for res in &out {
            assert!(matches!(
                res,
                Err(ParmaError::NoConvergence { partial, .. }) if partial.is_physical()
            ));
        }
    }

    #[test]
    fn mixed_geometries_share_nothing_wrongly() {
        let mut zs = measurements(3, 2);
        zs.extend(measurements(5, 2));
        let solver = ParmaSolver::new(ParmaConfig::default());
        let out = BatchSolver::new(ParmaConfig::default(), 3)
            .unwrap()
            .solve_all(&zs);
        for (z, res) in zs.iter().zip(&out) {
            let b = res.as_ref().unwrap();
            assert_eq!(b.resistors.grid(), z.grid());
            let sequential = solver.solve(z).unwrap();
            assert_eq!(
                b.resistors.rel_max_diff(&sequential.resistors),
                0.0,
                "plan sharing must not leak across geometries"
            );
        }
    }

    #[test]
    fn empty_batch_is_fine() {
        let out = BatchSolver::new(ParmaConfig::default(), 4)
            .unwrap()
            .solve_all(&[]);
        assert!(out.is_empty());
    }

    #[test]
    fn invalid_config_is_rejected_up_front() {
        let cfg = ParmaConfig {
            damping: 2.0,
            ..Default::default()
        };
        assert!(matches!(
            BatchSolver::new(cfg, 4),
            Err(ParmaError::InvalidConfig(_))
        ));
    }

    #[test]
    fn invalid_item_is_reported_not_panicked() {
        let mut zs = measurements(3, 2);
        zs.push(CrossingMatrix::filled(MeaGrid::square(3), -2.0));
        let out = BatchSolver::new(ParmaConfig::default(), 2)
            .unwrap()
            .solve_all(&zs);
        assert!(out[0].is_ok() && out[1].is_ok());
        assert!(matches!(out[2], Err(ParmaError::InvalidMeasurement(_))));
    }

    #[test]
    fn sessions_match_the_sequential_pipeline() {
        let datasets: Vec<WetLabDataset> = (0..3)
            .map(|k| {
                WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 70 + k)
                    .unwrap()
            })
            .collect();
        let pipeline = Pipeline::new(ParmaConfig::default(), 1.5).unwrap();
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        let out = batch.run_sessions(&datasets, 1.5).unwrap();
        assert_eq!(out.len(), 3);
        for (ds, res) in datasets.iter().zip(&out) {
            let batched = res.as_ref().unwrap();
            let sequential = pipeline.run(ds).unwrap();
            assert_eq!(batched.len(), sequential.len());
            for (b, s) in batched.iter().zip(&sequential) {
                assert_eq!(b.hours, s.hours);
                assert_eq!(b.solution.iterations, s.solution.iterations);
                for (x, y) in b
                    .solution
                    .resistors
                    .as_slice()
                    .iter()
                    .zip(s.solution.resistors.as_slice())
                {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn supervised_with_retries_disabled_matches_plain_bitwise() {
        // The determinism contract: no retries, no deadlines, no chaos →
        // the supervised path is the plain path, bit for bit.
        let zs = measurements(5, 4);
        let batch = BatchSolver::new(ParmaConfig::default(), 3).unwrap();
        let plain = batch.solve_all(&zs);
        let sup = SupervisorConfig {
            max_retries: 0,
            ..Default::default()
        };
        let supervised = batch.solve_all_supervised(&zs, &sup);
        for (a, b) in plain.iter().zip(&supervised) {
            let (a, b) = (a.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(a.iterations, b.iterations);
            for (x, y) in a.resistors.as_slice().iter().zip(b.resistors.as_slice()) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
    }

    #[test]
    fn supervised_escalation_rescues_a_tight_budget() {
        // Base config too tight to converge (1 iteration) and recovery off:
        // the first attempt diverges, the escalated retries widen the
        // budget and arm the ladder until the solve lands.
        let zs = measurements(4, 3);
        let cfg = ParmaConfig {
            max_iter: 1,
            recovery: false,
            ..Default::default()
        };
        let batch = BatchSolver::new(cfg, 2).unwrap();
        let sup = SupervisorConfig {
            max_retries: 8,
            backoff: std::time::Duration::ZERO,
            ..Default::default()
        };
        let out = batch.solve_all_supervised(&zs, &sup);
        for (i, r) in out.iter().enumerate() {
            let sol = r
                .as_ref()
                .unwrap_or_else(|rep| panic!("item {i} should be rescued, got {rep}"));
            assert!(sol.residual <= ParmaConfig::default().tol);
        }
    }

    #[test]
    fn supervised_quarantines_bad_items_and_finishes_the_rest() {
        let mut zs = measurements(4, 3);
        zs.insert(1, CrossingMatrix::filled(MeaGrid::square(4), -2.0));
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        let out = batch.solve_all_supervised(&zs, &SupervisorConfig::default());
        assert_eq!(out.len(), 4);
        let report = out[1].as_ref().unwrap_err();
        assert_eq!(report.kind, crate::supervisor::FailureKind::NonFiniteInput);
        assert_eq!(report.item, 1);
        assert_eq!(report.attempts.len(), 1, "bad input gets no retries");
        for i in [0usize, 2, 3] {
            assert!(out[i].is_ok(), "healthy item {i} must complete");
        }
    }

    #[test]
    fn supervised_sessions_match_plain_sessions_bitwise() {
        let datasets: Vec<WetLabDataset> = (0..3)
            .map(|k| {
                WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 80 + k)
                    .unwrap()
            })
            .collect();
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        let plain = batch.run_sessions(&datasets, 1.5).unwrap();
        let sup = SupervisorConfig {
            max_retries: 0,
            ..Default::default()
        };
        let done_count = std::sync::atomic::AtomicUsize::new(0);
        let supervised = batch
            .run_sessions_supervised(&datasets, 1.5, &sup, &|_, result| {
                assert!(result.is_ok());
                done_count.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            })
            .unwrap();
        assert_eq!(done_count.load(std::sync::atomic::Ordering::SeqCst), 3);
        for (p, s) in plain.iter().zip(&supervised) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.len(), s.len());
            for (a, b) in p.iter().zip(s) {
                assert_eq!(a.solution.iterations, b.solution.iterations);
                for (x, y) in a
                    .solution
                    .resistors
                    .as_slice()
                    .iter()
                    .zip(b.solution.resistors.as_slice())
                {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
    }

    #[test]
    fn supervised_solve_deadline_quarantines_as_timeout() {
        let zs = measurements(4, 2);
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        let sup = SupervisorConfig {
            max_retries: 1,
            solve_deadline: Some(std::time::Duration::ZERO),
            backoff: std::time::Duration::ZERO,
            ..Default::default()
        };
        let out = batch.solve_all_supervised(&zs, &sup);
        for r in &out {
            let report = r.as_ref().unwrap_err();
            assert_eq!(report.kind, crate::supervisor::FailureKind::Timeout);
            assert_eq!(report.attempts.len(), 2, "timeout retries then quarantines");
        }
    }

    #[test]
    fn streamed_sessions_match_preloaded_sessions_bitwise() {
        // The tentpole's determinism gate: solving from a mixed
        // text/binary directory through the streaming loader is bitwise
        // identical to preloading every dataset first.
        let dir = std::env::temp_dir().join("parma-batch-streamed");
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        let mut datasets = Vec::new();
        for k in 0..6u64 {
            let ds = WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 30 + k)
                .unwrap();
            let path = if k % 2 == 0 {
                let p = dir.join(format!("s{k}.pbin"));
                ds.save_binary(&p).unwrap();
                p
            } else {
                let p = dir.join(format!("s{k}.txt"));
                ds.save(&p).unwrap();
                p
            };
            paths.push(path);
            datasets.push(ds);
        }
        let batch = BatchSolver::new(ParmaConfig::default(), 3).unwrap();
        let sup = SupervisorConfig {
            max_retries: 0,
            ..Default::default()
        };
        let preloaded = batch
            .run_sessions_supervised(&datasets, 1.5, &sup, &|_, _| {})
            .unwrap();
        let streamed = batch
            .run_streamed_supervised(&paths, 1.5, &sup, &|_, r| assert!(r.is_ok()))
            .unwrap();
        assert_eq!(preloaded.len(), streamed.len());
        for (p, s) in preloaded.iter().zip(&streamed) {
            let (p, s) = (p.as_ref().unwrap(), s.as_ref().unwrap());
            assert_eq!(p.len(), s.len());
            for (a, b) in p.iter().zip(s) {
                assert_eq!(a.solution.iterations, b.solution.iterations);
                for (x, y) in a
                    .solution
                    .resistors
                    .as_slice()
                    .iter()
                    .zip(b.solution.resistors.as_slice())
                {
                    assert_eq!(x.to_bits(), y.to_bits());
                }
            }
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn streamed_ingest_failures_quarantine_without_retries_or_spread() {
        let dir = std::env::temp_dir().join("parma-batch-streamed-bad");
        std::fs::create_dir_all(&dir).unwrap();
        let mut paths = Vec::new();
        for k in 0..3u64 {
            let ds = WetLabDataset::generate(MeaGrid::square(4), &AnomalyConfig::default(), 40 + k)
                .unwrap();
            let p = dir.join(format!("s{k}.pbin"));
            ds.save_binary(&p).unwrap();
            paths.push(p);
        }
        // Item 1: flip a payload byte — the checksum pass must catch it.
        let corrupt = dir.join("corrupt.pbin");
        let mut bytes = std::fs::read(&paths[1]).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x80;
        std::fs::write(&corrupt, &bytes).unwrap();
        paths[1] = corrupt;
        // Item 3: missing file.
        paths.push(dir.join("missing.pbin"));
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        let out = batch
            .run_streamed_supervised(&paths, 1.5, &SupervisorConfig::default(), &|_, _| {})
            .unwrap();
        assert_eq!(out.len(), 4);
        for i in [1usize, 3] {
            let report = out[i].as_ref().unwrap_err();
            assert_eq!(report.kind, crate::supervisor::FailureKind::NonFiniteInput);
            assert_eq!(report.attempts.len(), 1, "ingest failures get no retries");
        }
        for i in [0usize, 2] {
            assert!(out[i].is_ok(), "healthy item {i} must complete");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bad_detection_factor_fails_the_whole_call() {
        let batch = BatchSolver::new(ParmaConfig::default(), 2).unwrap();
        assert!(matches!(
            batch.run_sessions(&[], 0.5),
            Err(ParmaError::InvalidConfig(_))
        ));
    }
}
