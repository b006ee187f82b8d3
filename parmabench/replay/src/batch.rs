//! `batch-paper` replay. [`library`] solves chosen sessions through the
//! program's `BatchSolver`, the reference every run is checked against.
//! [`replay`] is the traced per-layer replay: it loads one directory's
//! session files, then runs the supervisor's rounds (every pending item
//! at the round's escalation, two worker threads pulling items in index
//! order) as `parma batch --threads 2` schedules them, minus the back-off
//! sleeps, making each layer call itself so it can be timed. The harness
//! checks its results against [`library`]'s.

use crate::inputs;
use crate::solve::{self, TpCheck};
use crate::trace::Tracer;
use mea_model::WetLabDataset;
use parma::pipeline::TimePointResult;
use parma::supervisor::{escalated, SupervisorConfig};
use parma::BatchSolver;
use std::path::Path;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Worker threads, as in `parma batch --threads 2`.
pub const THREADS: usize = 2;

pub struct SessionOut {
    pub name: String,
    pub n: usize,
    pub ok: bool,
    /// Attempts and iterations of failed attempts (traced replay only).
    pub attempts: usize,
    pub wasted_iters: u64,
    pub checks: Vec<TpCheck>,
}

pub struct BatchOut {
    pub sessions: Vec<SessionOut>,
    /// Wall time of the supervised rounds (timers on only).
    pub wall_ms: f64,
    /// Sum of item attempt times (timers on only).
    pub busy_ms: f64,
    /// Per round, last worker finish minus first worker finish, summed.
    pub straggler_ms: f64,
}

type AttemptResult = Result<Vec<TimePointResult>, solve::AttemptError>;

fn load(
    root: &Path,
    dir: usize,
    idx: usize,
    tr: &Tracer,
    parent: u32,
) -> Result<WetLabDataset, String> {
    let path = root
        .join(inputs::BATCH_DIR)
        .join(inputs::batch_name(dir, idx));
    let bytes = std::fs::metadata(&path)
        .map_err(|e| format!("cannot stat {path:?}: {e}"))?
        .len();
    let mut sp = tr.span("model.ingest.load", parent);
    sp.set_count(bytes);
    let ds = WetLabDataset::load(&path).map_err(|e| format!("cannot load {path:?}: {e}"))?;
    sp.set_n(ds.grid.rows());
    Ok(ds)
}

/// Replays directory `dir` as one supervised batch.
pub fn replay(
    seed: u64,
    root_dir: &Path,
    dir: usize,
    tr: &Tracer,
    recoveries: &AtomicU64,
) -> Result<BatchOut, String> {
    let root = tr.span("batch.replay", 0);
    let datasets = (0..inputs::BATCH_SIZES.len())
        .map(|idx| load(root_dir, dir, idx, tr, root.id()))
        .collect::<Result<Vec<_>, _>>()?;

    let n_items = datasets.len();
    let mut results: Vec<Option<Result<Vec<TimePointResult>, String>>> =
        (0..n_items).map(|_| None).collect();
    let mut attempts = vec![0usize; n_items];
    let mut wasted = vec![0u64; n_items];
    let mut pending: Vec<(usize, usize)> = (0..n_items).map(|i| (i, 0)).collect();
    let (mut wall_ms, mut busy_ms, mut straggler_ms) = (0.0, 0.0, 0.0);
    for round in 0..=solve::MAX_RETRIES {
        if pending.is_empty() {
            break;
        }
        let round_span = tr.span("parma.batch.round", root.id());
        let t0 = tr.on().then(Instant::now);
        let (outcomes, finishes, busy) =
            run_round(&pending, &datasets, tr, recoveries, round_span.id());
        if let Some(t0) = t0 {
            wall_ms += t0.elapsed().as_secs_f64() * 1e3;
            busy_ms += busy;
            let first = finishes.iter().cloned().fold(f64::INFINITY, f64::min);
            let last = finishes.iter().cloned().fold(0.0, f64::max);
            straggler_ms += last - first;
        }
        let mut next = Vec::new();
        for ((item, escalation), outcome) in pending.iter().copied().zip(outcomes) {
            attempts[item] += 1;
            match outcome {
                Ok(tps) => results[item] = Some(Ok(tps)),
                Err(e) => {
                    wasted[item] += e.iterations;
                    if solve::retries(&e.error, escalation) && round < solve::MAX_RETRIES {
                        next.push((item, escalation + 1));
                    } else {
                        results[item] = Some(Err(e.error.to_string()));
                    }
                }
            }
        }
        pending = next;
    }

    let mut sessions = Vec::with_capacity(n_items);
    for (idx, result) in results.into_iter().enumerate() {
        let result = result.expect("every item is decided after the last round");
        let checks = match &result {
            Ok(tps) => solve::checks(tps, &inputs::batch_session(seed, dir, idx)),
            Err(_) => Vec::new(),
        };
        sessions.push(SessionOut {
            name: inputs::batch_name(dir, idx),
            n: inputs::BATCH_SIZES[idx],
            ok: result.is_ok(),
            attempts: attempts[idx],
            wasted_iters: wasted[idx],
            checks,
        });
    }
    Ok(BatchOut {
        sessions,
        wall_ms,
        busy_ms,
        straggler_ms,
    })
}

/// The given `(dir, idx)` sessions solved by the program's own
/// `BatchSolver::run_sessions_supervised` on [`THREADS`] threads, with the
/// `parma batch` defaults but no back-off sleeps: the reference timed runs
/// are checked against. A session's result does not depend on which
/// other sessions share the batch.
pub fn library(
    seed: u64,
    root_dir: &Path,
    sessions: &[(usize, usize)],
) -> Result<Vec<SessionOut>, String> {
    let quiet = Tracer::new(false, 0);
    let datasets = sessions
        .iter()
        .map(|&(dir, idx)| load(root_dir, dir, idx, &quiet, 0))
        .collect::<Result<Vec<_>, _>>()?;
    let sup = SupervisorConfig {
        backoff: Duration::ZERO,
        ..SupervisorConfig::default()
    };
    let results = BatchSolver::new(solve::base_config(), THREADS)
        .and_then(|b| b.run_sessions_supervised(&datasets, solve::DETECT, &sup, &|_, _| {}))
        .map_err(|e| format!("batch solver failed: {e}"))?;
    Ok(sessions
        .iter()
        .zip(results)
        .map(|(&(dir, idx), result)| SessionOut {
            name: inputs::batch_name(dir, idx),
            n: inputs::BATCH_SIZES[idx],
            ok: result.is_ok(),
            attempts: 0,
            wasted_iters: 0,
            checks: match &result {
                Ok(tps) => solve::checks(tps, &inputs::batch_session(seed, dir, idx)),
                Err(_) => Vec::new(),
            },
        })
        .collect())
}

/// Runs one round's `(item, escalation)` attempts on [`THREADS`] workers.
/// Returns the outcomes in round order, each worker's last finish time
/// (ms since the round began; 0 for a worker that got no item) and the
/// summed attempt time.
fn run_round(
    round: &[(usize, usize)],
    datasets: &[WetLabDataset],
    tr: &Tracer,
    recoveries: &AtomicU64,
    parent: u32,
) -> (Vec<AttemptResult>, Vec<f64>, f64) {
    let next = AtomicUsize::new(0);
    let slots: Mutex<Vec<Option<AttemptResult>>> =
        Mutex::new((0..round.len()).map(|_| None).collect());
    let t0 = Instant::now();
    let timed = tr.on();
    let per_worker: Vec<(f64, f64)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|_| {
                scope.spawn(|| {
                    let (mut last, mut busy) = (0.0, 0.0);
                    loop {
                        let k = next.fetch_add(1, Ordering::Relaxed);
                        if k >= round.len() {
                            break;
                        }
                        let (item, escalation) = round[k];
                        let start = timed.then(Instant::now);
                        let outcome = {
                            let mut sp = tr.span("parma.batch.item", parent);
                            sp.set_n(datasets[item].grid.rows());
                            let config = escalated(&solve::base_config(), escalation);
                            let mut plans = solve::Plans::new();
                            let out = solve::attempt(
                                &datasets[item],
                                config,
                                &None,
                                &mut plans,
                                tr,
                                recoveries,
                                sp.id(),
                            );
                            sp.set_ok(out.is_ok());
                            out
                        };
                        if let Some(start) = start {
                            busy += start.elapsed().as_secs_f64() * 1e3;
                            last = t0.elapsed().as_secs_f64() * 1e3;
                        }
                        slots.lock().expect("round slot lock")[k] = Some(outcome);
                    }
                    (last, busy)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a replay worker panicked"))
            .collect()
    });
    let outcomes = slots
        .into_inner()
        .expect("round slot lock")
        .into_iter()
        .map(|o| o.expect("every round slot is filled"))
        .collect();
    let finishes = per_worker.iter().map(|w| w.0).collect();
    let busy = per_worker.iter().map(|w| w.1).sum();
    (outcomes, finishes, busy)
}
