//! `serve-sessions` replay. Each client's closed-loop job chain, where a
//! job warm-starts from the committed last time point of its device's
//! previous job, runs two ways. [`service_chains`] pushes it through an in-process
//! `SolveService` configured as `parma serve --threads 2`: the program's
//! own code, the reference every run is checked against, and the source
//! of the queue-wait and plan-cache figures. [`replay_chains`] is the
//! traced per-layer replay, making each layer call itself as the session
//! store and supervisor would; the harness checks it against the
//! service's results. [`warm_vs_cold`] counts, with the program's
//! `Pipeline`, the iterations a warm start saves.

use crate::inputs;
use crate::solve::{self, TpCheck};
use crate::trace::Tracer;
use mea_model::WetLabDataset;
use mea_parallel::CancelToken;
use parma::pipeline::{Pipeline, TimePointResult};
use parma::prelude::{JobState, ServiceConfig, SolveService, SupervisorConfig};
use parma::PlanCache;
use parma_cli::journal::{self, Journal};
use std::path::Path;
use std::sync::atomic::AtomicU64;
use std::time::Duration;

pub struct JobOut {
    pub ok: bool,
    /// Attempts and iterations of failed attempts (traced replay only).
    pub attempts: usize,
    pub wasted_iters: u64,
    pub checks: Vec<TpCheck>,
}

/// A client's devices: their request bodies, parsed, and ground truth.
struct Devices {
    bodies: Vec<WetLabDataset>,
    truths: Vec<WetLabDataset>,
}

impl Devices {
    fn load(
        seed: u64,
        dir: &Path,
        client: usize,
        tr: &Tracer,
        parent: u32,
    ) -> Result<Self, String> {
        let bodies = (0..inputs::DEVICES_PER_CLIENT)
            .map(|d| body(dir, client, d, tr, parent))
            .collect::<Result<_, _>>()?;
        let truths = (0..inputs::DEVICES_PER_CLIENT)
            .map(|d| inputs::device_session(seed, client, d))
            .collect();
        Ok(Devices { bodies, truths })
    }
}

/// Replays `jobs[c]` jobs of client `c`, one thread per client.
/// Journal lines go to `journal` when given (timed as `cli.journal.record`).
pub fn replay_chains(
    seed: u64,
    dir: &Path,
    jobs: &[usize],
    tr: &Tracer,
    recoveries: &AtomicU64,
    journal: Option<&Journal>,
) -> Result<Vec<Vec<JobOut>>, String> {
    let root = tr.span("serve.replay", 0);
    let root_id = root.id();
    std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(client, &count)| {
                scope.spawn(move || {
                    chain(seed, dir, client, count, tr, recoveries, journal, root_id)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a chain thread panicked"))
            .collect()
    })
}

/// Loads a device's request body the way the daemon does (`from_bytes`).
fn body(
    dir: &Path,
    client: usize,
    device: usize,
    tr: &Tracer,
    parent: u32,
) -> Result<WetLabDataset, String> {
    let path = dir
        .join(inputs::SERVE_DIR)
        .join(inputs::body_name(client, device));
    let bytes = std::fs::read(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
    let mut sp = tr.span("model.ingest.from_bytes", parent);
    sp.set_count(bytes.len() as u64);
    let ds =
        WetLabDataset::from_bytes(&bytes).map_err(|e| format!("cannot parse {path:?}: {e}"))?;
    sp.set_n(ds.grid.rows());
    Ok(ds)
}

#[allow(clippy::too_many_arguments)]
fn chain(
    seed: u64,
    dir: &Path,
    client: usize,
    count: usize,
    tr: &Tracer,
    recoveries: &AtomicU64,
    journal: Option<&Journal>,
    parent: u32,
) -> Result<Vec<JobOut>, String> {
    let truths = Devices::load(seed, dir, client, &Tracer::new(false, 0), 0)?.truths;
    let mut plans = solve::Plans::new();
    let mut warm: Vec<solve::Warm> = vec![None; inputs::DEVICES_PER_CLIENT];
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let device = inputs::device_of_job(k);
        let mut job = tr.span("serve.job", parent);
        let ds = body(dir, client, device, tr, job.id())?;
        job.set_n(ds.grid.rows());
        let sup = solve::supervised(&ds, &warm[device], &mut plans, tr, recoveries, job.id());
        job.set_ok(sup.result.is_ok());
        let checks = match &sup.result {
            Ok(tps) => {
                if let Some(j) = journal {
                    let line = journal::entry_ok(&format!("job-{client}-{k}"), tps);
                    let _sp = tr.span("cli.journal.record", job.id());
                    j.record(&line)?;
                }
                let last = ds.measurements.last().expect("a session has measurements");
                let last_tp = tps.last().expect("a solved session has time points");
                warm[device] = Some((last_tp.solution.resistors.clone(), last.z.clone()));
                solve::checks(tps, &truths[device])
            }
            Err(_) => Vec::new(),
        };
        out.push(JobOut {
            ok: sup.result.is_ok(),
            attempts: sup.attempts,
            wasted_iters: sup.wasted_iters,
            checks,
        });
    }
    Ok(out)
}

/// Iterations of the first `count` jobs of each client solved warm (as
/// chained) and cold by the program's `Pipeline::run_cached`, summed over
/// jobs whose device has a predecessor and that converge at the first
/// attempt both ways: `(warm, cold)`.
pub fn warm_vs_cold(dir: &Path, jobs: &[usize]) -> Result<(u64, u64), String> {
    let quiet = Tracer::new(false, 0);
    let pipeline = Pipeline::new(solve::base_config(), solve::DETECT)
        .map_err(|e| format!("bad pipeline config: {e}"))?;
    let plans = PlanCache::unnamed();
    let run = |ds: &WetLabDataset, warm: &solve::Warm| {
        pipeline.run_cached(ds, &CancelToken::unbounded(), None, &plans, warm.clone())
    };
    let iterations =
        |tps: &[TimePointResult]| -> u64 { tps.iter().map(|t| t.solution.iterations as u64).sum() };
    let (mut warm_sum, mut cold_sum) = (0u64, 0u64);
    for (client, &count) in jobs.iter().enumerate() {
        let bodies = Devices::load(0, dir, client, &quiet, 0)?.bodies;
        let mut warm: Vec<solve::Warm> = vec![None; inputs::DEVICES_PER_CLIENT];
        for k in 0..count {
            let device = inputs::device_of_job(k);
            let ds = &bodies[device];
            let warm_run = run(ds, &warm[device]);
            if warm[device].is_some() {
                if let (Ok(w), Ok(c)) = (&warm_run, &run(ds, &None)) {
                    warm_sum += iterations(w);
                    cold_sum += iterations(c);
                }
            }
            if let Ok(tps) = warm_run {
                let last_tp = tps.last().expect("a solved session has time points");
                let last = ds.measurements.last().expect("a session has measurements");
                warm[device] = Some((last_tp.solution.resistors.clone(), last.z.clone()));
            }
        }
    }
    Ok((warm_sum, cold_sum))
}

/// Queue waits are the `parma.service.queue` spans (submit → first
/// observed `Running`).
pub struct ServiceOut {
    pub chains: Vec<Vec<JobOut>>,
    pub plan_hits: u64,
    pub plan_misses: u64,
}

/// Runs `jobs[c]` jobs of client `c` through an in-process `SolveService`
/// configured as `parma serve --threads 2` (queue 32, default supervisor
/// without back-off sleeps), one closed-loop thread per client.
pub fn service_chains(
    seed: u64,
    dir: &Path,
    jobs: &[usize],
    tr: &Tracer,
) -> Result<ServiceOut, String> {
    let service = SolveService::start(ServiceConfig {
        solver: solve::base_config(),
        detection_factor: solve::DETECT,
        workers: 2,
        queue_capacity: 32,
        supervisor: SupervisorConfig {
            backoff: Duration::ZERO,
            ..SupervisorConfig::default()
        },
        hold: None,
    })
    .map_err(|e| format!("cannot start service: {e}"))?;
    let root = tr.span("serve.service", 0);
    let root_id = root.id();
    let service_ref = &service;
    let per_client: Vec<Result<Vec<JobOut>, String>> = std::thread::scope(|scope| {
        let handles: Vec<_> = jobs
            .iter()
            .enumerate()
            .map(|(c, &count)| {
                scope.spawn(move || client(service_ref, seed, dir, c, count, tr, root_id))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    drop(root);
    let (plan_hits, plan_misses) = service.plan_stats();
    service.shutdown();
    Ok(ServiceOut {
        chains: per_client.into_iter().collect::<Result<_, _>>()?,
        plan_hits,
        plan_misses,
    })
}

fn client(
    service: &SolveService,
    seed: u64,
    dir: &Path,
    client: usize,
    count: usize,
    tr: &Tracer,
    parent: u32,
) -> Result<Vec<JobOut>, String> {
    let devices = Devices::load(seed, dir, client, &Tracer::new(false, 0), 0)?;
    let mut out = Vec::with_capacity(count);
    for k in 0..count {
        let device = inputs::device_of_job(k);
        let session = inputs::session_id(client, device);
        let ds = devices.bodies[device].clone();
        let mut job = tr.span("parma.service.job", parent);
        let id = {
            let mut queued = tr.span("parma.service.queue", job.id());
            let id = service
                .submit(ds, Some(&session))
                .map_err(|e| format!("service rejected job {k} of {session}: {e}"))?;
            while matches!(state(service, id)?, JobState::Queued) {
                std::thread::sleep(Duration::from_micros(50));
            }
            queued.set_ok(true);
            id
        };
        let done = loop {
            match state(service, id)? {
                JobState::Done(tps) => break Some(tps),
                JobState::Failed(_) => break None,
                _ => std::thread::sleep(Duration::from_micros(50)),
            }
        };
        job.set_ok(done.is_some());
        out.push(JobOut {
            ok: done.is_some(),
            attempts: 0,
            wasted_iters: 0,
            checks: done.map_or(Vec::new(), |tps| {
                solve::checks(&tps, &devices.truths[device])
            }),
        });
    }
    Ok(out)
}

fn state(service: &SolveService, id: u64) -> Result<JobState, String> {
    service
        .job(id)
        .map(|v| v.state)
        .ok_or_else(|| format!("service lost job {id}"))
}
