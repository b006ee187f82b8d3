//! `parmabench-replay`: the Rust half of the Parma benchmark.
//!
//! ```text
//! parmabench-replay gen    --workload <w> --seed <s> --dir <inputs>
//! parmabench-replay fnv    --file <path>
//! parmabench-replay drive  --addr <host:port> --dir <inputs>
//!                          (--seconds <s> | --max-jobs <n>) [--poll-ms <ms>]
//! parmabench-replay replay --seed <s> --dir <inputs> --workloads <w,...>
//!                          [--jobs <a,b>] [--batch-sessions <d0/b0-n32.txt,...>]
//! parmabench-replay replay --layers --timers on|off --work <dir> ...
//! ```
//!
//! `gen` writes a workload's inputs from its seed. `fnv` hashes a file.
//! `drive` runs the `serve-sessions` clients against a running
//! `parma serve` and prints every job's record.
//!
//! `replay` recomputes, with the program's own library entry points
//! (`BatchSolver`, `SolveService`, the equation writer), every result the
//! program under test must produce on those inputs: the reference the
//! harness checks journals, HTTP results and equation files against
//! (`--batch-sessions` limits `batch-paper` to the sessions named,
//! directory 0 by default).
//!
//! `replay --layers` is the traced per-layer replay instead. It makes each
//! layer call itself (ingest, plan, warm-start extrapolation, supervised
//! solve, detection, journal write, formation, writer), runs the HTTP
//! layer in process, and probes refactors, the service queue and warm
//! versus cold solves. With `--timers on` it wraps each call in a span
//! and prints the per-layer metrics; the harness checks its results
//! against the reference.

mod batch;
mod client;
mod equations;
mod inputs;
mod serve;
mod solve;
mod trace;

use mea_obs::json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};
use trace::{median, Tracer};

#[global_allocator]
static ALLOC: mea_memtrack::TrackingAllocator = mea_memtrack::TrackingAllocator::new();

/// How often a client polls `GET /jobs/<id>`, unless `--poll-ms` says.
const POLL: Duration = Duration::from_millis(2);

fn main() {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match run(&raw) {
        Ok(text) => println!("{text}"),
        Err(e) => {
            eprintln!("parmabench-replay: {e}");
            std::process::exit(2);
        }
    }
}

struct Opts(BTreeMap<String, String>);

impl Opts {
    fn parse(raw: &[String]) -> Result<Self, String> {
        let mut map = BTreeMap::new();
        let mut it = raw.iter();
        while let Some(key) = it.next() {
            let key = key
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {key:?}"))?;
            if key == "layers" {
                map.insert(key.to_string(), "on".to_string());
                continue;
            }
            let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
            map.insert(key.to_string(), value.clone());
        }
        Ok(Opts(map))
    }

    fn get(&self, key: &str) -> Result<&str, String> {
        self.0
            .get(key)
            .map(String::as_str)
            .ok_or_else(|| format!("missing --{key}"))
    }

    fn seed(&self) -> Result<u64, String> {
        self.get("seed")?
            .parse()
            .map_err(|e| format!("bad --seed: {e}"))
    }
}

fn run(raw: &[String]) -> Result<String, String> {
    let (cmd, rest) = raw
        .split_first()
        .ok_or("usage: parmabench-replay gen|fnv|replay|drive ...")?;
    let opts = Opts::parse(rest)?;
    match cmd.as_str() {
        "gen" => gen(&opts),
        "fnv" => fnv(Path::new(opts.get("file")?)),
        "replay" => replay(&opts),
        "drive" => drive(&opts),
        other => Err(format!("unknown command {other:?}")),
    }
}

fn gen(opts: &Opts) -> Result<String, String> {
    let seed = opts.seed()?;
    let dir = PathBuf::from(opts.get("dir")?);
    let files = inputs::write_inputs(opts.get("workload")?, seed, &dir)?;
    let mut sink = equations::HashSink::new();
    for (name, bytes) in &files {
        std::io::Write::write_all(&mut sink, name.as_bytes()).expect("hashing cannot fail");
        std::io::Write::write_all(&mut sink, bytes).expect("hashing cannot fail");
    }
    let mut out = String::new();
    let mut obj = json::Object::begin(&mut out);
    obj.field_u64("files", files.len() as u64);
    obj.field_u64("bytes", files.iter().map(|f| f.1.len() as u64).sum());
    obj.field_str("fnv", &format!("{:016x}", sink.hash));
    obj.field_u64("equations_seed", inputs::equations_seed(seed));
    obj.end();
    Ok(out)
}

fn fnv(path: &Path) -> Result<String, String> {
    use std::io::Read;
    let mut file = std::fs::File::open(path).map_err(|e| format!("cannot open {path:?}: {e}"))?;
    let mut sink = equations::HashSink::new();
    let mut buf = vec![0u8; 1 << 20];
    loop {
        let got = file
            .read(&mut buf)
            .map_err(|e| format!("cannot read {path:?}: {e}"))?;
        if got == 0 {
            break;
        }
        std::io::Write::write_all(&mut sink, &buf[..got]).expect("hashing cannot fail");
    }
    let mut out = String::new();
    let mut obj = json::Object::begin(&mut out);
    obj.field_u64("bytes", sink.bytes);
    obj.field_str("fnv", &format!("{:016x}", sink.hash));
    obj.end();
    Ok(out)
}

/// Jobs per device when `--jobs` is not given.
const DEFAULT_JOBS: usize = 32;

fn replay(opts: &Opts) -> Result<String, String> {
    let seed = opts.seed()?;
    let dir = PathBuf::from(opts.get("dir")?);
    let workloads: Vec<&str> = opts.get("workloads")?.split(',').collect();
    let jobs: Vec<usize> = match opts.0.get("jobs") {
        Some(list) => list
            .split(',')
            .map(|s| s.parse().map_err(|e| format!("bad --jobs: {e}")))
            .collect::<Result<_, _>>()?,
        None => vec![DEFAULT_JOBS; inputs::CLIENTS.len()],
    };
    if jobs.len() != inputs::CLIENTS.len() {
        return Err(format!("--jobs needs {} counts", inputs::CLIENTS.len()));
    }
    if opts.0.contains_key("layers") {
        let work = PathBuf::from(opts.get("work")?);
        std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {work:?}: {e}"))?;
        let timers = opts.0.get("timers").map(String::as_str) == Some("on");
        return traced(seed, &dir, &work, &workloads, &jobs, timers);
    }

    // The reference: every result recomputed by the program's own code.
    let quiet = Tracer::new(false, 0);
    let mut out = String::new();
    let mut doc = json::Object::begin(&mut out);
    if workloads.contains(&"batch-paper") {
        let sessions = match opts.0.get("batch-sessions") {
            Some(list) => list
                .split(',')
                .filter(|s| !s.is_empty())
                .map(|s| inputs::parse_batch_name(s).ok_or_else(|| format!("bad session {s:?}")))
                .collect::<Result<Vec<_>, _>>()?,
            None => (0..inputs::BATCH_SIZES.len()).map(|idx| (0, idx)).collect(),
        };
        doc.field_raw(
            "batch",
            &batch_json(&batch::library(seed, &dir, &sessions)?),
        );
    }
    if workloads.contains(&"serve-sessions") {
        let service = serve::service_chains(seed, &dir, &jobs, &quiet)?;
        doc.field_raw("serve", &chains_json(&service.chains));
    }
    if workloads.contains(&"equations-write") {
        let eq = equations::replay(
            inputs::EQUATIONS_N,
            inputs::equations_seed(seed),
            false,
            &quiet,
        )?;
        doc.field_raw("equations", &equations_json(seed, &eq));
    }
    doc.end();
    Ok(out)
}

/// The traced per-layer replay of directory 0 of `batch-paper`, `jobs`
/// jobs per `serve-sessions` device and one `equations-write` export.
fn traced(
    seed: u64,
    dir: &Path,
    work: &Path,
    workloads: &[&str],
    jobs: &[usize],
    timers: bool,
) -> Result<String, String> {
    let tr = Tracer::new(timers, seed);
    let recoveries = std::sync::atomic::AtomicU64::new(0);
    let serving = workloads.contains(&"serve-sessions");
    let t0 = Instant::now();
    let mut out = String::new();
    let mut doc = json::Object::begin(&mut out);
    let mut metrics: Vec<(String, f64)> = Vec::new();

    // First, because an in-process `parma serve` resets the program's
    // live counters when it starts.
    let http = if serving {
        let load = client::Load {
            bodies: client::Load::read_bodies(dir)?,
            until: None,
            max_jobs: jobs.iter().copied().max(),
            poll: POLL,
        };
        Some(client::in_process(work, &load, &tr)?)
    } else {
        None
    };
    mea_obs::reset();
    // The program's own bounded counters, read for the refactor count.
    mea_obs::set_live(timers);

    let batch = if workloads.contains(&"batch-paper") {
        Some(batch::replay(seed, dir, 0, &tr, &recoveries)?)
    } else {
        None
    };
    let chains = if serving {
        let path = work.join("replay-journal.jsonl");
        std::fs::remove_file(&path).ok();
        let journal = parma_cli::journal::Journal::open_append(&path)?;
        Some(serve::replay_chains(
            seed,
            dir,
            jobs,
            &tr,
            &recoveries,
            Some(&journal),
        )?)
    } else {
        None
    };
    let refactors = refactor_count();
    let service = if serving {
        Some(serve::service_chains(seed, dir, jobs, &tr)?)
    } else {
        None
    };
    let warm_cold = if serving {
        Some(serve::warm_vs_cold(dir, jobs)?)
    } else {
        None
    };
    refactor_probes(seed, workloads, &tr)?;
    let eq = if workloads.contains(&"equations-write") {
        Some(equations::replay(
            inputs::EQUATIONS_N,
            inputs::equations_seed(seed),
            true,
            &tr,
        )?)
    } else {
        None
    };
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    mea_obs::set_live(false);

    doc.field_f64("wall_ms", wall_ms);
    if let Some(b) = &batch {
        doc.field_raw("batch", &batch_json(&b.sessions));
    }
    if let Some(chains) = &chains {
        doc.field_raw("serve", &chains_json(chains));
    }
    if let Some(records) = &http {
        doc.field_raw("http", &client::records_json(records));
    }
    if let Some(e) = &eq {
        doc.field_raw("equations", &equations_json(seed, e));
    }

    if timers {
        let spans = tr.spans();
        let ms_of = |name: &str| -> Vec<f64> {
            spans
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.ms())
                .collect()
        };
        let total = |name: &str| -> f64 { ms_of(name).iter().sum() };
        let mut m = |name: &str, v: f64| metrics.push((name.to_string(), v));

        let ingest: Vec<_> = spans
            .iter()
            .filter(|s| s.name.starts_with("model.ingest."))
            .collect();
        let ingest_ms: f64 = ingest.iter().map(|s| s.ms()).sum();
        let ingest_bytes: u64 = ingest.iter().map(|s| s.count).sum();
        m("model.ingest.ms", ingest_ms);
        m("model.ingest.mb_per_s", mb_per_s(ingest_bytes, ingest_ms));

        for (n, _) in probe_sizes() {
            let per: Vec<f64> = spans
                .iter()
                .filter(|s| s.name == "model.forward.refactor" && s.n as usize == n)
                .map(|s| s.ms())
                .collect();
            m(&format!("model.forward.refactor_ms.n{n}"), median(&per));
        }
        m("model.forward.refactors", refactors as f64);

        let solves: Vec<_> = spans
            .iter()
            .filter(|s| s.name == "parma.solver.solve")
            .collect();
        let calls = solves.len() as f64;
        let iters: u64 = solves.iter().map(|s| s.count).sum();
        let solve_ms: f64 = solves.iter().map(|s| s.ms()).sum();
        m("parma.solver.calls", calls);
        m("parma.solver.iters", iters as f64);
        m("parma.solver.ms", solve_ms);
        m("parma.solver.ms_per_iter", solve_ms / (iters.max(1) as f64));
        m(
            "parma.solver.converged_ratio",
            solves.iter().filter(|s| s.ok).count() as f64 / calls.max(1.0),
        );
        m(
            "parma.solver.recoveries",
            recoveries.load(std::sync::atomic::Ordering::Relaxed) as f64,
        );

        let (mut attempts, mut ok_items, mut wasted) = (0usize, 0usize, 0u64);
        if let Some(b) = &batch {
            for s in &b.sessions {
                attempts += s.attempts;
                ok_items += usize::from(s.ok);
                wasted += s.wasted_iters;
            }
        }
        if let Some(chains) = &chains {
            for j in chains.iter().flatten() {
                attempts += j.attempts;
                ok_items += usize::from(j.ok);
                wasted += j.wasted_iters;
            }
        }
        m("parma.supervisor.attempts", attempts as f64);
        m(
            "parma.supervisor.useful_ratio",
            ok_items as f64 / attempts.max(1) as f64,
        );
        m("parma.supervisor.wasted_iters", wasted as f64);

        if let Some(b) = &batch {
            m(
                "parma.batch.busy_frac",
                b.busy_ms / (b.wall_ms * batch::THREADS as f64),
            );
            m("parma.batch.straggler_ms", b.straggler_ms);
        }
        m("parma.plan.ms", total("parma.plan.new"));
        if let Some(s) = &service {
            let lookups = (s.plan_hits + s.plan_misses).max(1);
            m("parma.plan.hit_ratio", s.plan_hits as f64 / lookups as f64);
            m(
                "parma.service.queue_ms_p50",
                median(&ms_of("parma.service.queue")),
            );
        }
        if let Some((warm, cold)) = warm_cold {
            m(
                "parma.session.iters_saved_ratio",
                1.0 - warm as f64 / cold.max(1) as f64,
            );
        }
        if http.is_some() {
            m(
                "obs.serve.request_ms_p50",
                median(&ms_of("obs.serve.request")),
            );
        }
        m("parma.detect.ms", total("parma.detect"));
        m(
            "cli.journal.record_ms_p50",
            median(&ms_of("cli.journal.record")),
        );

        if let Some(e) = &eq {
            let form_ms = total("equations.form");
            let write_ms = total("equations.write");
            m("equations.form.ms", form_ms);
            m("equations.form.terms", e.terms as f64);
            m("equations.form.allocs", e.form_allocs as f64);
            m(
                "equations.form.peak_heap_mb",
                e.form_peak_heap_bytes as f64 / 1e6,
            );
            m("equations.write.ms", write_ms);
            m("equations.write.bytes", e.bytes as f64);
            m("equations.write.mb_per_s", mb_per_s(e.bytes, write_ms));
            m(
                "equations.write.allocs_per_eq",
                e.write_allocs as f64 / e.equations.max(1) as f64,
            );
        }
        tr.write_jsonl(&work.join("spans.jsonl"))
            .map_err(|e| format!("cannot write spans: {e}"))?;
    }
    let mut layer_json = String::new();
    let mut obj = json::Object::begin(&mut layer_json);
    for (name, v) in &metrics {
        obj.field_f64(name, *v);
    }
    obj.end();
    doc.field_raw("layers", &layer_json);
    doc.end();
    Ok(out)
}

/// `drive`: the closed-loop clients against a running `parma serve`.
fn drive(opts: &Opts) -> Result<String, String> {
    let addr: std::net::SocketAddr = opts
        .get("addr")?
        .parse()
        .map_err(|e| format!("bad --addr: {e}"))?;
    let poll = match opts.0.get("poll-ms") {
        Some(ms) => Duration::from_secs_f64(
            ms.parse::<f64>()
                .map_err(|e| format!("bad --poll-ms: {e}"))?
                / 1e3,
        ),
        None => POLL,
    };
    let seconds: Option<f64> = opts
        .0
        .get("seconds")
        .map(|s| s.parse().map_err(|e| format!("bad --seconds: {e}")))
        .transpose()?;
    let max_jobs: Option<usize> = opts
        .0
        .get("max-jobs")
        .map(|s| s.parse().map_err(|e| format!("bad --max-jobs: {e}")))
        .transpose()?;
    if seconds.is_none() && max_jobs.is_none() {
        return Err("drive needs --seconds or --max-jobs".to_string());
    }
    let load = client::Load {
        bodies: client::Load::read_bodies(Path::new(opts.get("dir")?))?,
        until: seconds.map(|s| Instant::now() + Duration::from_secs_f64(s)),
        max_jobs,
        poll,
    };
    let (records, window_s) = client::drive(addr, &load, &Tracer::new(false, 0), 0);
    let mut out = String::new();
    let mut doc = json::Object::begin(&mut out);
    doc.field_f64("window_s", window_s);
    doc.field_raw("devices", &client::records_json(&records));
    doc.end();
    Ok(out)
}

/// Refactors the solver has recorded on the program's live counters.
fn refactor_count() -> u64 {
    mea_obs::snapshot()
        .hists
        .iter()
        .find(|(name, _)| name == "model.forward_refactor_ms")
        .map_or(0, |(_, h)| h.count)
}

/// Sizes probed for `model.forward.refactor_ms.nN`, with the workload
/// whose maps are used.
fn probe_sizes() -> [(usize, &'static str); 6] {
    [
        (16, "serve-sessions"),
        (20, "serve-sessions"),
        (32, "batch-paper"),
        (48, "batch-paper"),
        (64, "batch-paper"),
        (100, "batch-paper"),
    ]
}

/// Times `ForwardSolver::refactor` five times on the hour-0 ground-truth
/// map of the first session of each size in the selected workloads.
fn refactor_probes(seed: u64, workloads: &[&str], tr: &Tracer) -> Result<(), String> {
    for (n, workload) in probe_sizes() {
        if !workloads.contains(&workload) {
            continue;
        }
        let ds = if workload == "batch-paper" {
            let idx = inputs::BATCH_SIZES
                .iter()
                .position(|&s| s == n)
                .expect("probe size is a batch size");
            inputs::batch_session(seed, 0, idx)
        } else {
            let client = inputs::CLIENTS
                .iter()
                .position(|c| c.1 == n)
                .expect("probe size is a device size");
            inputs::device_session(seed, client, 0)
        };
        let truth = ds.measurements[0]
            .ground_truth
            .as_ref()
            .expect("generated sessions carry ground truth");
        let mut ws = mea_model::ForwardWorkspace::new(truth.grid());
        let mut fwd = mea_model::ForwardSolver::with_workspace(truth, &mut ws)
            .map_err(|e| format!("forward solve failed: {e}"))?;
        for _ in 0..5 {
            let mut sp = tr.span("model.forward.refactor", 0);
            sp.set_n(n);
            fwd.refactor(truth, &mut ws)
                .map_err(|e| format!("refactor failed: {e}"))?;
        }
    }
    Ok(())
}

fn mb_per_s(bytes: u64, ms: f64) -> f64 {
    if ms > 0.0 {
        bytes as f64 / 1e6 / (ms / 1e3)
    } else {
        0.0
    }
}

fn batch_json(sessions: &[batch::SessionOut]) -> String {
    let mut out = String::from("[");
    for (k, s) in sessions.iter().enumerate() {
        if k > 0 {
            out.push(',');
        }
        let mut obj = json::Object::begin(&mut out);
        obj.field_str("name", &s.name);
        obj.field_u64("n", s.n as u64);
        obj.field_raw("ok", if s.ok { "true" } else { "false" });
        obj.field_raw("tps", &solve::checks_json(&s.checks));
        obj.end();
    }
    out.push(']');
    out
}

fn chains_json(chains: &[Vec<serve::JobOut>]) -> String {
    let mut out = String::from("[");
    for (d, chain) in chains.iter().enumerate() {
        if d > 0 {
            out.push(',');
        }
        out.push('[');
        for (k, j) in chain.iter().enumerate() {
            if k > 0 {
                out.push(',');
            }
            let mut obj = json::Object::begin(&mut out);
            obj.field_raw("ok", if j.ok { "true" } else { "false" });
            obj.field_raw("tps", &solve::checks_json(&j.checks));
            obj.end();
        }
        out.push(']');
    }
    out.push(']');
    out
}

fn equations_json(seed: u64, e: &equations::EquationsOut) -> String {
    let mut out = String::new();
    let mut obj = json::Object::begin(&mut out);
    obj.field_u64("n", e.n as u64);
    obj.field_u64("seed", inputs::equations_seed(seed));
    obj.field_u64("equations", e.equations as u64);
    obj.field_u64("terms", e.terms as u64);
    obj.field_raw("census_ok", if e.census_ok { "true" } else { "false" });
    obj.field_u64("bytes", e.bytes);
    obj.field_str("fnv", &format!("{:016x}", e.fnv));
    obj.end();
    out
}
