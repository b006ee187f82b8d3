//! Closed-loop HTTP clients for a running `parma serve`, one thread per
//! client: the load of the `serve-sessions` workload.
//!
//! Job `k` of a client posts the session of its device
//! `inputs::device_of_job(k)` as `POST /jobs?session=<device>`, polls `GET /jobs/<id>` every `poll` until the job is decided, fetches
//! `GET /jobs/<id>/result`, and only then sends its next job, because a
//! warm-started job needs its predecessor's committed result. A 429/503
//! reply is recorded and the job is sent again after its `Retry-After`
//! (at most a second). Each non-solve request (status poll or result
//! fetch) is an `obs.serve.request` span.

use crate::inputs;
use crate::trace::Tracer;
use mea_obs::json;
use mea_obs::serve::http_request;
use std::net::SocketAddr;
use std::path::Path;
use std::time::{Duration, Instant};

pub enum Outcome {
    /// Submit → result fetched, the time since the loop began at which
    /// the result arrived, and the `parma-serve-result/v1` document.
    Answered {
        latency_ms: f64,
        done_s: f64,
        result: String,
    },
    /// A 429 or 503 reply to the submit.
    Rejected(u16),
    /// Anything else; the client stops after it.
    Error(String),
}

pub struct JobRecord {
    /// Chain position of the job (a rejected submit keeps its `k`).
    pub k: usize,
    pub outcome: Outcome,
}

/// When the clients stop: at `until`, or after `max_jobs` answered jobs
/// each, whichever comes first.
pub struct Load {
    /// Request body of each client's devices.
    pub bodies: Vec<Vec<Vec<u8>>>,
    pub until: Option<Instant>,
    pub max_jobs: Option<usize>,
    pub poll: Duration,
}

impl Load {
    /// Every device's request body, read from the `serve` inputs.
    pub fn read_bodies(dir: &Path) -> Result<Vec<Vec<Vec<u8>>>, String> {
        (0..inputs::CLIENTS.len())
            .map(|c| {
                (0..inputs::DEVICES_PER_CLIENT)
                    .map(|d| {
                        let path = dir.join(inputs::SERVE_DIR).join(inputs::body_name(c, d));
                        std::fs::read(&path).map_err(|e| format!("cannot read {path:?}: {e}"))
                    })
                    .collect()
            })
            .collect()
    }
}

/// Runs the clients against `addr`; returns each client's records and
/// the wall time of the loop in seconds.
pub fn drive(
    addr: SocketAddr,
    load: &Load,
    tr: &Tracer,
    parent: u32,
) -> (Vec<Vec<JobRecord>>, f64) {
    let t0 = Instant::now();
    let records = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs::CLIENTS.len())
            .map(|c| scope.spawn(move || client(addr, c, load, t0, tr, parent)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("a client thread panicked"))
            .collect()
    });
    (records, t0.elapsed().as_secs_f64())
}

fn client(
    addr: SocketAddr,
    client: usize,
    load: &Load,
    epoch: Instant,
    tr: &Tracer,
    parent: u32,
) -> Vec<JobRecord> {
    let mut records = Vec::new();
    let mut k = 0;
    while load.max_jobs.is_none_or(|m| k < m) && load.until.is_none_or(|u| Instant::now() < u) {
        let device = inputs::device_of_job(k);
        let submit_path = format!("/jobs?session={}", inputs::session_id(client, device));
        let t0 = Instant::now();
        let outcome = match http_request(addr, "POST", &submit_path, &load.bodies[client][device]) {
            Err(e) => Outcome::Error(e),
            Ok(reply) if reply.status == 429 || reply.status == 503 => {
                let wait = reply
                    .header("Retry-After")
                    .and_then(|s| s.parse::<f64>().ok())
                    .unwrap_or(0.05)
                    .clamp(0.0, 1.0);
                records.push(JobRecord {
                    k,
                    outcome: Outcome::Rejected(reply.status),
                });
                std::thread::sleep(Duration::from_secs_f64(wait));
                continue;
            }
            Ok(reply) if reply.status != 202 => {
                Outcome::Error(format!("POST /jobs answered {}", reply.status))
            }
            Ok(reply) => match field(&reply.body, "job").and_then(|s| s.parse::<u64>().ok()) {
                None => Outcome::Error(format!("POST /jobs answered {:?}", reply.body)),
                Some(id) => finish(addr, id, load.poll, t0, epoch, tr, parent),
            },
        };
        let stop = matches!(outcome, Outcome::Error(_));
        records.push(JobRecord { k, outcome });
        if stop {
            break;
        }
        k += 1;
    }
    records
}

/// Polls job `id`, submitted at `t0`, until it is decided, then fetches
/// its result.
fn finish(
    addr: SocketAddr,
    id: u64,
    poll: Duration,
    t0: Instant,
    epoch: Instant,
    tr: &Tracer,
    parent: u32,
) -> Outcome {
    let get = |path: &str| {
        let _sp = tr.span("obs.serve.request", parent);
        match http_request(addr, "GET", path, b"") {
            Ok(reply) if reply.status == 200 => Ok(reply.body),
            Ok(reply) => Err(format!("GET {path} answered {}", reply.status)),
            Err(e) => Err(e),
        }
    };
    let status_path = format!("/jobs/{id}");
    loop {
        match get(&status_path) {
            Err(e) => return Outcome::Error(e),
            Ok(doc) => match field(&doc, "status").as_deref() {
                Some("done" | "failed") => break,
                Some(_) => std::thread::sleep(poll),
                None => return Outcome::Error(format!("GET {status_path} answered {doc:?}")),
            },
        }
    }
    match get(&format!("/jobs/{id}/result")) {
        Ok(result) => Outcome::Answered {
            latency_ms: t0.elapsed().as_secs_f64() * 1e3,
            done_s: epoch.elapsed().as_secs_f64(),
            result,
        },
        Err(e) => Outcome::Error(e),
    }
}

/// The scalar value of top-level field `key` in a flat JSON reply,
/// unquoted (enough for the service's `job` and `status` fields).
fn field(doc: &str, key: &str) -> Option<String> {
    let pat = format!("\"{key}\":");
    let rest = doc[doc.find(&pat)? + pat.len()..].trim_start();
    let value = match rest.strip_prefix('"') {
        Some(quoted) => &quoted[..quoted.find('"')?],
        None => &rest[..rest.find([',', '}']).unwrap_or(rest.len())],
    };
    Some(value.trim().to_string())
}

/// JSON of each client's records: `{"k", "status": "answered", "latency_ms",
/// "done_s", "result"}`, `{"k", "status": "rejected", "reason": "HTTP 429"}` or
/// `{"k", "status": "error", "reason"}`.
pub fn records_json(records: &[Vec<JobRecord>]) -> String {
    let mut out = String::from("[");
    for (d, recs) in records.iter().enumerate() {
        if d > 0 {
            out.push(',');
        }
        out.push('[');
        for (i, r) in recs.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let mut obj = json::Object::begin(&mut out);
            obj.field_u64("k", r.k as u64);
            match &r.outcome {
                Outcome::Answered {
                    latency_ms,
                    done_s,
                    result,
                } => {
                    obj.field_str("status", "answered");
                    obj.field_f64("latency_ms", *latency_ms);
                    obj.field_f64("done_s", *done_s);
                    obj.field_raw("result", result);
                }
                Outcome::Rejected(code) => {
                    obj.field_str("status", "rejected");
                    obj.field_str("reason", &format!("HTTP {code}"));
                }
                Outcome::Error(reason) => {
                    obj.field_str("status", "error");
                    obj.field_str("reason", reason);
                }
            }
            obj.end();
        }
        out.push(']');
    }
    out.push(']');
    out
}

/// Starts `parma serve --threads 2 --journal` inside this process, drives
/// it with `load`, drains it through `POST /shutdown` and returns the
/// records: the HTTP layer, timed by the traced replay.
pub fn in_process(work: &Path, load: &Load, tr: &Tracer) -> Result<Vec<Vec<JobRecord>>, String> {
    let addr_file = work.join("probe.addr");
    let journal = work.join("probe.journal");
    for stale in [&addr_file, &journal] {
        std::fs::remove_file(stale).ok();
    }
    let args: Vec<String> = [
        "serve",
        "--threads",
        "2",
        "--journal",
        &journal.to_string_lossy(),
        "--addr",
        "127.0.0.1:0",
        "--addr-file",
        &addr_file.to_string_lossy(),
    ]
    .iter()
    .map(|s| s.to_string())
    .collect();
    let server = std::thread::spawn(move || {
        let mut out = Vec::new();
        parma_cli::run(&args, &mut out).map_err(|e| format!("in-process serve failed: {e}"))
    });
    let deadline = Instant::now() + Duration::from_secs(60);
    let addr = loop {
        if let Some(addr) = std::fs::read_to_string(&addr_file)
            .ok()
            .and_then(|text| text.trim().parse::<SocketAddr>().ok())
        {
            break addr;
        }
        if server.is_finished() {
            return Err(match server.join() {
                Ok(Err(e)) => e,
                _ => "in-process serve exited before it was ready".to_string(),
            });
        }
        if Instant::now() > deadline {
            // The process exits on this error, and the server thread with it.
            return Err("in-process serve did not become ready".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    };
    let root = tr.span("serve.http", 0);
    let (records, _) = drive(addr, load, tr, root.id());
    drop(root);
    // The reply can be cut off by the drain itself; the join below is
    // what waits for the drain.
    let _ = http_request(addr, "POST", "/shutdown", b"");
    server
        .join()
        .map_err(|_| "in-process serve panicked".to_string())??;
    Ok(records)
}
