//! Seeded benchmark inputs. Everything here is a pure function of the
//! workload seed, so the harness, the program under test and the replay
//! all see the same devices.

use mea_model::{AnomalyConfig, MeaGrid, WetLabDataset};
use std::path::Path;

/// `batch-paper` session sizes of one directory: two each at
/// n = 32/48/64, one at n = 100.
pub const BATCH_SIZES: [usize; 7] = [32, 32, 48, 48, 64, 64, 100];

/// `batch-paper` directories per seed. Whether an n = 48 device converges
/// under the default cap is close to a coin flip, so one directory per
/// run would make the converged share swing with the seed; seven average
/// it out.
pub const BATCH_DIRS: usize = 7;

/// `serve-sessions` clients and the size of their devices, both below the
/// structured factor path's threshold (Laplacian dimension < 48).
pub const CLIENTS: [(&str, usize); 2] = [("devA", 16), ("devB", 20)];

/// Devices per client. A client re-measures its devices in rotation, and
/// each device is its own session. How fast one device converges varies a
/// lot from seed to seed (a third of the median latency between seeds with
/// one device per client); eight per client average it out.
pub const DEVICES_PER_CLIENT: usize = 8;

/// `equations-write` array size.
pub const EQUATIONS_N: usize = 40;

/// Directory names under the input root.
pub const BATCH_DIR: &str = "batch";
pub const SERVE_DIR: &str = "serve";

/// SplitMix64 of `seed` on stream `stream`: independent per-item seeds.
pub fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Session `idx` of directory `dir`, relative to the `batch` input root.
pub fn batch_name(dir: usize, idx: usize) -> String {
    format!("d{dir}/b{idx}-n{}.txt", BATCH_SIZES[idx])
}

pub fn batch_session(seed: u64, dir: usize, idx: usize) -> WetLabDataset {
    generate(
        BATCH_SIZES[idx],
        mix(seed, 100 + 16 * dir as u64 + idx as u64),
    )
}

/// Parses a [`batch_name`] back into `(dir, idx)`.
pub fn parse_batch_name(name: &str) -> Option<(usize, usize)> {
    let (dir, file) = name.strip_prefix('d')?.split_once("/b")?;
    let (idx, _) = file.split_once('-')?;
    let (dir, idx) = (dir.parse().ok()?, idx.parse().ok()?);
    (dir < BATCH_DIRS && idx < BATCH_SIZES.len() && name == batch_name(dir, idx))
        .then_some((dir, idx))
}

/// Session id of device `device` of client `client`, as in `devA3`.
pub fn session_id(client: usize, device: usize) -> String {
    format!("{}{device}", CLIENTS[client].0)
}

/// Job `k` of a client measures its device `k % DEVICES_PER_CLIENT`.
pub fn device_of_job(k: usize) -> usize {
    k % DEVICES_PER_CLIENT
}

/// The request body of every job of a device.
pub fn body_name(client: usize, device: usize) -> String {
    format!("{}.txt", session_id(client, device))
}

/// The session a device reports each time it is measured. Every job of a
/// device re-measures the same device, so its warm start from the
/// predecessor's committed map starts near the answer.
pub fn device_session(seed: u64, client: usize, device: usize) -> WetLabDataset {
    let stream = 1000 * (client as u64 + 1) + device as u64;
    generate(CLIENTS[client].1, mix(seed, stream))
}

/// The `--seed` handed to `parma equations`.
pub fn equations_seed(seed: u64) -> u64 {
    mix(seed, 7) >> 1
}

fn generate(n: usize, seed: u64) -> WetLabDataset {
    WetLabDataset::generate(MeaGrid::square(n), &AnomalyConfig::default(), seed)
        .expect("generated devices are physical, so their forward solve succeeds")
}

/// Text rendering of a session, exactly as `parma` reads it.
pub fn text(ds: &WetLabDataset) -> Vec<u8> {
    let mut bytes = Vec::new();
    ds.write_text(&mut bytes)
        .expect("writing into memory cannot fail");
    bytes
}

/// Writes one workload's input files under `root`; returns
/// `(file name, bytes)` pairs in write order.
pub fn write_inputs(
    workload: &str,
    seed: u64,
    root: &Path,
) -> Result<Vec<(String, Vec<u8>)>, String> {
    let mut files = Vec::new();
    match workload {
        "batch-paper" => {
            for dir in 0..BATCH_DIRS {
                for idx in 0..BATCH_SIZES.len() {
                    let name = format!("{BATCH_DIR}/{}", batch_name(dir, idx));
                    files.push((name, text(&batch_session(seed, dir, idx))));
                }
            }
        }
        "serve-sessions" => {
            for client in 0..CLIENTS.len() {
                for device in 0..DEVICES_PER_CLIENT {
                    let name = format!("{SERVE_DIR}/{}", body_name(client, device));
                    files.push((name, text(&device_session(seed, client, device))));
                }
            }
        }
        // `parma equations` builds its own device from a seed; the only
        // input is that seed.
        "equations-write" => {
            files.push((
                "equations.seed".to_string(),
                format!("{}\n", equations_seed(seed)).into_bytes(),
            ));
        }
        other => return Err(format!("unknown workload {other:?}")),
    }
    for (name, bytes) in &files {
        let path = root.join(name);
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir:?}: {e}"))?;
        }
        std::fs::write(&path, bytes).map_err(|e| format!("cannot write {path:?}: {e}"))?;
    }
    Ok(files)
}
