//! `equations-write` replay: the same device, formation and text writer
//! as `parma equations --n 40 --seed <s>`, with the output bytes hashed
//! instead of stored. With `layers`, the writer first runs once into a
//! sink that only counts bytes, which is the pass the `equations.write`
//! span times, so hashing never shows in the write time.

use crate::trace::Tracer;
use mea_equations::{form_all_equations, write_system, FormationCensus};
use mea_model::{AnomalyConfig, ForwardSolver, MeaGrid};
use std::io::Write;

pub struct EquationsOut {
    pub n: usize,
    pub equations: usize,
    pub terms: usize,
    pub census_ok: bool,
    pub bytes: u64,
    pub fnv: u64,
    pub form_allocs: u64,
    pub form_peak_heap_bytes: u64,
    pub write_allocs: u64,
}

/// FNV-1a 64 over everything written through it (the hash
/// `parma_cli::journal::fnv1a64_bytes` computes), counting bytes.
pub struct HashSink {
    pub hash: u64,
    pub bytes: u64,
}

impl HashSink {
    pub fn new() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

/// Discards everything written through it, counting bytes.
struct CountSink(u64);

impl Write for CountSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0 += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

pub fn replay(n: usize, seed: u64, layers: bool, tr: &Tracer) -> Result<EquationsOut, String> {
    let root = tr.span("equations.replay", 0);
    let grid = MeaGrid::square(n);
    let (truth, _) = AnomalyConfig::default().generate(grid, seed);
    let z = ForwardSolver::new(&truth)
        .map_err(|e| format!("forward solve failed: {e}"))?
        .solve_all();

    let allocs0 = mea_memtrack::allocation_count();
    let live0 = mea_memtrack::live_bytes();
    mea_memtrack::reset_peak();
    let eqs = {
        let mut sp = tr.span("equations.form", root.id());
        sp.set_n(n);
        let eqs = form_all_equations(&z, 5.0);
        sp.set_count(eqs.len() as u64);
        eqs
    };
    let form_allocs = (mea_memtrack::allocation_count() - allocs0) as u64;
    let form_peak_heap_bytes = mea_memtrack::peak_bytes().saturating_sub(live0) as u64;
    let census = FormationCensus::of(&eqs);

    let mut write_allocs = 0;
    if layers {
        let allocs1 = mea_memtrack::allocation_count();
        let mut sp = tr.span("equations.write", root.id());
        sp.set_n(n);
        let written =
            write_system(&eqs, grid, CountSink(0)).map_err(|e| format!("write failed: {e}"))?;
        sp.set_count(written as u64);
        drop(sp);
        write_allocs = (mea_memtrack::allocation_count() - allocs1) as u64;
    }
    let mut sink = HashSink::new();
    write_system(&eqs, grid, &mut sink).map_err(|e| format!("write failed: {e}"))?;
    Ok(EquationsOut {
        n,
        equations: census.equations,
        terms: census.terms,
        census_ok: census == FormationCensus::expected(grid),
        bytes: sink.bytes,
        fnv: sink.hash,
        form_allocs,
        form_peak_heap_bytes,
        write_allocs,
    })
}
