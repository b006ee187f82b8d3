//! The equation export: byte-identity pins of the Figure-9 text format,
//! and equivalence of the pair-by-pair streaming export with rendering an
//! already formed system.

use mea_equations::{
    form_all_equations, render_equation, stream_system, write_system, FormationCensus,
};
use mea_model::{AnomalyConfig, CrossingMatrix, ForwardSolver, MeaGrid, ZMatrix};
use proptest::prelude::*;
use std::io::{self, Write};

/// FNV-1a 64 over everything written through it, counting bytes; no file.
struct HashSink {
    hash: u64,
    bytes: usize,
}

impl HashSink {
    fn new() -> Self {
        HashSink {
            hash: 0xcbf2_9ce4_8422_2325,
            bytes: 0,
        }
    }
}

impl Write for HashSink {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        for &b in buf {
            self.hash ^= u64::from(b);
            self.hash = self.hash.wrapping_mul(0x100_0000_01b3);
        }
        self.bytes += buf.len();
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

/// The device `parma equations` exports by default: seed 42, default
/// anomalies, forward-solved impedances.
fn default_device(grid: MeaGrid) -> ZMatrix {
    let (truth, _) = AnomalyConfig::default().generate(grid, 42);
    ForwardSolver::new(&truth)
        .expect("generated devices are physical")
        .solve_all()
}

/// Size and FNV-1a of the export, pinned from the string-building writer
/// this renderer replaced; both export paths must reproduce them.
fn assert_pinned(grid: MeaGrid, size: usize, fnv: u64) {
    let z = default_device(grid);

    let mut sink = HashSink::new();
    let written = write_system(&form_all_equations(&z, 5.0), grid, &mut sink).unwrap();
    assert_eq!((written, sink.bytes), (size, size), "write_system size");
    assert_eq!(sink.hash, fnv, "write_system FNV-1a");

    let mut sink = HashSink::new();
    let (written, census) = stream_system(&z, 5.0, &mut sink).unwrap();
    assert_eq!((written, sink.bytes), (size, size), "stream_system size");
    assert_eq!(sink.hash, fnv, "stream_system FNV-1a");
    assert_eq!(census, FormationCensus::expected(grid));
}

#[test]
fn export_pin_n10() {
    assert_pinned(MeaGrid::square(10), 688_130, 0xaada_7c61_23ad_3a9b);
}

#[test]
fn export_pin_n20() {
    assert_pinned(MeaGrid::square(20), 12_071_520, 0x7e9d_1cc4_0ceb_bbbd);
}

#[test]
fn export_pin_3x5() {
    assert_pinned(MeaGrid::new(3, 5), 14_484, 0x5c7b_7c2e_f650_8304);
}

/// Streams `z`, checks the bytes against `write_system` of the formed
/// system, and every equation line against `render_equation`. Returns the
/// streamed text.
fn assert_stream_matches(z: &ZMatrix, voltage: f64) -> String {
    let grid = z.grid();
    let eqs = form_all_equations(z, voltage);
    let mut formed = Vec::new();
    let formed_bytes = write_system(&eqs, grid, &mut formed).unwrap();
    let mut streamed = Vec::new();
    let (streamed_bytes, census) = stream_system(z, voltage, &mut streamed).unwrap();
    assert_eq!(streamed, formed, "{}×{}", grid.rows(), grid.cols());
    assert_eq!(streamed_bytes, streamed.len());
    assert_eq!(formed_bytes, formed.len());
    assert_eq!(census, FormationCensus::of(&eqs));

    let text = String::from_utf8(streamed).expect("the export is UTF-8");
    let lines: Vec<&str> = text.lines().filter(|l| !l.starts_with('#')).collect();
    assert_eq!(lines.len(), eqs.len());
    for (line, eq) in lines.iter().zip(&eqs) {
        assert_eq!(*line, render_equation(eq, grid));
    }
    text
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn streaming_export_equals_materialised_export(
        rows in 1usize..=6,
        cols in 1usize..=6,
        voltage in 0.5f64..12.0,
        z_values in proptest::collection::vec(100.0f64..5000.0, 36..37),
    ) {
        let grid = MeaGrid::new(rows, cols);
        let z = CrossingMatrix::from_vec(grid, z_values[..rows * cols].to_vec());
        assert_stream_matches(&z, voltage);
    }
}

#[test]
fn streaming_export_with_two_letter_row_names() {
    let text = assert_stream_matches(&CrossingMatrix::filled(MeaGrid::new(28, 2), 900.0), 5.0);
    assert!(text.contains("# pair (AB, II)"));
    assert!(text.contains("R[AA,I]"));
}

#[test]
fn streaming_export_with_roman_numerals_to_xl() {
    let text = assert_stream_matches(&CrossingMatrix::filled(MeaGrid::new(2, 40), 900.0), 5.0);
    assert!(text.contains("# pair (B, XL)"));
    assert!(text.contains("Ua[A,XXXIX,39]"));
}
