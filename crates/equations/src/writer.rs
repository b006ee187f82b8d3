//! Paper-style text rendering of joint-constraint equations, and the bulk
//! file writer behind the Figure-9 I/O experiment.
//!
//! The paper's Python pipeline generated the system of nonlinear equations
//! and wrote it to disk as text for downstream solvers; §V-E times exactly
//! that. The format here mirrors the paper's notation, e.g. for the 3×3
//! device's pair (A, I):
//!
//! ```text
//! U/Z[A,I] = U/R[A,I] + (U - Ua[A,I,1])/R[A,II] + (U - Ua[A,I,2])/R[A,III]
//! ```
//!
//! Everything is rendered by one byte renderer: a pair's header and its
//! `2 + (cols−1) + (rows−1)` lines are appended to a reused `Vec<u8>` from
//! name tables built once per grid (wires, resistors) and once per pair
//! (`Ua`/`Ub` potentials), so rendering allocates nothing per equation.
//! Each pair block reaches the sink as a single `write_all`.
//! [`write_system`] renders an already formed system; [`stream_system`]
//! forms and writes pair by pair, so the whole `Θ(n⁴)` system is never
//! held in memory.

use crate::constraint::{ConstraintCategory, Equation, PotentialRef};
use crate::formation::{form_pair_equations, FormationCensus};
use mea_model::{MeaGrid, ZMatrix};
use std::io::{self, Write};

/// Byte strings stored back to back in one buffer, looked up by index.
struct ByteTable {
    bytes: Vec<u8>,
    starts: Vec<usize>,
}

impl ByteTable {
    fn new() -> Self {
        ByteTable {
            bytes: Vec::new(),
            starts: vec![0],
        }
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.starts.truncate(1);
    }

    /// Appends one entry written by `f`.
    fn push_with(&mut self, f: impl FnOnce(&mut Vec<u8>)) {
        f(&mut self.bytes);
        self.starts.push(self.bytes.len());
    }

    fn get(&self, idx: usize) -> Option<&[u8]> {
        let end = *self.starts.get(idx + 1)?;
        Some(&self.bytes[self.starts[idx]..end])
    }
}

/// The names a rendering reuses: every wire name and every `/R[h,v]` of
/// the grid, built once, and the `Ua[h,v,k]`/`Ub[h,v,m]` potentials of one
/// pair, rebuilt by [`Names::set_pair`]. Terms are then copied as a few
/// byte slices instead of recomputing letters, Roman numerals and indices
/// per term.
struct Names {
    horizontal: Vec<String>,
    vertical: Vec<String>,
    resistors: ByteTable,
    ua: ByteTable,
    ub: ByteTable,
}

impl Names {
    fn new(grid: MeaGrid) -> Self {
        let horizontal: Vec<String> = (0..grid.rows()).map(|i| grid.horizontal_name(i)).collect();
        let vertical: Vec<String> = (0..grid.cols()).map(|j| grid.vertical_name(j)).collect();
        let mut resistors = ByteTable::new();
        for h in &horizontal {
            for v in &vertical {
                resistors.push_with(|b| {
                    b.extend_from_slice(b"/R[");
                    push_crossing(b, h, v);
                    b.push(b']');
                });
            }
        }
        Names {
            horizontal,
            vertical,
            resistors,
            ua: ByteTable::new(),
            ub: ByteTable::new(),
        }
    }

    /// Row and column names of a crossing.
    fn crossing(&self, (i, j): (u16, u16)) -> (&str, &str) {
        (&self.horizontal[i as usize], &self.vertical[j as usize])
    }

    /// Rebuilds the potential names for `pair`; lines of that pair render
    /// from them until the next call.
    fn set_pair(&mut self, pair: (u16, u16)) {
        let (h, v) = (
            &self.horizontal[pair.0 as usize],
            &self.vertical[pair.1 as usize],
        );
        for (table, prefix, count) in [
            (&mut self.ua, b"Ua[", self.vertical.len() - 1),
            (&mut self.ub, b"Ub[", self.horizontal.len() - 1),
        ] {
            table.clear();
            for idx in 0..count {
                table.push_with(|b| push_potential_name(b, prefix, h, v, idx));
            }
        }
    }

    fn push_potential(&self, buf: &mut Vec<u8>, p: PotentialRef, pair: (u16, u16)) {
        let (table, prefix, idx) = match p {
            PotentialRef::Applied => return buf.push(b'U'),
            PotentialRef::Ground => return buf.push(b'0'),
            PotentialRef::Ua(kp) => (&self.ua, b"Ua[", kp as usize),
            PotentialRef::Ub(mp) => (&self.ub, b"Ub[", mp as usize),
        };
        match table.get(idx) {
            Some(name) => buf.extend_from_slice(name),
            // Only hand-built equations index past the wires of the grid.
            None => {
                let (h, v) = self.crossing(pair);
                push_potential_name(buf, prefix, h, v, idx)
            }
        }
    }

    /// Appends one equation, without the newline; `set_pair(eq.pair)`
    /// must have been the last `set_pair` call.
    fn render_line(&self, buf: &mut Vec<u8>, eq: &Equation) {
        match eq.category {
            ConstraintCategory::Source | ConstraintCategory::Destination => {
                let (h, v) = self.crossing(eq.pair);
                buf.extend_from_slice(b"U/Z[");
                push_crossing(buf, h, v);
                buf.extend_from_slice(b"] = ");
            }
            ConstraintCategory::IntermediateUa | ConstraintCategory::IntermediateUb => {
                buf.extend_from_slice(b"0 = ")
            }
        }
        for (idx, t) in eq.terms.iter().enumerate() {
            buf.extend_from_slice(match (idx, t.sign < 0) {
                (0, false) => b"",
                (0, true) => b"- ",
                (_, false) => b" + ",
                (_, true) => b" - ",
            });
            if t.to == PotentialRef::Ground {
                self.push_potential(buf, t.from, eq.pair);
            } else {
                buf.push(b'(');
                self.push_potential(buf, t.from, eq.pair);
                buf.extend_from_slice(b" - ");
                self.push_potential(buf, t.to, eq.pair);
                buf.push(b')');
            }
            let (r, c) = (t.resistor.0 as usize, t.resistor.1 as usize);
            let cols = self.vertical.len();
            assert!(c < cols, "column out of range");
            let name = self.resistors.get(r * cols + c).expect("row out of range");
            buf.extend_from_slice(name);
        }
    }

    /// Appends one pair block to `buf`: the header comment (voltage and
    /// `U/Z` taken from the block's first equation) and one line per
    /// equation. All equations must belong to the first one's pair.
    fn render_pair(&mut self, buf: &mut Vec<u8>, eqs: &[Equation]) {
        let Some(first) = eqs.first() else { return };
        self.set_pair(first.pair);
        let (h, v) = self.crossing(first.pair);
        writeln!(
            buf,
            "# pair ({h}, {v}): U = {} V, U/Z = {:.9e} mA",
            first.voltage,
            first.rhs.max(0.0)
        )
        .expect("writing into a Vec cannot fail");
        for eq in eqs {
            self.render_line(buf, eq);
            buf.push(b'\n');
        }
    }
}

/// Appends `h,v`: a crossing inside `R[…]`, `U/Z[…]` or a potential name.
fn push_crossing(buf: &mut Vec<u8>, h: &str, v: &str) {
    buf.extend_from_slice(h.as_bytes());
    buf.push(b',');
    buf.extend_from_slice(v.as_bytes());
}

/// Appends `Ua[h,v,k]` (or `Ub[…]`) for compressed index `idx`, 1-based
/// in the text.
fn push_potential_name(buf: &mut Vec<u8>, prefix: &[u8], h: &str, v: &str, idx: usize) {
    buf.extend_from_slice(prefix);
    push_crossing(buf, h, v);
    buf.push(b',');
    push_uint(buf, idx + 1);
    buf.push(b']');
}

/// Appends the decimal digits of `v` without allocating.
fn push_uint(buf: &mut Vec<u8>, mut v: usize) {
    let mut digits = [0u8; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    buf.extend_from_slice(&digits[at..]);
}

/// Renders one equation in the paper's notation. Builds the grid's name
/// table on every call; bulk output goes through [`write_system`].
pub fn render_equation(eq: &Equation, grid: MeaGrid) -> String {
    let mut names = Names::new(grid);
    names.set_pair(eq.pair);
    let mut buf = Vec::new();
    names.render_line(&mut buf, eq);
    String::from_utf8(buf).expect("wire names and literals are ASCII")
}

/// Writes every equation of a formed system to `w`, one per line, grouped
/// by pair with a header comment per pair — the Figure-9 workload. Returns
/// the number of bytes written.
///
/// Each pair block is rendered into one reused buffer and handed to `w` in
/// a single `write_all`, so small grids still profit from a buffered `w`.
pub fn write_system<W: Write>(
    equations: &[Equation],
    grid: MeaGrid,
    mut w: W,
) -> io::Result<usize> {
    let mut names = Names::new(grid);
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for block in equations.chunk_by(|a, b| a.pair == b.pair) {
        buf.clear();
        names.render_pair(&mut buf, block);
        w.write_all(&buf)?;
        bytes += buf.len();
    }
    w.flush()?;
    Ok(bytes)
}

/// Forms and writes the whole array's system pair by pair, in
/// [`MeaGrid::pair_iter`] order: the bytes equal
/// `write_system(&form_all_equations(z, voltage), ..)`, but only one
/// pair's equations are held at a time. Returns the bytes written and the
/// census of the equations formed on the way.
pub fn stream_system<W: Write>(
    z: &ZMatrix,
    voltage: f64,
    mut w: W,
) -> io::Result<(usize, FormationCensus)> {
    let grid = z.grid();
    let mut names = Names::new(grid);
    let mut census = FormationCensus::default();
    let mut buf = Vec::new();
    let mut bytes = 0usize;
    for (i, j) in grid.pair_iter() {
        let eqs = form_pair_equations(grid, i, j, voltage, z.get(i, j));
        census.add(&eqs);
        buf.clear();
        names.render_pair(&mut buf, &eqs);
        w.write_all(&buf)?;
        bytes += buf.len();
    }
    w.flush()?;
    Ok((bytes, census))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::formation::form_all_equations;
    use mea_model::CrossingMatrix;

    #[test]
    fn source_equation_renders_like_the_paper() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 0, 0, 5.0, 1000.0);
        let s = render_equation(&eqs[0], grid);
        assert_eq!(
            s,
            "U/Z[A,I] = U/R[A,I] + (U - Ua[A,I,1])/R[A,II] + (U - Ua[A,I,2])/R[A,III]"
        );
    }

    #[test]
    fn destination_equation_renders() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 0, 0, 5.0, 1000.0);
        let s = render_equation(&eqs[1], grid);
        assert_eq!(
            s,
            "U/Z[A,I] = U/R[A,I] + Ub[A,I,1]/R[B,I] + Ub[A,I,2]/R[C,I]"
        );
    }

    #[test]
    fn intermediate_equations_have_zero_lhs() {
        let grid = MeaGrid::square(3);
        let eqs = form_pair_equations(grid, 1, 1, 5.0, 1200.0);
        for eq in &eqs[2..] {
            let s = render_equation(eq, grid);
            assert!(
                s.starts_with("0 = "),
                "intermediate equations balance to zero: {s}"
            );
            assert!(s.contains("- "), "must contain outflow terms: {s}");
        }
    }

    #[test]
    fn potentials_beyond_the_grid_still_render() {
        let grid = MeaGrid::square(2);
        let mut eq = form_pair_equations(grid, 0, 0, 5.0, 1000.0).remove(0);
        eq.terms[1].to = PotentialRef::Ua(7);
        assert_eq!(
            render_equation(&eq, grid),
            "U/Z[A,I] = U/R[A,I] + (U - Ua[A,I,8])/R[A,II]"
        );
    }

    #[test]
    fn writer_emits_header_per_pair_and_counts_bytes() {
        let grid = MeaGrid::square(2);
        let z = CrossingMatrix::filled(grid, 800.0);
        let eqs = form_all_equations(&z, 5.0);
        let mut buf = Vec::new();
        let bytes = write_system(&eqs, grid, &mut buf).unwrap();
        assert_eq!(bytes, buf.len());
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.matches("# pair").count(), 4, "one header per pair");
        // 2n = 4 equations per pair, 4 pairs.
        assert_eq!(text.lines().filter(|l| !l.starts_with('#')).count(), 16);
    }

    #[test]
    fn writer_output_mentions_every_resistor() {
        let grid = MeaGrid::square(2);
        let z = CrossingMatrix::filled(grid, 800.0);
        let eqs = form_all_equations(&z, 5.0);
        let mut buf = Vec::new();
        write_system(&eqs, grid, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        for name in ["R[A,I]", "R[A,II]", "R[B,I]", "R[B,II]"] {
            assert!(text.contains(name), "missing {name}");
        }
    }
}
