//! Shared helpers for the experiment harness.
//!
//! Each Criterion bench target under `benches/` regenerates one experiment
//! of `EXPERIMENTS.md`. Criterion reports the timing distributions; the
//! helpers here additionally print the experiment's *series* (size →
//! measured value) as plain rows, so the scaling shape the paper's
//! complexity results predict can be read directly off `cargo bench`
//! output.

use std::fmt::Display;

/// Print a labeled series table to stderr (Criterion owns stdout).
pub fn print_series<A: Display, B: Display>(
    experiment: &str,
    header: (&str, &str),
    rows: &[(A, B)],
) {
    eprintln!("\n=== {experiment} ===");
    eprintln!("{:>16} {:>20}", header.0, header.1);
    for (a, b) in rows {
        eprintln!("{a:>16} {b:>20}");
    }
}

/// Print a three-column series.
pub fn print_series3<A: Display, B: Display, C: Display>(
    experiment: &str,
    header: (&str, &str, &str),
    rows: &[(A, B, C)],
) {
    eprintln!("\n=== {experiment} ===");
    eprintln!("{:>16} {:>20} {:>20}", header.0, header.1, header.2);
    for (a, b, c) in rows {
        eprintln!("{a:>16} {b:>20} {c:>20}");
    }
}

/// Milliseconds (fractional) of a timed closure, for the series printers.
pub fn time_ms(mut f: impl FnMut()) -> f64 {
    let t = std::time::Instant::now();
    f();
    t.elapsed().as_secs_f64() * 1e3
}
