//! Golden output digests of the default run (seed 0, full scale), kept in
//! `golden.txt` as `workload key digest` lines.

use crate::harness::{fnv1a, Verdict};

const GOLDEN: &str = include_str!("../golden.txt");

fn expected(workload: &str) -> Vec<(&'static str, u64)> {
    GOLDEN
        .lines()
        .filter_map(|line| {
            let mut parts = line.split_whitespace();
            let (w, key, hex) = (parts.next()?, parts.next()?, parts.next()?);
            (w == workload).then_some((key, u64::from_str_radix(hex, 16).ok()?))
        })
        .collect()
}

/// Compares `observed` `(key, digest)` pairs with the committed goldens of
/// `workload`, one checked unit per golden key (a missing or extra key
/// fails). On any mismatch the observed set is printed to stderr in the
/// file's format.
pub fn check(workload: &str, observed: &[(String, u64)], verdict: &mut Verdict) {
    let golden = expected(workload);
    let mut all_ok = golden.len() == observed.len();
    verdict.check(all_ok, || {
        format!("{workload}: {} golden keys, {} observed", golden.len(), observed.len())
    });
    for (key, want) in &golden {
        let got = observed.iter().find(|(k, _)| k == key).map(|&(_, d)| d);
        let ok = got == Some(*want);
        all_ok &= ok;
        verdict.check(ok, || {
            format!("{workload} golden {key}: expected {want:016x}, got {got:016x?}")
        });
    }
    if !all_ok {
        for (key, digest) in observed {
            eprintln!("{workload} {key} {digest:016x}");
        }
    }
}

/// One `(rowNNN, digest)` pair per non-empty line of rendered tables.
#[must_use]
pub fn row_digests(text: &str) -> Vec<(String, u64)> {
    text.lines()
        .filter(|l| !l.trim().is_empty())
        .enumerate()
        .map(|(i, l)| (format!("row{i:03}"), fnv1a(l.as_bytes())))
        .collect()
}
