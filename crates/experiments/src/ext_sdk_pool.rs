//! Extension experiment X10: SDK stream pooling — how much faster does
//! pattern-2 re-identification fire when an ad-network adversary merges
//! the fix streams of k apps that embed its SDK?
//!
//! Membership comes from the market corpus: the `sdk_share_percent`
//! schedule decides which background-capable apps embed the shared
//! tracking SDK. Each of a user's installed apps polls at its
//! corpus-scheduled background interval with a per-app phase offset, so
//! pooling k member streams densifies the sampling toward
//! `interval / k` and recovers the short stays a sparse poller misses
//! entirely. The pooled stream is
//! replayed through the incremental His_bin detector against the user's
//! pattern-2 (movement) profile; the headline numbers are how often the
//! pooled channel fires and how many fewer fixes / hours it needs
//! compared with the k=1 single-app channel.

use crate::ExperimentConfig;
use backwatch_core::hisbin::Matcher;
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::SpatioTemporalExtractor;
use backwatch_core::pooling::{self, AppStream};
use backwatch_geo::{Grid, Seconds};
use backwatch_market::corpus::{self, CorpusConfig};
use backwatch_trace::synth::generate_user;
use backwatch_trace::{SoaProjectedTrace, Timestamp};
use std::collections::HashMap;
use std::fmt::Write as _;

/// Pool sizes swept (apps installed per user, roster prefix).
pub const KS: [usize; 4] = [1, 2, 4, 8];
/// SDK share percentages swept.
pub const SHARES: [u8; 4] = [0, 10, 25, 50];

/// One (share, k) cell of the sweep, aggregated over the population.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PoolCell {
    /// SDK share percentage of the corpus.
    pub share: u8,
    /// Apps installed (roster prefix length).
    pub k: usize,
    /// Users whose roster prefix contained ≥ 1 SDK member (the pooled
    /// channel exists for them).
    pub users_with_channel: usize,
    /// Member streams pooled, summed over those users.
    pub pooled_streams: usize,
    /// Users whose pooled stream made His_bin fire.
    pub detected: usize,
    /// Mean fixes the adversary had seen when the match fired.
    pub mean_fixes_to_fire: f64,
    /// Mean hours of trace time until the match fired.
    pub mean_hours_to_fire: f64,
}

/// The X10 bundle.
#[derive(Debug, Clone, PartialEq)]
pub struct SdkPoolResult {
    /// Share-major, then k, matching [`SHARES`] × [`KS`].
    pub cells: Vec<PoolCell>,
    /// Background-capable apps in the corpus (the roster source).
    pub bg_apps: usize,
    /// Total corpus size.
    pub corpus_apps: usize,
    /// Population size.
    pub users: usize,
    /// Users (at the max share) detected under both k=1 and k=max.
    pub paired_users: usize,
    /// Over those paired users: mean k=1 hours ÷ mean k=max hours
    /// (≥ 1 means pooling fired earlier). `None` without paired users.
    pub paired_time_speedup: Option<f64>,
    /// Over those paired users: mean k=1 fixes ÷ mean k=max fixes.
    pub paired_fix_ratio: Option<f64>,
    /// Over those paired users: mean k=1 fixes ÷ mean k=max fixes *per
    /// member app* — how much less exposure each individual app needs
    /// once the SDK pools k of them.
    pub paired_per_app_fix_ratio: Option<f64>,
    /// Paired users whose k=1 app polls at ≥ [`SPARSE_POLL_S`] — the
    /// data-starved regime where pooling has room to help.
    pub sparse_paired_users: usize,
    /// Time speedup over the sparse-paired subset.
    pub sparse_time_speedup: Option<f64>,
}

/// A single app is "sparse" at or above this polling interval: it misses
/// short stays outright, so pooling recovers signal, not just volume.
pub const SPARSE_POLL_S: i64 = 300;

#[derive(Clone, Copy)]
struct BgApp {
    slot: usize,
    interval_s: i64,
}

#[derive(Clone, Copy, Default)]
struct CellOutcome {
    members: usize,
    fired: Option<Firing>,
}

#[derive(Clone, Copy)]
struct Firing {
    fixes: usize,
    hours: f64,
}

/// Runs the sweep. `market` supplies everything but the SDK share, which
/// is overridden per [`SHARES`] column.
#[must_use]
pub fn run(cfg: &ExperimentConfig, market: &CorpusConfig) -> SdkPoolResult {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let matcher = cfg.matcher;

    // One corpus scan per share: the background-capable roster is
    // share-independent (the SDK fragment never changes behavior), the
    // membership column is not.
    let mut bg: Vec<BgApp> = Vec::new();
    let mut sdk_digest = 0u64;
    let mut member: Vec<Vec<bool>> = Vec::new();
    for (si, &share) in SHARES.iter().enumerate() {
        let mcfg = market.with_sdk_share(share);
        let mut col = Vec::new();
        for (slot, app) in corpus::stream(&mcfg).enumerate() {
            let Some(iv) = app.truth.bg_interval_s else { continue };
            if si == 0 {
                bg.push(BgApp { slot, interval_s: iv });
            }
            if let Some(sdk) = &app.sdk {
                sdk_digest = sdk.digest();
            }
            col.push(app.sdk.is_some());
        }
        assert_eq!(col.len(), bg.len(), "background roster must be share-independent");
        member.push(col);
    }

    let n_users = cfg.synth.n_users;
    let max_k = KS[KS.len() - 1].min(bg.len());
    let per_user: Vec<Vec<CellOutcome>> = crate::pool::map_users(n_users, cfg.threads, |u| {
        user_cells(u, cfg, &extractor, &grid, &matcher, &bg, &member, sdk_digest, max_k)
    });

    let mut cells = Vec::with_capacity(SHARES.len() * KS.len());
    for (si, &share) in SHARES.iter().enumerate() {
        for (ki, &k) in KS.iter().enumerate() {
            let idx = si * KS.len() + ki;
            let mut cell = PoolCell {
                share,
                k,
                users_with_channel: 0,
                pooled_streams: 0,
                detected: 0,
                mean_fixes_to_fire: 0.0,
                mean_hours_to_fire: 0.0,
            };
            let mut fix_sum = 0usize;
            let mut hour_sum = 0.0;
            for outcomes in &per_user {
                let o = outcomes[idx];
                if o.members > 0 {
                    cell.users_with_channel += 1;
                    cell.pooled_streams += o.members;
                }
                if let Some(f) = o.fired {
                    cell.detected += 1;
                    fix_sum += f.fixes;
                    hour_sum += f.hours;
                }
            }
            if cell.detected > 0 {
                cell.mean_fixes_to_fire = fix_sum as f64 / cell.detected as f64;
                cell.mean_hours_to_fire = hour_sum / cell.detected as f64;
            }
            cells.push(cell);
        }
    }

    // Paired comparison at the max share: same users, k=1 vs k=max.
    let si = SHARES.len() - 1;
    let lo_idx = si * KS.len();
    let hi_idx = si * KS.len() + KS.len() - 1;
    let mut paired = 0usize;
    let (mut lo_fix, mut hi_fix) = (0usize, 0usize);
    let (mut lo_hours, mut hi_hours) = (0.0f64, 0.0f64);
    let mut hi_members = 0usize;
    let mut sparse = 0usize;
    let (mut sparse_lo_hours, mut sparse_hi_hours) = (0.0f64, 0.0f64);
    for (u, outcomes) in per_user.iter().enumerate() {
        if let (Some(lo), Some(hi)) = (outcomes[lo_idx].fired, outcomes[hi_idx].fired) {
            paired += 1;
            lo_fix += lo.fixes;
            hi_fix += hi.fixes;
            lo_hours += lo.hours;
            hi_hours += hi.hours;
            hi_members += outcomes[hi_idx].members;
            // the user's k=1 app is bg[u % bg.len()] by roster construction
            if !bg.is_empty() && bg[u % bg.len()].interval_s >= SPARSE_POLL_S {
                sparse += 1;
                sparse_lo_hours += lo.hours;
                sparse_hi_hours += hi.hours;
            }
        }
    }
    let paired_time_speedup = (paired > 0 && hi_hours > 0.0).then(|| lo_hours / hi_hours);
    let paired_fix_ratio = (paired > 0 && hi_fix > 0).then(|| lo_fix as f64 / hi_fix as f64);
    let paired_per_app_fix_ratio = (paired > 0 && hi_fix > 0 && hi_members > 0)
        .then(|| lo_fix as f64 / (hi_fix as f64 / (hi_members as f64 / paired as f64)));
    let sparse_time_speedup = (sparse > 0 && sparse_hi_hours > 0.0).then(|| sparse_lo_hours / sparse_hi_hours);

    SdkPoolResult {
        cells,
        bg_apps: bg.len(),
        corpus_apps: market.total(),
        users: n_users as usize,
        paired_users: paired,
        paired_time_speedup,
        paired_fix_ratio,
        paired_per_app_fix_ratio,
        sparse_paired_users: sparse,
        sparse_time_speedup,
    }
}

#[allow(clippy::too_many_arguments)]
fn user_cells(
    u: u32,
    cfg: &ExperimentConfig,
    extractor: &SpatioTemporalExtractor,
    grid: &Grid,
    matcher: &Matcher,
    bg: &[BgApp],
    member: &[Vec<bool>],
    sdk_digest: u64,
    max_k: usize,
) -> Vec<CellOutcome> {
    let user = generate_user(&cfg.synth, u);
    let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
    let t0 = times.first().copied().unwrap_or(0);
    let soa = SoaProjectedTrace::project(&user.trace);
    let full = extractor.extract_soa(&soa);
    let profile2 = Profile::from_stays(PatternKind::MovementPattern, &full, grid);

    // This user's installed roster: max_k distinct background-capable
    // corpus apps, rotated by user index so popular apps are shared
    // across users. Per-app phase offsets spread the polling instants.
    let roster: Vec<usize> = (0..max_k).map(|j| (u as usize + j) % bg.len()).collect();
    let streams_of: Vec<Vec<u32>> = roster
        .iter()
        .map(|&pos| {
            let app = bg[pos];
            let offset = (app.slot as i64).wrapping_mul(7919).rem_euclid(app.interval_s);
            pooling::phase_indices(&times, Seconds::new(app.interval_s), Seconds::new(offset))
        })
        .collect();

    let mut memo: HashMap<(usize, u64), CellOutcome> = HashMap::new();
    let mut out = Vec::with_capacity(SHARES.len() * KS.len());
    for (si, links) in member.iter().enumerate() {
        for &k in &KS {
            let k = k.min(max_k);
            let mask: u64 = roster
                .iter()
                .take(k)
                .enumerate()
                .filter(|&(_, &pos)| links[pos])
                .fold(0u64, |m, (j, _)| m | (1u64 << j));
            let outcome = *memo.entry((si, mask)).or_insert_with(|| {
                let streams: Vec<AppStream> = roster
                    .iter()
                    .take(k)
                    .enumerate()
                    .map(|(j, &pos)| {
                        let sdk = links[pos].then_some(sdk_digest);
                        AppStream::new(bg[pos].slot as u32, sdk, streams_of[j].clone())
                    })
                    .collect();
                let set = pooling::pool_streams(&streams);
                let Some(pool) = set.pools.first() else {
                    return CellOutcome::default();
                };
                let (stays, det) = pooling::detect_pooled(
                    extractor,
                    &soa,
                    &pool.indices,
                    grid,
                    PatternKind::MovementPattern,
                    matcher,
                    &profile2,
                );
                CellOutcome {
                    members: pool.app_ids.len(),
                    fired: det.map(|d| Firing {
                        fixes: d.points_needed,
                        hours: (stays[d.stays_needed - 1].leave - Timestamp::from_secs(t0)) as f64 / 3600.0,
                    }),
                }
            });
            out.push(outcome);
        }
    }
    out
}

/// Renders the sweep table and the paired headline.
#[must_use]
pub fn render(result: &SdkPoolResult) -> String {
    let mut s = String::new();
    let _ = writeln!(
        s,
        "EXTENSION: SDK stream pooling (X10) — pattern-2 time-to-fire vs pooled apps ({} users, {} corpus apps, {} background-capable)",
        result.users, result.corpus_apps, result.bg_apps
    );
    let _ = writeln!(
        s,
        "{:>7} {:>3} {:>14} {:>14} {:>9} {:>14} {:>14}",
        "share_%", "k", "users_pooled", "streams", "detected", "fixes_to_fire", "hours_to_fire"
    );
    for c in &result.cells {
        let _ = writeln!(
            s,
            "{:>7} {:>3} {:>14} {:>14} {:>9} {:>14.0} {:>14.1}",
            c.share, c.k, c.users_with_channel, c.pooled_streams, c.detected, c.mean_fixes_to_fire, c.mean_hours_to_fire
        );
    }
    let fmt = |v: Option<f64>| v.map_or_else(|| "n/a".to_owned(), |v| format!("{v:.2}x"));
    let _ = writeln!(
        s,
        "paired (share={}%, k=1 vs k={}): users={} time_speedup={} fix_ratio={} per_app_fix_ratio={}",
        SHARES[SHARES.len() - 1],
        KS[KS.len() - 1],
        result.paired_users,
        fmt(result.paired_time_speedup),
        fmt(result.paired_fix_ratio),
        fmt(result.paired_per_app_fix_ratio),
    );
    let _ = writeln!(
        s,
        "sparse k=1 pollers (>= {SPARSE_POLL_S} s): users={} time_speedup={}",
        result.sparse_paired_users,
        fmt(result.sparse_time_speedup),
    );
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> (ExperimentConfig, CorpusConfig) {
        (ExperimentConfig::small(), CorpusConfig::scaled(10))
    }

    #[test]
    fn zero_share_has_no_pooled_channel() {
        let (cfg, market) = small();
        let r = run(&cfg, &market);
        for c in r.cells.iter().filter(|c| c.share == 0) {
            assert_eq!(c.users_with_channel, 0, "share=0 must pool nothing (k={})", c.k);
            assert_eq!(c.detected, 0);
        }
    }

    #[test]
    fn channel_coverage_grows_with_share_and_k() {
        let (cfg, market) = small();
        let r = run(&cfg, &market);
        // membership draws are nested across shares and rosters are
        // nested across k, so coverage is monotone in both axes
        for si in 1..SHARES.len() {
            for ki in 0..KS.len() {
                let prev = r.cells[(si - 1) * KS.len() + ki];
                let cur = r.cells[si * KS.len() + ki];
                assert!(cur.users_with_channel >= prev.users_with_channel);
            }
        }
        for si in 0..SHARES.len() {
            for ki in 1..KS.len() {
                let prev = r.cells[si * KS.len() + ki - 1];
                let cur = r.cells[si * KS.len() + ki];
                assert!(cur.pooled_streams >= prev.pooled_streams);
                assert!(cur.detected >= prev.detected, "share={} k={}", cur.share, cur.k);
            }
        }
    }

    #[test]
    fn parallel_equals_sequential() {
        let (cfg, market) = small();
        let mut seq = cfg.clone();
        seq.threads = 1;
        assert_eq!(run(&cfg, &market), run(&seq, &market));
    }

    #[test]
    fn render_mentions_the_sweep() {
        let (cfg, market) = small();
        let text = render(&run(&cfg, &market));
        assert!(text.contains("SDK stream pooling"));
        assert!(text.contains("hours_to_fire"));
        assert!(text.contains("paired"));
    }
}
