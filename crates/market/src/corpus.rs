//! Calibrated synthetic app corpus.
//!
//! We cannot download the 2,800 APKs the paper measured, so we generate a
//! corpus whose *ground truth* matches every marginal the paper reports:
//! how many apps declare which location permissions, how many functionally
//! access location, how many keep accessing it in the background, which
//! provider combinations they register (Table I), and the distribution of
//! their background update intervals (Figure 1). At the default 28 × 100
//! scale the quotas equal the paper's integers exactly.
//!
//! The corpus is *schedule-based and index-addressable*: every app is a
//! pure function of `(config, index)`, so [`stream`] yields apps one at a
//! time without materializing the market, [`app_at`] random-accesses any
//! slot in O(1), and any prefix of a larger market is bit-identical to the
//! smaller market — the properties the million-app incremental sweeps in
//! [`crate::sweep`] are built on. Slots are rank-major (index `i` is rank
//! `i / 28` of category `i % 28`); which slots declare location
//! permissions follows fixed per-category quotas spread evenly over ranks
//! (binary Bresenham), and every downstream role split (functional,
//! background, auto-start, Table I cell, interval anchor, claim) chains on
//! the app's *declaring ordinal* through precomputed quota-exact
//! interleave tables, so the paper integers come out exactly at full
//! scale and every class of app appears at small scales.
//!
//! Two market-realism knobs ride on top: `sdk_share_percent` links the
//! shared ad-SDK fragment ([`crate::sdk`]) into a seeded share of apps,
//! and `(snapshot, churn_ppm)` model market crawls over time — each epoch
//! a small seeded share of apps ships an update that redraws its
//! behavioral RNG, which is what the incremental analyzer diffs against.
//!
//! Every generated app carries its [`GroundTruth`] so that the measurement
//! pipeline's output can be verified against what was planted.

use crate::category::{Category, ALL_CATEGORIES};
use crate::sdk::SdkLib;
use backwatch_android::app::{
    App, AppBuilder, Component, ComponentKind, Exfiltration, LocationBehavior, ACTION_BOOT_COMPLETED, ACTION_MAIN,
};
use backwatch_android::ir;
use backwatch_android::permission::{LocationClaim, Permission};
use backwatch_android::provider::ProviderKind;
use backwatch_stats::sampling::weighted_index;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A provider combination — one column of the paper's Table I.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
#[allow(missing_docs)] // variants spell out their provider sets
pub enum ProviderCombo {
    Gps,
    Network,
    Passive,
    GpsNetwork,
    GpsPassive,
    NetworkPassive,
    GpsNetworkPassive,
    FusedNetwork,
    Fused,
}

/// Table I's eight columns, in the paper's order.
pub const TABLE1_COLUMNS: [ProviderCombo; 8] = [
    ProviderCombo::Gps,
    ProviderCombo::Network,
    ProviderCombo::Passive,
    ProviderCombo::GpsNetwork,
    ProviderCombo::GpsPassive,
    ProviderCombo::NetworkPassive,
    ProviderCombo::GpsNetworkPassive,
    ProviderCombo::FusedNetwork,
];

impl ProviderCombo {
    /// The providers in this combination.
    #[must_use]
    pub fn providers(&self) -> &'static [ProviderKind] {
        use ProviderKind::{Fused, Gps, Network, Passive};
        match self {
            ProviderCombo::Gps => &[Gps],
            ProviderCombo::Network => &[Network],
            ProviderCombo::Passive => &[Passive],
            ProviderCombo::GpsNetwork => &[Gps, Network],
            ProviderCombo::GpsPassive => &[Gps, Passive],
            ProviderCombo::NetworkPassive => &[Network, Passive],
            ProviderCombo::GpsNetworkPassive => &[Gps, Network, Passive],
            ProviderCombo::FusedNetwork => &[Fused, Network],
            ProviderCombo::Fused => &[Fused],
        }
    }

    /// Derives the combination from an unordered provider set, if it is one
    /// of the combinations this module models.
    #[must_use]
    pub fn from_providers(set: &[ProviderKind]) -> Option<Self> {
        let mut sorted: Vec<ProviderKind> = set.to_vec();
        sorted.sort();
        sorted.dedup();
        [
            ProviderCombo::Gps,
            ProviderCombo::Network,
            ProviderCombo::Passive,
            ProviderCombo::GpsNetwork,
            ProviderCombo::GpsPassive,
            ProviderCombo::NetworkPassive,
            ProviderCombo::GpsNetworkPassive,
            ProviderCombo::FusedNetwork,
            ProviderCombo::Fused,
        ]
        .into_iter()
        .find(|c| {
            let mut p: Vec<ProviderKind> = c.providers().to_vec();
            p.sort();
            p == sorted
        })
    }

    /// Whether the combination can deliver fine-granularity fixes to an app
    /// whose permissions allow fine access (GPS or fused present).
    #[must_use]
    pub fn delivers_fine(&self) -> bool {
        self.providers()
            .iter()
            .any(|p| matches!(p, ProviderKind::Gps | ProviderKind::Fused))
    }
}

impl fmt::Display for ProviderCombo {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names: Vec<&str> = self.providers().iter().map(|p| p.name()).collect();
        f.write_str(&names.join("+"))
    }
}

/// The paper's §III quotas at a given corpus size.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Quotas {
    /// Total apps (28 categories × apps per category).
    pub total: usize,
    /// Apps declaring at least one location permission (paper: 1,137).
    pub declaring: usize,
    /// Declaring apps with fine permission only (paper: 193 ≈ 17 %).
    pub fine_only: usize,
    /// Declaring apps with coarse permission only (paper: 182 ≈ 16 %).
    pub coarse_only: usize,
    /// Declaring apps with both permissions (paper: 762 ≈ 67 %).
    pub both: usize,
    /// Apps that functionally access location (paper: 528).
    pub functional: usize,
    /// Functional apps that auto-request at launch (paper: 393).
    pub auto_start: usize,
    /// Apps that access location in background (paper: 102).
    pub background: usize,
    /// Background apps that auto-start (paper: 85).
    pub bg_auto_start: usize,
    /// Table I cells: (declared claim, provider combo, count); cell counts
    /// sum to `background`.
    pub table1: Vec<(LocationClaim, ProviderCombo, usize)>,
    /// Figure 1 anchors: (background interval seconds, count); counts sum
    /// to `background`.
    pub intervals: Vec<(i64, usize)>,
}

/// Paper Table I cells at full scale (claim, combo, count).
const TABLE1_PAPER: [(LocationClaim, ProviderCombo, usize); 15] = [
    (LocationClaim::FineOnly, ProviderCombo::Gps, 7),
    (LocationClaim::FineOnly, ProviderCombo::Network, 3),
    (LocationClaim::FineOnly, ProviderCombo::Passive, 4),
    (LocationClaim::FineOnly, ProviderCombo::GpsNetwork, 2),
    (LocationClaim::FineOnly, ProviderCombo::NetworkPassive, 1),
    (LocationClaim::FineOnly, ProviderCombo::GpsNetworkPassive, 1),
    (LocationClaim::CoarseOnly, ProviderCombo::Passive, 6),
    (LocationClaim::FineAndCoarse, ProviderCombo::Gps, 32),
    (LocationClaim::FineAndCoarse, ProviderCombo::Network, 9),
    (LocationClaim::FineAndCoarse, ProviderCombo::Passive, 7),
    (LocationClaim::FineAndCoarse, ProviderCombo::GpsNetwork, 14),
    (LocationClaim::FineAndCoarse, ProviderCombo::GpsPassive, 5),
    (LocationClaim::FineAndCoarse, ProviderCombo::NetworkPassive, 4),
    (LocationClaim::FineAndCoarse, ProviderCombo::GpsNetworkPassive, 6),
    (LocationClaim::FineAndCoarse, ProviderCombo::FusedNetwork, 1),
];

/// Figure 1 anchors at full scale: (interval, apps). The CDF these induce
/// hits the paper's reported fractions: 57.8 % ≤ 10 s, 68.6 % ≤ 60 s,
/// ≈ 83 % ≤ 600 s, and a single app at the 7,200 s maximum.
const INTERVALS_PAPER: [(i64, usize); 12] = [
    (1, 20),
    (2, 15),
    (5, 12),
    (10, 12),
    (30, 6),
    (60, 5),
    (120, 6),
    (300, 5),
    (600, 4),
    (1800, 9),
    (3600, 7),
    (7200, 1),
];

/// Number of store categories (width of one rank across the market).
const NCATS: usize = ALL_CATEGORIES.len();
/// Ranks per paper block: per-category declaring quotas are calibrated
/// per 100 ranks and repeat beyond.
const BLOCK: usize = 100;
/// Declaring apps per full paper market (the 1,137).
const P_DECLARING: usize = 1137;
/// Functional apps per `P_DECLARING` declaring apps (the 528).
const P_FUNCTIONAL: usize = 528;
/// Background apps per `P_FUNCTIONAL` functional apps (the 102).
const P_BACKGROUND: usize = 102;
/// Auto-start apps per `P_BACKGROUND` background apps (the 85).
const P_BG_AUTO: usize = 85;
/// Foreground-only functional apps per full market (528 − 102).
const P_FG_FUNCTIONAL: usize = 426;
/// Auto-start apps among those (393 − 85).
const P_FG_AUTO: usize = 308;
/// Non-background declaring apps per full market (1,137 − 102).
const P_NONBG: usize = 1035;
/// Claim counts over the non-background declaring apps, in
/// `[FineOnly, CoarseOnly, FineAndCoarse]` order: the paper's 193/182/762
/// minus the 18/6/78 consumed by Table I's background rows.
const NONBG_CLAIMS: [usize; 3] = [175, 176, 684];

/// `floor(n · num / den)` — how many of the first `n` positions a quota of
/// `num` per `den` selects (binary Bresenham).
fn bres(n: usize, num: usize, den: usize) -> usize {
    n * num / den
}

/// Whether position `n` itself is selected by the `num`-per-`den` quota.
fn bres_hit(n: usize, num: usize, den: usize) -> bool {
    bres(n + 1, num, den) > bres(n, num, den)
}

/// Largest-remainder apportionment of `target` among weights `counts`.
fn apportion(counts: &[usize], target: usize) -> Vec<usize> {
    let total: usize = counts.iter().sum();
    if total == 0 {
        return vec![0; counts.len()];
    }
    let mut floors: Vec<usize> = counts.iter().map(|&c| c * target / total).collect();
    let assigned: usize = floors.iter().sum();
    let mut order: Vec<usize> = (0..counts.len()).collect();
    order.sort_by_key(|&i| (std::cmp::Reverse(counts[i] * target % total), i));
    let mut left = target - assigned;
    for &i in &order {
        if left == 0 {
            break;
        }
        // never promote a zero-weight cell
        if counts[i] > 0 && !(counts[i] * target).is_multiple_of(total) {
            floors[i] += 1;
            left -= 1;
        }
    }
    debug_assert_eq!(left, 0, "fractional parts always cover the seats left");
    floors
}

/// A quota-exact interleave of `counts.len()` bucket labels over one
/// period of `sum(counts)` positions: position `n` gets the unsaturated
/// bucket with the largest proportional deficit, so every prefix tracks
/// the target mix and a full period contains each bucket exactly
/// `counts[k]` times. (A plain per-bucket Bresenham cannot do multi-way
/// splits exactly: floor differences are non-monotone across buckets.)
fn interleave(counts: &[usize]) -> Vec<u8> {
    let period: usize = counts.iter().sum();
    assert!(counts.len() <= u8::MAX as usize, "bucket labels are stored as u8");
    let mut assigned = vec![0usize; counts.len()];
    let mut out = Vec::with_capacity(period);
    for n in 0..period {
        let mut k_best = counts.len();
        let mut d_best = i64::MIN;
        for (k, (&c, &a)) in counts.iter().zip(&assigned).enumerate() {
            if a >= c {
                continue;
            }
            let deficit = ((n + 1) * c) as i64 - (period * a) as i64;
            if deficit > d_best {
                d_best = deficit;
                k_best = k;
            }
        }
        // sum(counts) == period keeps one bucket unsaturated at every step
        assert!(k_best < counts.len(), "interleave ran out of buckets");
        assigned[k_best] += 1;
        out.push(k_best as u8);
    }
    out
}

/// The precomputed role tables every split chains through.
struct PaperSchedule {
    /// Declaring apps per `BLOCK` ranks, per category.
    declaring_per_block: Vec<usize>,
    /// Background ordinal → Table I cell index, one full-scale period.
    cells: Vec<u8>,
    /// Background ordinal → `INTERVALS_PAPER` index, one period.
    intervals: Vec<u8>,
    /// Non-background declaring ordinal → `NONBG_CLAIMS` index, one period.
    claims: Vec<u8>,
}

fn schedule() -> &'static PaperSchedule {
    static SCHEDULE: OnceLock<PaperSchedule> = OnceLock::new();
    SCHEDULE.get_or_init(|| {
        let weights: Vec<usize> = ALL_CATEGORIES
            .iter()
            .map(|c| (c.location_affinity() * 10.0).round() as usize)
            .collect();
        let cell_counts: Vec<usize> = TABLE1_PAPER.iter().map(|&(_, _, c)| c).collect();
        let interval_counts: Vec<usize> = INTERVALS_PAPER.iter().map(|&(_, c)| c).collect();
        PaperSchedule {
            declaring_per_block: apportion(&weights, P_DECLARING),
            cells: interleave(&cell_counts),
            intervals: interleave(&interval_counts),
            claims: interleave(&NONBG_CLAIMS),
        }
    })
}

/// Whether slot `index` declares a location permission.
fn slot_declares(s: &PaperSchedule, index: usize) -> bool {
    bres_hit(index / NCATS, s.declaring_per_block[index % NCATS], BLOCK)
}

/// Number of declaring slots before `index` — O(categories) random access.
fn declaring_ordinal(s: &PaperSchedule, index: usize) -> usize {
    let cat = index % NCATS;
    let rank = index / NCATS;
    s.declaring_per_block
        .iter()
        .enumerate()
        .map(|(c, &q)| bres(rank + usize::from(c < cat), q, BLOCK))
        .sum()
}

/// The scheduled role of one declaring slot.
#[derive(Debug, Clone, Copy)]
struct DeclaringRole {
    claim: LocationClaim,
    functional: bool,
    background: bool,
    auto_start: bool,
    /// Index into `TABLE1_PAPER` (background slots only).
    cell: usize,
    /// Index into `INTERVALS_PAPER` (background slots only).
    interval: usize,
}

/// Claim for a declaring app that is not in a Table I cell.
fn nonbg_claim(s: &PaperSchedule, nb: usize) -> LocationClaim {
    match s.claims[nb % P_NONBG] {
        0 => LocationClaim::FineOnly,
        1 => LocationClaim::CoarseOnly,
        _ => LocationClaim::FineAndCoarse,
    }
}

/// Resolves the role of the `d`-th declaring app. Every split is a
/// Bresenham or interleave over the *previous* split's ordinal, so the
/// funnel is exact at full periods and proportionally correct at any
/// prefix.
fn role_from_ordinal(s: &PaperSchedule, d: usize) -> DeclaringRole {
    let phi = bres(d, P_FUNCTIONAL, P_DECLARING);
    let functional = bres_hit(d, P_FUNCTIONAL, P_DECLARING);
    let beta = bres(phi, P_BACKGROUND, P_FUNCTIONAL);
    if functional && bres_hit(phi, P_BACKGROUND, P_FUNCTIONAL) {
        let cell = s.cells[beta % P_BACKGROUND] as usize;
        return DeclaringRole {
            claim: TABLE1_PAPER[cell].0,
            functional: true,
            background: true,
            auto_start: bres_hit(beta, P_BG_AUTO, P_BACKGROUND),
            cell,
            interval: s.intervals[beta % P_BACKGROUND] as usize,
        };
    }
    let claim = nonbg_claim(s, d - beta);
    if functional {
        let gamma = phi - beta;
        DeclaringRole {
            claim,
            functional: true,
            background: false,
            auto_start: bres_hit(gamma, P_FG_AUTO, P_FG_FUNCTIONAL),
            cell: 0,
            interval: 0,
        }
    } else {
        DeclaringRole {
            claim,
            functional: false,
            background: false,
            auto_start: false,
            cell: 0,
            interval: 0,
        }
    }
}

impl Quotas {
    /// Quotas for a corpus of `total` apps, counted off the generation
    /// schedule itself (so generation matches them *exactly* at every
    /// scale). At `total == 2800` the quotas are the paper's integers.
    ///
    /// # Panics
    ///
    /// Panics if `total == 0`.
    #[must_use]
    pub fn scaled(total: usize) -> Self {
        assert!(total > 0, "corpus must have at least one app");
        let s = schedule();
        let mut q = Self {
            total,
            declaring: 0,
            fine_only: 0,
            coarse_only: 0,
            both: 0,
            functional: 0,
            auto_start: 0,
            background: 0,
            bg_auto_start: 0,
            table1: TABLE1_PAPER.iter().map(|&(claim, combo, _)| (claim, combo, 0)).collect(),
            intervals: INTERVALS_PAPER.iter().map(|&(secs, _)| (secs, 0)).collect(),
        };
        let mut d = 0usize;
        for i in 0..total {
            if !slot_declares(s, i) {
                continue;
            }
            let role = role_from_ordinal(s, d);
            d += 1;
            q.declaring += 1;
            match role.claim {
                LocationClaim::FineOnly => q.fine_only += 1,
                LocationClaim::CoarseOnly => q.coarse_only += 1,
                LocationClaim::FineAndCoarse => q.both += 1,
                LocationClaim::None => {}
            }
            if role.functional {
                q.functional += 1;
            }
            if role.auto_start {
                q.auto_start += 1;
            }
            if role.background {
                q.background += 1;
                if role.auto_start {
                    q.bg_auto_start += 1;
                }
                q.table1[role.cell].2 += 1;
                q.intervals[role.interval].1 += 1;
            }
        }
        q
    }

    /// Background apps per claim row of Table I.
    #[must_use]
    pub fn table1_row_total(&self, claim: LocationClaim) -> usize {
        self.table1.iter().filter(|(c, _, _)| *c == claim).map(|(_, _, n)| n).sum()
    }
}

/// The planted truth for one generated app — what a perfect measurement
/// would recover.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GroundTruth {
    /// Declared permission posture.
    pub claim: LocationClaim,
    /// Whether the app ever requests location.
    pub functional: bool,
    /// Whether it requests right at launch.
    pub auto_start: bool,
    /// The provider combination it registers (if functional).
    pub combo: Option<ProviderCombo>,
    /// Its background polling interval (if it polls in background).
    pub bg_interval_s: Option<i64>,
    /// What the app does with the fixes it reads: nothing, a sanitized
    /// upload, or a raw upload — what a perfect taint analysis recovers.
    pub exfil: Exfiltration,
}

/// A corpus entry: the app, its store category, the planted truth, and
/// (when the sharing knob selected it) the shared SDK fragment it links.
#[derive(Debug, Clone)]
pub struct MarketApp {
    /// The installable app.
    pub app: App,
    /// Store category.
    pub category: Category,
    /// Ground truth for calibration checks.
    pub truth: GroundTruth,
    /// The shared SDK fragment linked into this app, if any. The static
    /// analyzer wires its entry into the launcher activity; the fragment
    /// is sink-free on reachable paths so classifications are unaffected.
    pub sdk: Option<Arc<SdkLib>>,
}

/// Corpus generator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CorpusConfig {
    /// Apps per category (paper: 100).
    pub apps_per_category: usize,
    /// RNG seed for all per-slot draws.
    pub seed: u64,
    /// Percent of apps (0–100) that embed the shared SDK fragment.
    pub sdk_share_percent: u8,
    /// Market crawl epoch this corpus represents; 0 is the initial crawl.
    pub snapshot: u32,
    /// Parts-per-million chance per epoch that an app ships an update
    /// (which redraws its behavioral RNG).
    pub churn_ppm: u32,
}

impl CorpusConfig {
    /// The paper's scale: 28 categories × 100 apps.
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            apps_per_category: 100,
            seed: 0x5EED_AB99,
            sdk_share_percent: 0,
            snapshot: 0,
            churn_ppm: 10_000,
        }
    }

    /// A scaled-down corpus with `apps_per_category` apps per category.
    ///
    /// # Panics
    ///
    /// Panics if `apps_per_category == 0`.
    #[must_use]
    pub fn scaled(apps_per_category: usize) -> Self {
        assert!(apps_per_category > 0);
        Self {
            apps_per_category,
            ..Self::paper_scale()
        }
    }

    /// Same corpus with `percent` of apps embedding the shared SDK.
    ///
    /// # Panics
    ///
    /// Panics if `percent > 100`.
    #[must_use]
    pub fn with_sdk_share(mut self, percent: u8) -> Self {
        assert!(percent <= 100, "sdk share is a percentage");
        self.sdk_share_percent = percent;
        self
    }

    /// The same market as crawled at a later `snapshot` epoch: apps hit by
    /// churn in epochs `1..=snapshot` have shipped updates.
    #[must_use]
    pub fn at_snapshot(mut self, snapshot: u32) -> Self {
        self.snapshot = snapshot;
        self
    }

    /// Same corpus with a different per-epoch update probability.
    ///
    /// # Panics
    ///
    /// Panics if `ppm > 1_000_000`.
    #[must_use]
    pub fn with_churn_ppm(mut self, ppm: u32) -> Self {
        assert!(ppm <= 1_000_000, "churn is parts-per-million");
        self.churn_ppm = ppm;
        self
    }

    /// Total apps this configuration generates.
    #[must_use]
    pub fn total(&self) -> usize {
        ALL_CATEGORIES.len() * self.apps_per_category
    }
}

impl Default for CorpusConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

// Domain-separation tags for the per-slot hashes.
const TAG_BEHAVIOR: u8 = 0xB1;
const TAG_SDK: u8 = 0x5D;
const TAG_CHURN: u8 = 0xC4;
const TAG_EXFIL: u8 = 0xEF;

/// Seeded per-slot hash: every per-app draw is keyed off
/// `(seed, index, extra, tag)` so slots are independent of each other and
/// of the corpus size.
fn slot_hash(seed: u64, index: usize, extra: u32, tag: u8) -> u64 {
    let mut buf = [0u8; 21];
    buf[..8].copy_from_slice(&seed.to_le_bytes());
    buf[8..16].copy_from_slice(&(index as u64).to_le_bytes());
    buf[16..20].copy_from_slice(&extra.to_le_bytes());
    if let Some(last) = buf.last_mut() {
        *last = tag;
    }
    ir::fnv1a(&buf)
}

/// How many update epochs in `1..=cfg.snapshot` hit slot `index` — the
/// app's "version". A bumped version redraws the slot's behavioral RNG.
#[must_use]
pub fn app_version(cfg: &CorpusConfig, index: usize) -> u32 {
    (1..=cfg.snapshot).filter(|&epoch| churn_hit(cfg, index, epoch)).count() as u32
}

fn churn_hit(cfg: &CorpusConfig, index: usize, epoch: u32) -> bool {
    slot_hash(cfg.seed, index, epoch, TAG_CHURN) % 1_000_000 < u64::from(cfg.churn_ppm)
}

/// Whether slot `index` shipped any update between the two snapshots.
/// O(|snapshot delta|) — the version gate incremental sweeps use to skip
/// digest computation for the overwhelming majority of apps.
#[must_use]
pub fn version_changed(prev: &CorpusConfig, next: &CorpusConfig, index: usize) -> bool {
    let (lo, hi) = if prev.snapshot <= next.snapshot {
        (prev.snapshot, next.snapshot)
    } else {
        (next.snapshot, prev.snapshot)
    };
    ((lo + 1)..=hi).any(|epoch| churn_hit(next, index, epoch))
}

fn slot_has_sdk(cfg: &CorpusConfig, index: usize) -> bool {
    slot_hash(cfg.seed, index, 0, TAG_SDK) % 100 < u64::from(cfg.sdk_share_percent)
}

/// What a *functional* slot does with its fixes: 40% keep them on
/// device, 40% upload sanitized (degree drawn uniformly from the five
/// recognized sanitizers), 20% upload raw. SDK-linked apps route the
/// upload through the fragment's geo forwarder, exercising the cached
/// transfer tables; the draw is snapshot-independent like the SDK draw,
/// so churn redraws behavior without moving the taint mix.
fn slot_exfil(cfg: &CorpusConfig, index: usize) -> Exfiltration {
    let h = slot_hash(cfg.seed, index, 0, TAG_EXFIL);
    let via_sdk = slot_has_sdk(cfg, index);
    match h % 100 {
        0..=39 => Exfiltration::None,
        40..=79 => Exfiltration::Sanitized {
            decimals: ((h / 100) % 5) as u8,
            via_sdk,
        },
        _ => Exfiltration::Raw { via_sdk },
    }
}

/// Package name of slot `index` — stable across scales and snapshots.
#[must_use]
pub fn package_at(index: usize) -> String {
    format!("com.{}.app{:03}", ALL_CATEGORIES[index % NCATS].slug(), index / NCATS)
}

/// Materializes slot `index` under `cfg` given its scheduled role.
fn materialize(cfg: &CorpusConfig, index: usize, role: Option<DeclaringRole>) -> MarketApp {
    let category = ALL_CATEGORIES[index % NCATS];
    let version = app_version(cfg, index);
    let mut rng = StdRng::seed_from_u64(slot_hash(cfg.seed, index, version, TAG_BEHAVIOR));
    let (claim, behavior, functional, auto_start, combo, bg_interval, service) = match role {
        Some(role) if role.background => {
            let combo = TABLE1_PAPER[role.cell].1;
            let interval = INTERVALS_PAPER[role.interval].0;
            let fg_interval = rng.gen_range(1..=30);
            let behavior = LocationBehavior::requester(combo.providers().iter().copied(), fg_interval)
                .auto_start(role.auto_start)
                .background_interval(interval);
            (role.claim, behavior, true, role.auto_start, Some(combo), Some(interval), true)
        }
        Some(role) if role.functional => {
            let combo = pick_fg_combo(role.claim, &mut rng);
            let interval = rng.gen_range(1..=60);
            let behavior = LocationBehavior::requester(combo.providers().iter().copied(), interval).auto_start(role.auto_start);
            (role.claim, behavior, true, role.auto_start, Some(combo), None, false)
        }
        // over-privileged inert app: declares but never requests
        Some(role) => (role.claim, LocationBehavior::inert(), false, false, None, None, false),
        None => (
            LocationClaim::None,
            LocationBehavior::inert(),
            false,
            false,
            None,
            None,
            false,
        ),
    };
    let exfil = if functional {
        slot_exfil(cfg, index)
    } else {
        Exfiltration::None
    };
    let behavior = behavior.exfiltrate(exfil);
    let mut builder = AppBuilder::new(package_at(index))
        .location_claim(claim)
        .permission(Permission::Internet)
        .component(Component::new(ComponentKind::Activity, ".MainActivity").with_action(ACTION_MAIN))
        .location_service(service)
        .behavior(behavior);
    if rng.gen::<f64>() < 0.5 {
        builder = builder.permission(Permission::AccessNetworkState);
    }
    if service {
        builder = builder.permission(Permission::WakeLock);
    }
    // background auto-start apps register at boot, so they declare
    // the receiver + permission pair real Android requires
    if service && auto_start {
        builder = builder
            .component(Component::new(ComponentKind::Receiver, ".BootReceiver").with_action(ACTION_BOOT_COMPLETED))
            .permission(Permission::ReceiveBootCompleted);
    }
    let sdk = slot_has_sdk(cfg, index).then(crate::sdk::shared);
    MarketApp {
        app: builder.build(),
        category,
        truth: GroundTruth {
            claim,
            functional,
            auto_start,
            combo,
            bg_interval_s: bg_interval,
            exfil,
        },
        sdk,
    }
}

/// A lazy walk over the corpus in index order; see [`stream`].
#[derive(Debug, Clone)]
pub struct CorpusStream {
    cfg: CorpusConfig,
    next: usize,
    declaring_seen: usize,
}

impl Iterator for CorpusStream {
    type Item = MarketApp;

    fn next(&mut self) -> Option<MarketApp> {
        if self.next >= self.cfg.total() {
            return None;
        }
        let index = self.next;
        self.next += 1;
        let s = schedule();
        let role = if slot_declares(s, index) {
            let role = role_from_ordinal(s, self.declaring_seen);
            self.declaring_seen += 1;
            Some(role)
        } else {
            None
        };
        Some(materialize(&self.cfg, index, role))
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.cfg.total() - self.next;
        (left, Some(left))
    }
}

impl ExactSizeIterator for CorpusStream {}

/// Streams the corpus one app at a time without materializing it.
/// Collecting the stream is bit-identical to [`generate`], and any prefix
/// is bit-identical to the same prefix of a larger `apps_per_category` —
/// the property that lets million-app sweeps run in constant memory.
#[must_use]
pub fn stream(cfg: &CorpusConfig) -> CorpusStream {
    CorpusStream {
        cfg: *cfg,
        next: 0,
        declaring_seen: 0,
    }
}

/// Random access: the app the stream would yield at `index`, in
/// O(categories) time.
///
/// # Panics
///
/// Panics if `index >= cfg.total()`.
#[must_use]
pub fn app_at(cfg: &CorpusConfig, index: usize) -> MarketApp {
    assert!(index < cfg.total(), "index {index} out of corpus bounds");
    let s = schedule();
    let role = if slot_declares(s, index) {
        Some(role_from_ordinal(s, declaring_ordinal(s, index)))
    } else {
        None
    };
    materialize(cfg, index, role)
}

/// Generates the corpus described by `cfg`. Deterministic per seed;
/// equal to collecting [`stream`].
#[must_use]
pub fn generate(cfg: &CorpusConfig) -> Vec<MarketApp> {
    stream(cfg).collect()
}

/// Combo choice for foreground-only requesters, respecting the claim.
fn pick_fg_combo(claim: LocationClaim, rng: &mut StdRng) -> ProviderCombo {
    if claim.allows_fine() {
        const COMBOS: [ProviderCombo; 6] = [
            ProviderCombo::Gps,
            ProviderCombo::Fused,
            ProviderCombo::GpsNetwork,
            ProviderCombo::Network,
            ProviderCombo::FusedNetwork,
            ProviderCombo::Passive,
        ];
        const WEIGHTS: [f64; 6] = [0.35, 0.25, 0.15, 0.12, 0.08, 0.05];
        COMBOS[weighted_index(rng, &WEIGHTS)]
    } else {
        const COMBOS: [ProviderCombo; 3] = [ProviderCombo::Network, ProviderCombo::Fused, ProviderCombo::Passive];
        const WEIGHTS: [f64; 3] = [0.6, 0.25, 0.15];
        COMBOS[weighted_index(rng, &WEIGHTS)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_quotas_match_paper_integers() {
        let q = Quotas::scaled(2800);
        assert_eq!(q.declaring, 1137);
        assert_eq!(q.fine_only, 193);
        assert_eq!(q.coarse_only, 182);
        assert_eq!(q.both, 762);
        assert_eq!(q.fine_only + q.coarse_only + q.both, 1137);
        assert_eq!(q.functional, 528);
        assert_eq!(q.auto_start, 393);
        assert_eq!(q.background, 102);
        assert_eq!(q.bg_auto_start, 85);
        let t1_total: usize = q.table1.iter().map(|&(_, _, c)| c).sum();
        assert_eq!(t1_total, 102);
        assert_eq!(q.table1_row_total(LocationClaim::FineOnly), 18);
        assert_eq!(q.table1_row_total(LocationClaim::CoarseOnly), 6);
        assert_eq!(q.table1_row_total(LocationClaim::FineAndCoarse), 78);
        let iv_total: usize = q.intervals.iter().map(|&(_, c)| c).sum();
        assert_eq!(iv_total, 102);
        // every Table I cell lands on its paper integer exactly
        for (planted, paper) in q.table1.iter().zip(&TABLE1_PAPER) {
            assert_eq!(planted, paper);
        }
        for (planted, paper) in q.intervals.iter().zip(&INTERVALS_PAPER) {
            assert_eq!(planted, paper);
        }
    }

    #[test]
    fn paper_interval_cdf_anchors() {
        let q = Quotas::scaled(2800);
        let at_or_below = |cut: i64| -> usize { q.intervals.iter().filter(|&&(s, _)| s <= cut).map(|&(_, c)| c).sum() };
        assert_eq!(at_or_below(10), 59); // 57.8 %
        assert_eq!(at_or_below(60), 70); // 68.6 %
        assert_eq!(at_or_below(600), 85); // ≈ 83 %
        assert_eq!(at_or_below(7200), 102);
        // exactly one app at the 7200 s maximum
        assert_eq!(q.intervals.iter().find(|&&(s, _)| s == 7200).unwrap().1, 1);
    }

    #[test]
    fn scaled_quotas_are_consistent() {
        for per_cat in [1usize, 3, 10, 25, 100, 250] {
            let q = Quotas::scaled(per_cat * 28);
            assert!(q.declaring <= q.total);
            assert!(q.functional <= q.declaring);
            assert!(q.background <= q.functional);
            assert!(q.bg_auto_start <= q.background);
            assert!(q.auto_start <= q.functional);
            assert_eq!(q.fine_only + q.coarse_only + q.both, q.declaring);
            let t1: usize = q.table1.iter().map(|&(_, _, c)| c).sum();
            assert_eq!(t1, q.background, "table1 cells must sum to bg count at {per_cat}");
            let iv: usize = q.intervals.iter().map(|&(_, c)| c).sum();
            assert_eq!(iv, q.background);
        }
    }

    #[test]
    fn all_reach_classes_appear_from_small_scales_up() {
        // the cross-validation suites rely on every class existing even in
        // small corpora — the chained-ordinal schedule guarantees it
        for per_cat in [4usize, 6, 8, 12] {
            let q = Quotas::scaled(per_cat * 28);
            assert!(q.declaring > q.functional, "inert apps at {per_cat}");
            assert!(q.functional > q.background, "fg-only apps at {per_cat}");
            assert!(q.background > q.bg_auto_start, "bg-capable apps at {per_cat}");
            assert!(q.bg_auto_start > 0, "auto-start apps at {per_cat}");
        }
    }

    #[test]
    fn generation_matches_quotas_exactly() {
        let cfg = CorpusConfig::scaled(20);
        let corpus = generate(&cfg);
        let q = Quotas::scaled(cfg.total());
        assert_eq!(corpus.len(), q.total);
        let declaring = corpus.iter().filter(|a| a.truth.claim.declares_location()).count();
        assert_eq!(declaring, q.declaring);
        let functional = corpus.iter().filter(|a| a.truth.functional).count();
        assert_eq!(functional, q.functional);
        let background = corpus.iter().filter(|a| a.truth.bg_interval_s.is_some()).count();
        assert_eq!(background, q.background);
        let bg_auto = corpus
            .iter()
            .filter(|a| a.truth.bg_interval_s.is_some() && a.truth.auto_start)
            .count();
        assert_eq!(bg_auto, q.bg_auto_start);
        let auto = corpus.iter().filter(|a| a.truth.auto_start).count();
        assert_eq!(auto, q.auto_start.min(q.bg_auto_start + (q.functional - q.background)));
    }

    #[test]
    fn generated_behaviors_respect_declared_permissions() {
        let corpus = generate(&CorpusConfig::scaled(15));
        for entry in &corpus {
            let claim = entry.app.manifest().location_claim();
            assert_eq!(claim, entry.truth.claim);
            for &p in entry.app.behavior().providers() {
                assert!(p.permitted_for(claim), "{}: {p} not permitted under {claim}", entry.app);
            }
        }
    }

    #[test]
    fn generated_apps_declare_components() {
        let corpus = generate(&CorpusConfig::scaled(8));
        for entry in &corpus {
            let m = entry.app.manifest();
            assert!(
                m.components().iter().any(|c| c.kind == ComponentKind::Activity),
                "{}: every app has a launcher activity",
                entry.app
            );
            let is_bg = entry.truth.bg_interval_s.is_some();
            assert_eq!(m.has_location_service(), is_bg, "{}", entry.app);
            assert_eq!(m.has_boot_receiver(), is_bg && entry.truth.auto_start, "{}", entry.app);
        }
    }

    #[test]
    fn generation_is_deterministic() {
        let cfg = CorpusConfig::scaled(5);
        let a = generate(&cfg);
        let b = generate(&cfg);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app);
            assert_eq!(x.truth, y.truth);
        }
    }

    #[test]
    fn different_seeds_differ() {
        let mut cfg = CorpusConfig::scaled(5);
        let a = generate(&cfg);
        cfg.seed ^= 1;
        let b = generate(&cfg);
        assert!(a.iter().zip(&b).any(|(x, y)| x.truth != y.truth));
    }

    #[test]
    fn location_heavy_categories_declare_more() {
        let corpus = generate(&CorpusConfig::paper_scale());
        let rate = |cat: Category| -> f64 {
            let apps: Vec<_> = corpus.iter().filter(|a| a.category == cat).collect();
            apps.iter().filter(|a| a.truth.claim.declares_location()).count() as f64 / apps.len() as f64
        };
        assert!(rate(Category::TravelAndLocal) > rate(Category::Comics));
        assert!(rate(Category::Weather) > rate(Category::LibrariesAndDemo));
    }

    #[test]
    fn combo_round_trips_through_provider_sets() {
        for combo in TABLE1_COLUMNS {
            assert_eq!(ProviderCombo::from_providers(combo.providers()), Some(combo));
        }
        assert_eq!(
            ProviderCombo::from_providers(&[ProviderKind::Network, ProviderKind::Gps]),
            Some(ProviderCombo::GpsNetwork)
        );
        assert_eq!(ProviderCombo::from_providers(&[]), None);
    }

    #[test]
    fn apportion_preserves_total_and_zeroes() {
        let out = apportion(&[32, 14, 5, 0, 6], 10);
        assert_eq!(out.iter().sum::<usize>(), 10);
        assert_eq!(out[3], 0, "zero-weight cell must stay zero");
        let out = apportion(&[1, 1, 1], 0);
        assert_eq!(out, vec![0, 0, 0]);
    }

    #[test]
    fn interleave_is_quota_exact_over_a_period() {
        for counts in [
            vec![175, 176, 684],
            vec![7, 3, 4, 2, 1, 1, 6, 32, 9, 7, 14, 5, 4, 6, 1],
            vec![20, 15, 12, 12, 6, 5, 6, 5, 4, 9, 7, 1],
        ] {
            let table = interleave(&counts);
            assert_eq!(table.len(), counts.iter().sum::<usize>());
            for (k, &c) in counts.iter().enumerate() {
                let got = table.iter().filter(|&&x| x as usize == k).count();
                assert_eq!(got, c, "bucket {k}");
            }
        }
    }

    #[test]
    fn random_access_matches_stream() {
        let cfg = CorpusConfig::scaled(7).with_sdk_share(35).at_snapshot(2);
        for (i, entry) in stream(&cfg).enumerate() {
            let direct = app_at(&cfg, i);
            assert_eq!(direct.app, entry.app, "slot {i}");
            assert_eq!(direct.truth, entry.truth, "slot {i}");
            assert_eq!(direct.sdk.is_some(), entry.sdk.is_some(), "slot {i}");
            assert_eq!(entry.app.manifest().package(), package_at(i));
        }
    }

    #[test]
    fn stream_prefix_is_stable_under_larger_totals() {
        let small = CorpusConfig::scaled(4).with_sdk_share(50);
        let big = CorpusConfig {
            apps_per_category: 11,
            ..small
        };
        for (i, (s, b)) in stream(&small).zip(stream(&big)).enumerate() {
            assert_eq!(s.app, b.app, "slot {i}");
            assert_eq!(s.truth, b.truth, "slot {i}");
            assert_eq!(s.sdk.is_some(), b.sdk.is_some(), "slot {i}");
        }
        assert_eq!(stream(&small).len(), small.total());
    }

    #[test]
    fn sdk_share_knob_controls_membership() {
        let none = generate(&CorpusConfig::scaled(5));
        assert!(none.iter().all(|e| e.sdk.is_none()), "default share is 0");
        let all = generate(&CorpusConfig::scaled(5).with_sdk_share(100));
        assert!(all.iter().all(|e| e.sdk.is_some()));
        let cfg = CorpusConfig::scaled(10).with_sdk_share(50);
        let half = generate(&cfg);
        let n = half.iter().filter(|e| e.sdk.is_some()).count();
        let total = cfg.total();
        assert!(n > total * 35 / 100 && n < total * 65 / 100, "{n}/{total} apps with sdk");
        // membership is a per-slot property: snapshots don't change it
        let later = generate(&cfg.at_snapshot(4));
        for (a, b) in half.iter().zip(&later) {
            assert_eq!(a.sdk.is_some(), b.sdk.is_some());
        }
    }

    #[test]
    fn snapshots_churn_behaviors_but_preserve_the_funnel() {
        let cfg = CorpusConfig::scaled(6).with_churn_ppm(200_000);
        let t0 = generate(&cfg);
        let t3 = generate(&cfg.at_snapshot(3));
        let mut changed = 0usize;
        for (i, (a, b)) in t0.iter().zip(&t3).enumerate() {
            // roles are scheduled per slot, so the funnel never moves
            assert_eq!(a.truth.claim, b.truth.claim, "slot {i}");
            assert_eq!(a.truth.functional, b.truth.functional, "slot {i}");
            assert_eq!(a.truth.auto_start, b.truth.auto_start, "slot {i}");
            assert_eq!(a.truth.bg_interval_s, b.truth.bg_interval_s, "slot {i}");
            changed += usize::from(a.app != b.app);
            assert_eq!(
                version_changed(&cfg, &cfg.at_snapshot(3), i),
                app_version(&cfg.at_snapshot(3), i) > 0,
                "slot {i}"
            );
        }
        // 20 % churn over three epochs must have updated *something*
        assert!(changed > 0, "churn changed no app");
        assert!(changed < t0.len(), "churn changed every app");
    }

    #[test]
    fn version_gate_is_sound() {
        // whenever the materialized app differs between snapshots, the
        // version gate must have flagged the slot (never vice versa
        // misses): unchanged version implies bit-identical app
        let base = CorpusConfig::scaled(5).with_churn_ppm(300_000);
        let next = base.at_snapshot(2);
        for i in 0..base.total() {
            if !version_changed(&base, &next, i) {
                let a = app_at(&base, i);
                let b = app_at(&next, i);
                assert_eq!(a.app, b.app, "slot {i} changed without a version bump");
            }
        }
    }
}
