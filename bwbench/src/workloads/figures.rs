//! `figures`: the paper's own §IV pipeline — `prepare_users` → Figure 3 →
//! Figure 4 → Figure 5 at paper scale (182 users × 28 days, ten access
//! intervals). An item is one user.
//!
//! Time goes to trace synthesis, the SoA planar PoI path on dense 1 Hz
//! traces, His_bin detection and the chi-square adversary. The workload
//! never touches the market or serve code.

use crate::golden;
use crate::harness::{fnv1a, rep_seed, Opts, Rep, Scale, Traced, Verdict, Workload};
use crate::metrics::LayerValues;
use crate::span::{self, Layer, Recorder};
use backwatch_core::adversary::ProfileStore;
use backwatch_core::anonymity::Weighting;
use backwatch_core::hisbin::detect_incremental;
use backwatch_core::metrics::impact_from_stays;
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::SpatioTemporalExtractor;
use backwatch_experiments::fig4::{DetectionSet, Fig4Result};
use backwatch_experiments::fig5::{Fig5Result, Fig5Row};
use backwatch_experiments::prepare::{self, IntervalData, UserData};
use backwatch_experiments::{fig3, fig4, fig5, ExperimentConfig};
use backwatch_geo::Seconds;
use backwatch_trace::sampling;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Every this-many-th user is re-extracted on the exact lat/lon path.
const ORACLE_STRIDE: usize = 13;

/// The workload state.
pub struct Figures {
    /// The configuration at the default seed.
    base: ExperimentConfig,
    opts: Opts,
}

/// One rep's results.
pub struct Output {
    users: Vec<UserData>,
    fig3: fig3::Fig3Result,
    fig4: Fig4Result,
    fig5: Fig5Result,
}

fn config(threads: usize, scale: Scale) -> ExperimentConfig {
    let mut cfg = match scale {
        Scale::Full => ExperimentConfig::paper(),
        Scale::Smoke => ExperimentConfig::small(),
    };
    cfg.threads = threads;
    cfg
}

impl Figures {
    /// The configuration of rep `k`.
    fn cfg(&self, k: u64) -> ExperimentConfig {
        let mut cfg = self.base.clone();
        cfg.synth.seed ^= rep_seed(self.opts.seed, k);
        cfg
    }
}

fn pipeline(cfg: &ExperimentConfig) -> Output {
    let users = prepare::prepare_users(cfg);
    let fig3 = fig3::run(cfg, &users);
    let fig4 = fig4::run(cfg, &users);
    let fig5 = fig5::run(cfg, &users);
    Output { users, fig3, fig4, fig5 }
}

impl Workload for Figures {
    type Output = Output;

    fn setup(opts: &Opts) -> Self {
        let mut warm = config(opts.threads, Scale::Smoke);
        warm.synth.seed ^= opts.seed;
        std::hint::black_box(pipeline(&warm));
        Self {
            base: config(opts.threads, opts.scale),
            opts: opts.clone(),
        }
    }

    fn items(&self) -> u64 {
        u64::from(self.base.synth.n_users)
    }

    fn workers(&self) -> usize {
        self.base.threads
    }

    fn describe(&self) -> String {
        format!(
            "{} users x {} days, {} access intervals",
            self.base.synth.n_users,
            self.base.synth.days,
            self.base.intervals.len()
        )
    }

    fn rep(&mut self, k: u64) -> Rep<Output> {
        let cfg = self.cfg(k);
        Rep::timed(|| pipeline(&cfg))
    }

    fn traced_rep(&mut self, k: u64, rec: &mut Recorder) -> Output {
        let cfg = &self.cfg(k);
        let users = span::map_users(rec, Layer::ExperimentsPrepare, cfg.synth.n_users, cfg.threads, |u, r| {
            prepare_one(cfg, u, r)
        });
        let fig3 = rec.span(Layer::ExperimentsFold, |_| fig3::run(cfg, &users));
        let fig4 = Fig4Result {
            from_start: detect_set(cfg, &users, rec, |u| &u.per_interval[0]),
            from_random: detect_set(cfg, &users, rec, |u| &u.rotated),
            per_interval: (0..cfg.intervals.len())
                .map(|i| (cfg.intervals[i], detect_set(cfg, &users, rec, move |u| &u.per_interval[i])))
                .collect(),
        };
        let fig5 = fig5_traced(cfg, &users, rec);
        Output { users, fig3, fig4, fig5 }
    }

    fn verify(&mut self, k: u64, out: &Output, first: bool, verdict: &mut Verdict) -> u64 {
        let cfg = &self.cfg(k);
        let text = [
            fig3::render(&out.fig3),
            fig3::to_csv(&out.fig3),
            fig4::render(&out.fig4),
            fig4::to_csv(&out.fig4),
            fig5::render(&out.fig5),
            fig5::to_csv(&out.fig5),
        ]
        .concat();
        verdict.check(
            out.users.len() == cfg.synth.n_users as usize
                && out.fig3.rows.len() == cfg.intervals.len()
                && out.fig4.per_interval.len() == cfg.intervals.len()
                && out.fig5.rows.len() == cfg.intervals.len(),
            || "figure shapes do not match the configuration".to_owned(),
        );
        for (i, u) in out.users.iter().enumerate() {
            // interval 1 s collects the whole trace, so it must extract
            // exactly the full-rate stays; coarser polling never collects more
            let full_rate = u
                .per_interval
                .first()
                .is_some_and(|d| d.interval_s != 1 || (d.stays == u.full_stays && d.collected_points == u.trace_len));
            let monotone = u
                .per_interval
                .windows(2)
                .all(|w| w[1].collected_points <= w[0].collected_points);
            verdict.check(
                u.user_id == i as u32 && u.impacts.len() == cfg.intervals.len() && full_rate && monotone,
                || format!("user {i}: prepared data breaks the per-user invariants"),
            );
        }
        if first {
            // the exact lat/lon extractor is the oracle the planar SoA
            // path must reproduce bit for bit
            let extractor = SpatioTemporalExtractor::new(cfg.params);
            for u in out.users.iter().step_by(ORACLE_STRIDE) {
                let trace = generate_user(&cfg.synth, u.user_id).trace;
                verdict.check(extractor.extract(&trace) == u.full_stays, || {
                    format!("user {}: stays differ from the lat/lon oracle", u.user_id)
                });
            }
            if self.opts.golden(k) {
                golden::check("figures", &golden::row_digests(&text), verdict);
            }
        }
        fnv1a(text.as_bytes())
    }

    fn layer_metrics(&mut self, _traced: &Traced, _values: &mut LayerValues) {}
}

/// `prepare::prepare_one`, call for call, each call in a span.
fn prepare_one(cfg: &ExperimentConfig, user_idx: u32, r: &mut Recorder) -> UserData {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let user = r.span(Layer::TraceSynth, |_| generate_user(&cfg.synth, user_idx));
    let projected = r.span(Layer::TraceSoa, |_| SoaProjectedTrace::project(&user.trace));
    let full_stays = r.span(Layer::CorePoi, |_| extractor.extract_soa(&projected));
    let (profile1, profile2) = r.span(Layer::CorePattern, |_| {
        (
            Profile::from_stays(PatternKind::RegionVisits, &full_stays, &grid),
            Profile::from_stays(PatternKind::MovementPattern, &full_stays, &grid),
        )
    });
    let per_interval: Vec<IntervalData> = cfg
        .intervals
        .iter()
        .map(|&interval_s| {
            let indices = r.span(Layer::TraceSampling, |_| {
                sampling::downsample_indices(&user.trace, Seconds::new(interval_s))
            });
            IntervalData {
                interval_s,
                collected_points: indices.len(),
                stays: r.span(Layer::CorePoi, |_| extractor.extract_sampled_soa(&projected, &indices)),
            }
        })
        .collect();
    let mut rng = StdRng::seed_from_u64(cfg.synth.seed ^ (u64::from(user_idx) << 17) ^ 0x000F_1CED);
    let start = r.span(Layer::TraceSampling, |_| {
        sampling::random_start_index(user.trace.len(), &mut rng)
    });
    let rotated = IntervalData {
        interval_s: 1,
        collected_points: user.trace.len(),
        stays: r.span(Layer::CorePoi, |_| extractor.extract_rotated_soa(&projected, start)),
    };
    let impacts = r.span(Layer::CoreMetrics, |_| {
        per_interval
            .iter()
            .map(|d| impact_from_stays(&user, Seconds::new(d.interval_s), d.collected_points, &d.stays, cfg.params))
            .collect()
    });
    UserData {
        user_id: user_idx,
        trace_len: user.trace.len(),
        full_stays,
        profile1,
        profile2,
        per_interval,
        rotated,
        impacts,
    }
}

/// `fig4::detect_set`, each user's detections in a span.
fn detect_set<F>(cfg: &ExperimentConfig, users: &[UserData], rec: &mut Recorder, data: F) -> DetectionSet
where
    F: Fn(&UserData) -> &IntervalData + Sync,
{
    let grid = cfg.grid();
    let pairs = span::map_users(rec, Layer::ExperimentsTask, users.len() as u32, cfg.threads, |i, r| {
        let u = &users[i as usize];
        let d = data(u);
        r.span(Layer::CoreHisbin, |_| {
            (
                detect_incremental(
                    &d.stays,
                    d.collected_points,
                    &grid,
                    PatternKind::RegionVisits,
                    &cfg.matcher,
                    &u.profile1,
                ),
                detect_incremental(
                    &d.stays,
                    d.collected_points,
                    &grid,
                    PatternKind::MovementPattern,
                    &cfg.matcher,
                    &u.profile2,
                ),
            )
        })
    });
    let (pattern1, pattern2) = pairs.into_iter().unzip();
    DetectionSet { pattern1, pattern2 }
}

/// `fig5::run`: profile building and one span per adversary query, then
/// the same per-interval fold in user order.
fn fig5_traced(cfg: &ExperimentConfig, users: &[UserData], rec: &mut Recorder) -> Fig5Result {
    let grid = cfg.grid();
    let (store1, store2) = rec.span(Layer::ExperimentsFold, |_| {
        let mut store1 = ProfileStore::new(PatternKind::RegionVisits);
        let mut store2 = ProfileStore::new(PatternKind::MovementPattern);
        for u in users {
            store1.insert(u.user_id, u.profile1.clone());
            store2.insert(u.user_id, u.profile2.clone());
        }
        (store1, store2)
    });
    let per_user = span::map_users(rec, Layer::ExperimentsTask, users.len() as u32, cfg.threads, |i, r| {
        let u = &users[i as usize];
        u.per_interval
            .iter()
            .map(|data| {
                let (obs1, obs2) = r.span(Layer::CorePattern, |_| {
                    (
                        Profile::from_stays(PatternKind::RegionVisits, &data.stays, &grid),
                        Profile::from_stays(PatternKind::MovementPattern, &data.stays, &grid),
                    )
                });
                let inf1 = r.span(Layer::CoreAdversary, |_| {
                    store1.infer(&obs1, &cfg.matcher, Weighting::PaperChiSquare)
                });
                let inf2 = r.span(Layer::CoreAdversary, |_| {
                    store2.infer(&obs2, &cfg.matcher, Weighting::PaperChiSquare)
                });
                (
                    inf1.identified_user() == Some(u.user_id),
                    inf2.identified_user() == Some(u.user_id),
                    inf1.degree(),
                    inf2.degree(),
                )
            })
            .collect::<Vec<_>>()
    });
    let rows = rec.span(Layer::ExperimentsFold, |_| {
        cfg.intervals
            .iter()
            .enumerate()
            .map(|(k, &interval_s)| {
                let mut row = Fig5Row {
                    interval_s,
                    p2_more_serious: 0,
                    p1_more_serious: 0,
                    ties: 0,
                    identified_p1: 0,
                    identified_p2: 0,
                    mean_degree_p1: 0.0,
                    mean_degree_p2: 0.0,
                };
                let (mut sum1, mut n1, mut sum2, mut n2) = (0.0, 0usize, 0.0, 0usize);
                for outcomes in &per_user {
                    let (ident1, ident2, d1, d2) = outcomes[k];
                    row.identified_p1 += usize::from(ident1);
                    row.identified_p2 += usize::from(ident2);
                    if let Some(d) = d1 {
                        sum1 += d;
                        n1 += 1;
                    }
                    if let Some(d) = d2 {
                        sum2 += d;
                        n2 += 1;
                    }
                    match (d1, d2) {
                        (Some(a), Some(b)) if b < a - 1e-12 => row.p2_more_serious += 1,
                        (Some(a), Some(b)) if a < b - 1e-12 => row.p1_more_serious += 1,
                        (Some(_), Some(_)) => row.ties += 1,
                        (Some(_), None) => row.p1_more_serious += 1,
                        (None, Some(_)) => row.p2_more_serious += 1,
                        (None, None) => {}
                    }
                }
                row.mean_degree_p1 = if n1 == 0 { 1.0 } else { sum1 / n1 as f64 };
                row.mean_degree_p2 = if n2 == 0 { 1.0 } else { sum2 / n2 as f64 };
                row
            })
            .collect()
    });
    Fig5Result { rows }
}
