//! `leakage`: the traffic-leakage sweep (X11) — every user's trace leaked
//! at 3 reporting intervals × 6 coordinate precisions and pushed through
//! PoI extraction, His_bin, the chi-square store and the containment
//! adversary. An item is one observation (user × interval × precision).
//!
//! A rep's population is 30 users × 7 days rather than the experiment's
//! 182 × 28, which takes about 60 s on a 2-vCPU host. Both costly layers
//! stay: lat/lon extraction on sparse leaked traces per user, and
//! candidate sets against the whole population per observation. A rep's
//! cost varies about 8% with the synthetic city, whatever its population,
//! so many small reps (each its own city) repeat better than a few large
//! ones. The workload shares `core.adversary` with `figures` but adds
//! `core.leakage`, so the pair separates the two.

use crate::golden;
use crate::harness::{fnv1a, rep_seed, Opts, Rep, Scale, Traced, Verdict, Workload};
use crate::metrics::{ratio, LayerValues};
use crate::span::{self, Layer, Recorder};
use backwatch_core::adversary::ProfileStore;
use backwatch_core::anonymity::Weighting;
use backwatch_core::leakage::{self, CoordSet, LeakageAdversary};
use backwatch_core::pattern::{PatternKind, Profile};
use backwatch_core::poi::SpatioTemporalExtractor;
use backwatch_experiments::ext_leakage::{self, LeakCell, LeakageResult, LEAK_INTERVALS, PRECISIONS};
use backwatch_experiments::ExperimentConfig;
use backwatch_geo::Seconds;
use backwatch_trace::synth::generate_user;
use backwatch_trace::SoaProjectedTrace;

/// The workload state.
pub struct Leakage {
    /// The configuration at the default seed.
    base: ExperimentConfig,
    opts: Opts,
    identified: f64,
    observations: f64,
}

fn config(threads: usize, scale: Scale) -> ExperimentConfig {
    let mut cfg = ExperimentConfig::paper();
    match scale {
        Scale::Full => {
            cfg.synth.n_users = 30;
            cfg.synth.days = 7;
        }
        Scale::Smoke => cfg.synth = backwatch_trace::synth::SynthConfig::small(),
    }
    cfg.threads = threads;
    cfg
}

impl Leakage {
    /// The configuration of rep `k`.
    fn cfg(&self, k: u64) -> ExperimentConfig {
        let mut cfg = self.base.clone();
        cfg.synth.seed ^= rep_seed(self.opts.seed, k);
        cfg
    }
}

impl Workload for Leakage {
    type Output = LeakageResult;

    fn setup(opts: &Opts) -> Self {
        let mut warm = config(opts.threads, Scale::Smoke);
        warm.synth.seed ^= opts.seed;
        std::hint::black_box(ext_leakage::run(&warm));
        Self {
            base: config(opts.threads, opts.scale),
            opts: opts.clone(),
            identified: 0.0,
            observations: 0.0,
        }
    }

    fn items(&self) -> u64 {
        u64::from(self.base.synth.n_users) * (LEAK_INTERVALS.len() * PRECISIONS.len()) as u64
    }

    fn workers(&self) -> usize {
        self.base.threads
    }

    fn describe(&self) -> String {
        format!(
            "{} users x {} days, {} intervals x {} precisions",
            self.base.synth.n_users,
            self.base.synth.days,
            LEAK_INTERVALS.len(),
            PRECISIONS.len()
        )
    }

    fn rep(&mut self, k: u64) -> Rep<LeakageResult> {
        let cfg = self.cfg(k);
        Rep::timed(|| ext_leakage::run(&cfg))
    }

    fn traced_rep(&mut self, k: u64, rec: &mut Recorder) -> LeakageResult {
        let result = traced_run(&self.cfg(k), rec);
        self.identified += result.cells.iter().map(|c| c.identified as f64).sum::<f64>();
        self.observations += (result.users * result.cells.len()) as f64;
        result
    }

    fn verify(&mut self, k: u64, out: &LeakageResult, first: bool, verdict: &mut Verdict) -> u64 {
        let users = self.base.synth.n_users as usize;
        verdict.check(
            out.users == users && out.cells.len() == LEAK_INTERVALS.len() * PRECISIONS.len(),
            || "leakage grid shape does not match the configuration".to_owned(),
        );
        verdict.check(ext_leakage::containment_grid_is_monotone(out), || {
            "containment degree is not monotone over the grid".to_owned()
        });
        for c in &out.cells {
            let unit = |d: f64| (0.0..=1.0).contains(&d);
            verdict.check(
                c.hisbin_detected <= users
                    && c.chi2_matched <= users
                    && c.identified <= users
                    && unit(c.mean_degree_chi2)
                    && unit(c.mean_degree_containment)
                    && c.mean_pois >= 0.0,
                || format!("cell {}s/{:?} is out of range", c.interval_s, c.precision),
            );
        }
        let rows: String = out.cells.iter().map(|c| format!("{c:?}\n")).collect();
        let text = ext_leakage::render(out) + &rows;
        if first && self.opts.golden(k) {
            golden::check("leakage", &golden::row_digests(&text), verdict);
        }
        fnv1a(text.as_bytes())
    }

    fn layer_metrics(&mut self, _traced: &Traced, values: &mut LayerValues) {
        values.set("core.leakage.identified_ratio", ratio(self.identified, self.observations));
    }
}

struct UserLeak {
    profile1: Profile,
    full_set: CoordSet,
    per_interval: Vec<CoordSet>,
    cells: Vec<(usize, bool, Profile)>,
}

/// `ext_leakage::run`, call for call, each call in a span.
fn traced_run(cfg: &ExperimentConfig, rec: &mut Recorder) -> LeakageResult {
    let grid = cfg.grid();
    let extractor = SpatioTemporalExtractor::new(cfg.params);
    let matcher = cfg.matcher;
    let per_user = span::map_users(rec, Layer::ExperimentsPrepare, cfg.synth.n_users, cfg.threads, |u, r| {
        let user = r.span(Layer::TraceSynth, |_| generate_user(&cfg.synth, u));
        let times: Vec<i64> = user.trace.points().iter().map(|p| p.time.as_secs()).collect();
        let soa = r.span(Layer::TraceSoa, |_| SoaProjectedTrace::project(&user.trace));
        let full = r.span(Layer::CorePoi, |_| extractor.extract_soa(&soa));
        let (profile1, profile2) = r.span(Layer::CorePattern, |_| {
            (
                Profile::from_stays(PatternKind::RegionVisits, &full, &grid),
                Profile::from_stays(PatternKind::MovementPattern, &full, &grid),
            )
        });
        let full_set = r.span(Layer::CoreLeakage, |_| CoordSet::from_trace(&user.trace));
        let mut per_interval = Vec::with_capacity(LEAK_INTERVALS.len());
        let mut cells = Vec::with_capacity(LEAK_INTERVALS.len() * PRECISIONS.len());
        for &interval_s in &LEAK_INTERVALS {
            let indices = r.span(Layer::TraceSampling, |_| {
                leakage::sample_indices(&times, Seconds::new(interval_s))
            });
            per_interval.push(r.span(Layer::CoreLeakage, |_| CoordSet::from_sampled(&user.trace, &indices)));
            for &precision in &PRECISIONS {
                let leaked = r.span(Layer::CoreLeakage, |_| {
                    leakage::observe(&user.trace, Seconds::new(interval_s), precision)
                });
                let stays = r.span(Layer::CorePoi, |_| extractor.extract(&leaked));
                let (observed1, observed2) = r.span(Layer::CorePattern, |_| {
                    (
                        Profile::from_stays(PatternKind::RegionVisits, &stays, &grid),
                        Profile::from_stays(PatternKind::MovementPattern, &stays, &grid),
                    )
                });
                let fired = r.span(Layer::CoreHisbin, |_| {
                    matcher.compare(&observed2, &profile2).his_bin.is_leaky()
                });
                cells.push((stays.len(), fired, observed1));
            }
        }
        UserLeak {
            profile1,
            full_set,
            per_interval,
            cells,
        }
    });

    let (store, containment) = rec.span(Layer::ExperimentsFold, |_| {
        let mut store = ProfileStore::new(PatternKind::RegionVisits);
        let mut containment = LeakageAdversary::new();
        for (u, ul) in per_user.iter().enumerate() {
            store.insert(u as u32, ul.profile1.clone());
            containment.insert(u as u32, ul.full_set.clone());
        }
        (store, containment)
    });

    let cells = rec.span(Layer::ExperimentsFold, |rec| {
        let mut cells = Vec::with_capacity(LEAK_INTERVALS.len() * PRECISIONS.len());
        for (ii, &interval_s) in LEAK_INTERVALS.iter().enumerate() {
            for (pi, &precision) in PRECISIONS.iter().enumerate() {
                let idx = ii * PRECISIONS.len() + pi;
                let (mut poi_sum, mut fired, mut chi2_matched, mut identified) = (0usize, 0usize, 0usize, 0usize);
                let (mut chi2_sum, mut cont_sum) = (0.0, 0.0);
                for ul in &per_user {
                    let (pois, cell_fired, observed1) = &ul.cells[idx];
                    poi_sum += pois;
                    fired += usize::from(*cell_fired);
                    let inference = rec.span(Layer::CoreAdversary, |_| {
                        store.infer(observed1, &matcher, Weighting::PaperChiSquare)
                    });
                    if let Some(d) = inference.degree() {
                        chi2_matched += 1;
                        chi2_sum += d;
                    }
                    let candidates = rec.span(Layer::CoreLeakage, |_| {
                        containment.candidates(&ul.per_interval[ii], precision)
                    });
                    identified += usize::from(candidates.len() == 1);
                    let n = containment.population();
                    cont_sum += if n <= 1 || candidates.is_empty() {
                        0.0
                    } else {
                        ((candidates.len() as f64).log2() / (n as f64).log2()).clamp(0.0, 1.0)
                    };
                }
                let n = per_user.len().max(1);
                cells.push(LeakCell {
                    interval_s,
                    precision,
                    mean_pois: poi_sum as f64 / n as f64,
                    hisbin_detected: fired,
                    chi2_matched,
                    mean_degree_chi2: if chi2_matched > 0 {
                        chi2_sum / chi2_matched as f64
                    } else {
                        1.0
                    },
                    mean_degree_containment: cont_sum / n as f64,
                    identified,
                });
            }
        }
        cells
    });
    LeakageResult {
        cells,
        users: per_user.len(),
    }
}
