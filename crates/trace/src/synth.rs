//! Synthetic Geolife-like mobility generator.
//!
//! The paper evaluates on the Geolife dataset: 182 users, ~1 Hz GPS
//! recording of daily outdoor activity (commutes, shopping, dining, …).
//! Geolife cannot be redistributed, so this module generates a population
//! with the same statistical skeleton **and known ground truth**:
//!
//! - each user gets a **home**, usually a **workplace**, and a handful of
//!   Zipf-popular **secondary places** (restaurants, gyms, shops);
//! - each simulated day is a schedule of *visits* (dwell at a place)
//!   connected by *movement legs* (interpolated travel with GPS jitter);
//! - the device records at 1 Hz while the user is out, and for a capped
//!   window after arriving somewhere (people stop recording once settled —
//!   this matches Geolife's outdoor-activity bias); the fix at departure
//!   still anchors the full dwell interval, so long stays remain visible
//!   to low-frequency observers;
//! - every true visit (place, arrival, departure) is returned next to the
//!   recorded trace, so PoI extractors can be validated against ground
//!   truth instead of eyeballed.
//!
//! Generation is fully deterministic given `(seed, user index)`, which lets
//! the experiment harness stream users one at a time without holding the
//! whole population in memory.

use crate::point::{Timestamp, TracePoint, SECS_PER_DAY};
use crate::trajectory::Trace;
use backwatch_geo::{enu::Frame, LatLon, Meters, Seconds};
use backwatch_stats::sampling::{coin, normal, truncated_normal, weighted_index, Zipf};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// What role a place plays in a user's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PlaceKind {
    /// Where the user sleeps; visited daily.
    Home,
    /// Where a worker spends weekdays.
    Work,
    /// Errand destinations with Zipf-distributed popularity.
    Secondary,
}

/// A place a synthetic user frequents.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Place {
    /// Index into the user's place list.
    pub id: usize,
    /// Role of the place.
    pub kind: PlaceKind,
    /// Location of the place.
    pub pos: LatLon,
}

/// A ground-truth visit: the user was at `place` from `arrive` to `depart`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrueVisit {
    /// Index of the visited place in [`UserTrace::places`].
    pub place: usize,
    /// Role of the visited place.
    pub kind: PlaceKind,
    /// Arrival time.
    pub arrive: Timestamp,
    /// Departure time.
    pub depart: Timestamp,
}

impl TrueVisit {
    /// Dwell duration in seconds.
    #[must_use]
    pub fn dwell_secs(&self) -> i64 {
        self.depart - self.arrive
    }
}

/// A generated user: their places, the recorded trace, and the ground-truth
/// visit log.
#[derive(Debug, Clone, PartialEq)]
pub struct UserTrace {
    /// Stable user identifier (the generation index).
    pub user_id: u32,
    /// The user's places; index 0 is always home.
    pub places: Vec<Place>,
    /// The recorded (1 Hz, jittered) location trace.
    pub trace: Trace,
    /// Ground-truth visits in chronological order.
    pub true_visits: Vec<TrueVisit>,
}

/// Configuration of the mobility generator.
///
/// [`SynthConfig::paper_scale`] reproduces the Geolife magnitudes used in
/// the paper's evaluation (182 users); [`SynthConfig::small`] is a
/// milliseconds-fast configuration for tests and examples.
#[derive(Debug, Clone, PartialEq)]
pub struct SynthConfig {
    /// Number of users to generate.
    pub n_users: u32,
    /// Number of simulated days per user.
    pub days: u32,
    /// Master seed; user `i` derives its own stream from `(seed, i)`.
    pub seed: u64,
    /// City anchor (defaults to Beijing, where most Geolife data lives).
    pub city_center: LatLon,
    /// Radius within which homes are placed.
    pub city_radius_m: Meters,
    /// Inclusive range of secondary places per user.
    pub secondary_places: (usize, usize),
    /// Zipf exponent for secondary-place popularity.
    pub zipf_exponent: f64,
    /// Fraction of users with a weekday workplace.
    pub worker_fraction: f64,
    /// Recording period of the device (Geolife: 1 s).
    pub sample_interval_s: Seconds,
    /// Per-axis GPS noise standard deviation.
    pub gps_noise_m: Meters,
    /// Recording stops this long after arriving at a place.
    pub max_recorded_dwell_s: Seconds,
    /// Size of the city-wide pool of shared errand destinations (malls,
    /// restaurants, parks). Users draw their secondary places from this
    /// pool, so different users visit the *same* spots — the spatial
    /// overlap that makes identification non-trivial (Geolife's users
    /// cluster around the same Beijing campus and malls).
    pub shared_place_pool: usize,
    /// Size of the shared workplace pool.
    pub workplace_pool: usize,
}

impl SynthConfig {
    /// Paper-scale population: 182 users, 28 days (Geolife's magnitude).
    #[must_use]
    pub fn paper_scale() -> Self {
        Self {
            n_users: 182,
            days: 28,
            ..Self::small()
        }
    }

    /// A tiny, fast configuration for tests and examples: 4 users, 3 days.
    #[must_use]
    pub fn small() -> Self {
        Self {
            n_users: 4,
            days: 3,
            seed: 0xBAC2_0175,
            city_center: LatLon::new(39.9042, 116.4074).expect("Beijing is a valid coordinate"),
            city_radius_m: Meters::new(10_000.0),
            secondary_places: (6, 12),
            // Visit frequency over a user's places is sharply skewed
            // (preferential return): the favourite one or two errand spots
            // absorb most trips, giving the habitual transitions that make
            // movement patterns identifying.
            zipf_exponent: 1.5,
            worker_fraction: 0.8,
            sample_interval_s: Seconds::new(1),
            gps_noise_m: Meters::new(4.0),
            max_recorded_dwell_s: Seconds::new(1_500),
            shared_place_pool: 240,
            workplace_pool: 40,
        }
    }

    /// Validates internal consistency.
    ///
    /// # Panics
    ///
    /// Panics with a descriptive message if any field is out of range.
    pub fn validate(&self) {
        assert!(self.n_users > 0, "need at least one user");
        assert!(self.days > 0, "need at least one day");
        assert!(self.city_radius_m.get() > 500.0, "city radius too small");
        assert!(self.secondary_places.0 >= 1 && self.secondary_places.0 <= self.secondary_places.1);
        assert!((0.0..=1.0).contains(&self.worker_fraction));
        assert!(self.sample_interval_s.get() >= 1);
        assert!(self.gps_noise_m.get() >= 0.0);
        assert!(self.max_recorded_dwell_s.get() >= 60, "recorded dwell window too small");
        assert!(
            self.shared_place_pool >= self.secondary_places.1,
            "shared pool must cover the largest per-user place count"
        );
        assert!(self.workplace_pool >= 1, "need at least one workplace");
    }
}

impl Default for SynthConfig {
    fn default() -> Self {
        Self::paper_scale()
    }
}

/// Generates user `user_idx` of the population described by `cfg`.
///
/// Deterministic: the same `(cfg.seed, user_idx)` always yields the same
/// user, independent of which other users are generated.
///
/// # Panics
///
/// Panics if `cfg` fails [`SynthConfig::validate`] or
/// `user_idx >= cfg.n_users`.
#[must_use]
pub fn generate_user(cfg: &SynthConfig, user_idx: u32) -> UserTrace {
    cfg.validate();
    assert!(user_idx < cfg.n_users, "user {user_idx} out of range ({} users)", cfg.n_users);
    let mut rng = StdRng::seed_from_u64(split_seed(cfg.seed, user_idx));
    let frame = Frame::new(cfg.city_center);

    let (places, home) = gen_places(cfg, &frame, &mut rng);
    let is_worker = coin(&mut rng, cfg.worker_fraction) && places.iter().any(|p| p.kind == PlaceKind::Work);
    let zipf = Zipf::new(
        places.iter().filter(|p| p.kind == PlaceKind::Secondary).count(),
        cfg.zipf_exponent,
    );

    // Legs and fixes are laid out on a tangent plane at home.
    let local = Frame::new(home);
    let enu: Vec<(f64, f64)> = places.iter().map(|p| local.to_enu(p.pos)).collect();
    let schedule = gen_schedule(cfg, &places, &enu, is_worker, &zipf, &mut rng);
    let (trace, true_visits) = record(cfg, &local, &enu, &places, &schedule, &mut rng);

    crate::obs::register();
    crate::obs::SYNTH_USERS.inc();
    crate::obs::SYNTH_POINTS.add(trace.len() as u64);

    UserTrace {
        user_id: user_idx,
        places,
        trace,
        true_visits,
    }
}

/// The home of user `user_idx`, from the same first RNG draws
/// [`generate_user`] makes, without synthesizing or recording a trace:
/// equal to that user's `places[0].pos`.
///
/// # Panics
///
/// Panics if `cfg` fails [`SynthConfig::validate`] or
/// `user_idx >= cfg.n_users`.
#[must_use]
pub fn generate_home(cfg: &SynthConfig, user_idx: u32) -> LatLon {
    cfg.validate();
    assert!(user_idx < cfg.n_users, "user {user_idx} out of range ({} users)", cfg.n_users);
    let mut rng = StdRng::seed_from_u64(split_seed(cfg.seed, user_idx));
    let home = draw_home(cfg, &mut rng);
    Frame::new(cfg.city_center).to_latlon(Meters::new(home.0), Meters::new(home.1))
}

/// Generates the whole population eagerly. Prefer iterating
/// [`generate_user`] for large configurations.
#[must_use]
pub fn generate_population(cfg: &SynthConfig) -> Vec<UserTrace> {
    (0..cfg.n_users).map(|i| generate_user(cfg, i)).collect()
}

/// SplitMix64 finalizer over (seed, stream) — decorrelates per-user RNGs.
fn split_seed(seed: u64, stream: u32) -> u64 {
    let mut z = seed ^ (u64::from(stream).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn uniform_in_disk(rng: &mut StdRng, radius: f64) -> (f64, f64) {
    let r = radius * rng.gen::<f64>().sqrt();
    let theta = rng.gen::<f64>() * std::f64::consts::TAU;
    (r * theta.cos(), r * theta.sin())
}

const MIN_PLACE_SEPARATION_M: f64 = 400.0;

/// Generates positions with best-effort minimum separation inside a disk.
fn scatter(rng: &mut StdRng, n: usize, radius: f64) -> Vec<(f64, f64)> {
    let mut out: Vec<(f64, f64)> = Vec::with_capacity(n);
    for _ in 0..n {
        let mut cand = uniform_in_disk(rng, radius);
        for _ in 0..64 {
            let ok = out
                .iter()
                .all(|p| ((p.0 - cand.0).powi(2) + (p.1 - cand.1).powi(2)).sqrt() >= MIN_PLACE_SEPARATION_M);
            if ok {
                break;
            }
            cand = uniform_in_disk(rng, radius);
        }
        out.push(cand);
    }
    out
}

/// Planar positions in ENU meters around the city center.
type EnuPool = Vec<(f64, f64)>;

/// The city's shared destinations, deterministic from the master seed
/// alone so every user sees the same city: `(errand pool, workplace
/// pool)`, in ENU meters around the city center.
fn shared_pools(cfg: &SynthConfig) -> (EnuPool, EnuPool) {
    let mut rng = StdRng::seed_from_u64(split_seed(cfg.seed, u32::MAX));
    let errands = scatter(&mut rng, cfg.shared_place_pool, cfg.city_radius_m.get());
    let workplaces = scatter(&mut rng, cfg.workplace_pool, cfg.city_radius_m.get() * 0.7);
    (errands, workplaces)
}

/// Home is private: uniform in the residential disk. It is the first draw
/// from a user's RNG, so [`generate_home`] can stop there.
fn draw_home(cfg: &SynthConfig, rng: &mut StdRng) -> (f64, f64) {
    uniform_in_disk(rng, cfg.city_radius_m.get() * 0.8)
}

/// The user's places, home first, and the home position.
fn gen_places(cfg: &SynthConfig, frame: &Frame, rng: &mut StdRng) -> (Vec<Place>, LatLon) {
    let (errand_pool, work_pool) = shared_pools(cfg);
    let home = draw_home(cfg, rng);
    // Work comes from the shared workplace pool, Zipf-popular (big
    // employers attract many of the synthetic users — the Geolife campus
    // effect).
    let work_zipf = Zipf::new(work_pool.len(), 0.8);
    let work = work_pool[work_zipf.sample(rng)];
    // Secondary places come from the shared errand pool, weighted by
    // global popularity and proximity to home: users frequent nearby spots
    // but everyone knows the famous ones.
    let n_secondary = rng.gen_range(cfg.secondary_places.0..=cfg.secondary_places.1);
    let weights: Vec<f64> = errand_pool
        .iter()
        .enumerate()
        .map(|(rank, p)| {
            let popularity = 1.0 / (rank as f64 + 1.0).powf(cfg.zipf_exponent);
            let d = ((p.0 - home.0).powi(2) + (p.1 - home.1).powi(2)).sqrt();
            popularity * (-d / 5_000.0).exp() + 1e-9
        })
        .collect();
    let mut chosen: Vec<usize> = Vec::with_capacity(n_secondary);
    while chosen.len() < n_secondary.min(errand_pool.len()) {
        let idx = weighted_index(rng, &weights);
        if !chosen.contains(&idx) {
            chosen.push(idx);
        }
    }

    let home_pos = frame.to_latlon(Meters::new(home.0), Meters::new(home.1));
    let mut places = Vec::with_capacity(2 + n_secondary);
    places.push(Place {
        id: 0,
        kind: PlaceKind::Home,
        pos: home_pos,
    });
    places.push(Place {
        id: 1,
        kind: PlaceKind::Work,
        pos: frame.to_latlon(Meters::new(work.0), Meters::new(work.1)),
    });
    for (i, &idx) in chosen.iter().enumerate() {
        let p = errand_pool[idx];
        places.push(Place {
            id: 2 + i,
            kind: PlaceKind::Secondary,
            pos: frame.to_latlon(Meters::new(p.0), Meters::new(p.1)),
        });
    }
    (places, home_pos)
}

/// One scheduled dwell: which place, and the dwell interval in absolute
/// seconds.
#[derive(Debug, Clone, Copy)]
struct ScheduledVisit {
    place: usize,
    arrive: i64,
    depart: i64,
}

/// Travel speed for a leg of `dist` meters: walk short hops, ride medium,
/// drive long.
fn leg_speed(dist: f64, rng: &mut StdRng) -> f64 {
    let base = if dist < 1_200.0 {
        1.35
    } else if dist < 4_000.0 {
        4.5
    } else {
        10.5
    };
    base * truncated_normal(rng, 1.0, 0.15, 0.7, 1.4)
}

/// The visit schedule; `enu` holds each place's position on the home
/// tangent plane, in `places` order.
fn gen_schedule(
    cfg: &SynthConfig,
    places: &[Place],
    enu: &[(f64, f64)],
    is_worker: bool,
    zipf: &Zipf,
    rng: &mut StdRng,
) -> Vec<ScheduledVisit> {
    let secondary_ids: Vec<usize> = places
        .iter()
        .filter(|p| p.kind == PlaceKind::Secondary)
        .map(|p| p.id)
        .collect();
    let travel = |a: usize, b: usize, rng: &mut StdRng| -> i64 {
        let (ax, ay) = enu[a];
        let (bx, by) = enu[b];
        let d = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        (d / leg_speed(d, rng)).ceil() as i64 + 30
    };

    let mut visits: Vec<ScheduledVisit> = Vec::new();
    // The user is home from t=0.
    let mut home_since = 0i64;
    let mut at = 0usize; // current place id (home)

    for day in 0..i64::from(cfg.days) {
        let day0 = day * SECS_PER_DAY;
        let weekday = day % 7 < 5;
        // Build the day's outing plan as a list of (place, dwell_secs).
        let mut plan: Vec<(usize, i64)> = Vec::new();
        let mut leave_home = if is_worker && weekday {
            day0 + truncated_normal(rng, 8.0 * 3600.0, 5400.0, 5.5 * 3600.0, 11.0 * 3600.0) as i64
        } else {
            day0 + truncated_normal(rng, 10.5 * 3600.0, 7200.0, 7.0 * 3600.0, 15.0 * 3600.0) as i64
        };
        if is_worker && weekday {
            // Office hours vary a lot day to day (meetings, overtime, early
            // departures) — Geolife-like irregularity that keeps the
            // dwell-weighted region histogram from converging in a day or
            // two.
            let work_dwell = truncated_normal(rng, 8.8 * 3600.0, 7200.0, 4.5 * 3600.0, 12.5 * 3600.0) as i64;
            plan.push((1, work_dwell));
        }
        let n_errands = if weekday {
            weighted_index(rng, &[0.35, 0.35, 0.20, 0.10])
        } else {
            weighted_index(rng, &[0.15, 0.30, 0.30, 0.15, 0.10])
        };
        for _ in 0..n_errands {
            if secondary_ids.is_empty() {
                break;
            }
            let place = secondary_ids[zipf.sample(rng)];
            // Dwell between 4 and 150 minutes — deliberately straddling the
            // paper's 10/20/30-minute visiting-time thresholds (Table III).
            let dwell = (truncated_normal(rng, 38.0, 30.0, 4.0, 150.0) * 60.0) as i64;
            plan.push((place, dwell));
        }
        if plan.is_empty() {
            // A stay-at-home day: the ongoing home visit just continues.
            continue;
        }
        // Some days the user never returns between stops; keep it simple and
        // chain stops in plan order.
        if leave_home <= home_since + 60 {
            leave_home = home_since + 60;
        }
        // Close the ongoing home visit.
        visits.push(ScheduledVisit {
            place: 0,
            arrive: home_since,
            depart: leave_home,
        });
        at = 0;
        let mut t = leave_home;
        for &(place, dwell) in &plan {
            t += travel(at, place, rng);
            let arrive = t;
            t += dwell.max(120);
            visits.push(ScheduledVisit {
                place,
                arrive,
                depart: t,
            });
            at = place;
        }
        // Return home.
        t += travel(at, 0, rng);
        home_since = t;
        at = 0;
    }
    let _ = at;
    // Final home visit runs to the end of the simulation.
    let end = i64::from(cfg.days) * SECS_PER_DAY;
    if home_since < end {
        visits.push(ScheduledVisit {
            place: 0,
            arrive: home_since,
            depart: end,
        });
    }
    visits
}

/// Renders the schedule into a recorded trace plus the ground-truth visit
/// log, on the home tangent plane `local` (`enu` as in [`gen_schedule`]).
fn record(
    cfg: &SynthConfig,
    local: &Frame,
    enu: &[(f64, f64)],
    places: &[Place],
    schedule: &[ScheduledVisit],
    rng: &mut StdRng,
) -> (Trace, Vec<TrueVisit>) {
    let mut pts: Vec<TracePoint> = Vec::new();
    let mut visits: Vec<TrueVisit> = Vec::new();
    let noise = cfg.gps_noise_m.get();
    let step = cfg.sample_interval_s.get();

    let emit = |pts: &mut Vec<TracePoint>, t: i64, x: f64, y: f64, rng: &mut StdRng| {
        let pos = local.to_latlon(
            Meters::new(x + normal(rng, 0.0, noise)),
            Meters::new(y + normal(rng, 0.0, noise)),
        );
        pts.push(TracePoint::new(Timestamp::from_secs(t), pos));
    };

    for (i, v) in schedule.iter().enumerate() {
        let (px, py) = enu[v.place];
        visits.push(TrueVisit {
            place: v.place,
            kind: places[v.place].kind,
            arrive: Timestamp::from_secs(v.arrive),
            depart: Timestamp::from_secs(v.depart),
        });
        // Dwell recording: from arrival until the recording window closes
        // (or departure, whichever is earlier). The departure fix itself is
        // emitted as the first point of the outgoing leg below.
        let dwell_end = (v.arrive + cfg.max_recorded_dwell_s.get()).min(v.depart - 1);
        let mut t = v.arrive;
        while t <= dwell_end {
            emit(&mut pts, t, px, py, rng);
            t += step;
        }
        // Movement leg to the next visit.
        if let Some(next) = schedule.get(i + 1) {
            let (qx, qy) = enu[next.place];
            let t0 = v.depart;
            let t1 = next.arrive;
            debug_assert!(t1 > t0, "travel time must be positive");
            let span = (t1 - t0) as f64;
            let mut t = t0;
            while t < t1 {
                let frac = (t - t0) as f64 / span;
                emit(&mut pts, t, px + (qx - px) * frac, py + (qy - py) * frac, rng);
                t += step;
            }
        }
    }
    (Trace::from_points(pts), visits)
}

#[cfg(test)]
mod tests {
    use super::*;
    use backwatch_geo::distance::haversine;

    fn cfg() -> SynthConfig {
        SynthConfig::small()
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generate_user(&cfg(), 1);
        let b = generate_user(&cfg(), 1);
        assert_eq!(a, b);
    }

    #[test]
    fn users_differ() {
        let a = generate_user(&cfg(), 0);
        let b = generate_user(&cfg(), 1);
        assert_ne!(a.trace, b.trace);
        assert_ne!(a.places[0].pos, b.places[0].pos);
    }

    #[test]
    fn place_zero_is_home() {
        let u = generate_user(&cfg(), 2);
        assert_eq!(u.places[0].kind, PlaceKind::Home);
        assert_eq!(u.places[0].id, 0);
        assert!(u.places.len() >= 3);
        for i in 0..3 {
            assert_eq!(generate_home(&cfg(), i), generate_user(&cfg(), i).places[0].pos);
        }
    }

    #[test]
    fn visits_are_chronological_and_positive() {
        let u = generate_user(&cfg(), 0);
        for w in u.true_visits.windows(2) {
            assert!(w[1].arrive >= w[0].depart, "visits overlap: {:?} then {:?}", w[0], w[1]);
        }
        for v in &u.true_visits {
            assert!(v.dwell_secs() > 0);
        }
    }

    #[test]
    fn trace_is_strictly_ordered() {
        let u = generate_user(&cfg(), 3);
        let pts = u.trace.points();
        assert!(pts.windows(2).all(|w| w[0].time < w[1].time));
        assert!(!u.trace.is_empty());
    }

    #[test]
    fn home_is_visited_every_simulated_day() {
        let u = generate_user(&cfg(), 0);
        let home_visits: Vec<&TrueVisit> = u.true_visits.iter().filter(|v| v.kind == PlaceKind::Home).collect();
        assert!(!home_visits.is_empty());
        // home dwells dominate: overnight stays are many hours
        let max_home = home_visits.iter().map(|v| v.dwell_secs()).max().unwrap();
        assert!(max_home > 8 * 3600, "longest home stay {max_home}s");
    }

    #[test]
    fn recorded_points_near_place_during_dwell() {
        let u = generate_user(&cfg(), 1);
        let v = u.true_visits.iter().find(|v| v.dwell_secs() > 600).unwrap();
        let place = u.places[v.place];
        let during: Vec<_> = u
            .trace
            .iter()
            .filter(|p| p.time >= v.arrive && p.time < v.depart + 0)
            .collect();
        assert!(!during.is_empty());
        // All dwell-window fixes are within GPS noise of the place.
        for p in during.iter().take(200) {
            let d = haversine(p.pos, place.pos);
            assert!(d < 50.0, "dwell fix {d} m from place");
        }
    }

    #[test]
    fn trace_covers_city_scale_extent() {
        let u = generate_user(&cfg(), 0);
        let bb = u.trace.bounding_box().unwrap();
        let diag = haversine(
            LatLon::new(bb.min_lat(), bb.min_lon()).unwrap(),
            LatLon::new(bb.max_lat(), bb.max_lon()).unwrap(),
        );
        assert!(diag > 1_000.0, "user never left a 1 km box: {diag}");
        assert!(diag < 60_000.0, "user roamed beyond the city: {diag}");
    }

    #[test]
    fn secondary_places_get_varied_visit_counts() {
        // With Zipf popularity, across a few users some secondary place
        // should be visited more than once while another is visited rarely.
        let mut any_repeat = false;
        for idx in 0..cfg().n_users {
            let u = generate_user(&cfg(), idx);
            let mut counts = std::collections::HashMap::new();
            for v in u.true_visits.iter().filter(|v| v.kind == PlaceKind::Secondary) {
                *counts.entry(v.place).or_insert(0u32) += 1;
            }
            if counts.values().any(|&c| c >= 2) {
                any_repeat = true;
            }
        }
        assert!(any_repeat, "Zipf popularity should produce repeat visits");
    }

    #[test]
    fn users_share_city_destinations() {
        // Two users drawn from the same city must overlap in at least one
        // shared place across a few samples (work or errand pool).
        let c = cfg();
        let all_places: Vec<Vec<(i64, i64)>> = (0..c.n_users)
            .map(|i| {
                generate_user(&c, i)
                    .places
                    .iter()
                    .filter(|p| p.kind != PlaceKind::Home)
                    .map(|p| ((p.pos.lat() * 1e6) as i64, (p.pos.lon() * 1e6) as i64))
                    .collect()
            })
            .collect();
        let mut shared = false;
        for i in 0..all_places.len() {
            for j in (i + 1)..all_places.len() {
                if all_places[i].iter().any(|p| all_places[j].contains(p)) {
                    shared = true;
                }
            }
        }
        assert!(shared, "shared pools should make users overlap in destinations");
    }

    #[test]
    fn population_has_configured_size() {
        let pop = generate_population(&cfg());
        assert_eq!(pop.len(), cfg().n_users as usize);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn user_index_out_of_range_panics() {
        let _ = generate_user(&cfg(), cfg().n_users);
    }

    #[test]
    fn paper_scale_config_is_valid() {
        SynthConfig::paper_scale().validate();
        assert_eq!(SynthConfig::paper_scale().n_users, 182);
    }
}
