//! Timestamps and timestamped location points.

use backwatch_geo::LatLon;
use std::fmt;
use std::ops::{Add, Sub};

/// A simulation timestamp in whole seconds.
///
/// The zero point is the start of the simulation (midnight of day 0); there
/// is no time-zone machinery. Negative values are permitted by the type but
/// never produced by the generators.
///
/// # Examples
///
/// ```
/// use backwatch_trace::Timestamp;
///
/// let t = Timestamp::from_day_time(2, 8, 30, 0);
/// assert_eq!(t.day(), 2);
/// assert_eq!(t.second_of_day(), 8 * 3600 + 30 * 60);
/// assert_eq!((t + 90).as_secs() - t.as_secs(), 90);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

/// Seconds per day.
pub const SECS_PER_DAY: i64 = 86_400;

impl Timestamp {
    /// Creates a timestamp from raw seconds since simulation start.
    #[must_use]
    pub fn from_secs(secs: i64) -> Self {
        Self(secs)
    }

    /// Creates a timestamp from a day index and an hour/minute/second of
    /// that day.
    ///
    /// # Panics
    ///
    /// Panics if `hour >= 24`, `min >= 60`, or `sec >= 60`.
    #[must_use]
    pub fn from_day_time(day: i64, hour: i64, min: i64, sec: i64) -> Self {
        assert!((0..24).contains(&hour), "hour out of range: {hour}");
        assert!((0..60).contains(&min), "minute out of range: {min}");
        assert!((0..60).contains(&sec), "second out of range: {sec}");
        Self(day * SECS_PER_DAY + hour * 3600 + min * 60 + sec)
    }

    /// Raw seconds since simulation start.
    #[must_use]
    pub fn as_secs(&self) -> i64 {
        self.0
    }

    /// The day index this timestamp falls in.
    #[must_use]
    pub fn day(&self) -> i64 {
        self.0.div_euclid(SECS_PER_DAY)
    }

    /// Seconds elapsed since midnight of this timestamp's day.
    #[must_use]
    pub fn second_of_day(&self) -> i64 {
        self.0.rem_euclid(SECS_PER_DAY)
    }
}

impl Add<i64> for Timestamp {
    type Output = Timestamp;

    fn add(self, secs: i64) -> Timestamp {
        Timestamp(self.0 + secs)
    }
}

impl Sub<i64> for Timestamp {
    type Output = Timestamp;

    fn sub(self, secs: i64) -> Timestamp {
        Timestamp(self.0 - secs)
    }
}

impl Sub<Timestamp> for Timestamp {
    type Output = i64;

    fn sub(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = self.second_of_day();
        write!(f, "d{} {:02}:{:02}:{:02}", self.day(), s / 3600, (s % 3600) / 60, s % 60)
    }
}

/// A single recorded location fix: a coordinate and the moment it was
/// observed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TracePoint {
    /// When the fix was recorded.
    pub time: Timestamp,
    /// Where the device was.
    pub pos: LatLon,
}

impl TracePoint {
    /// Creates a point.
    #[must_use]
    pub fn new(time: Timestamp, pos: LatLon) -> Self {
        Self { time, pos }
    }
}

impl fmt::Display for TracePoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.pos, self.time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn day_time_round_trip() {
        let t = Timestamp::from_day_time(3, 17, 45, 12);
        assert_eq!(t.day(), 3);
        assert_eq!(t.second_of_day(), 17 * 3600 + 45 * 60 + 12);
    }

    #[test]
    fn arithmetic() {
        let t = Timestamp::from_secs(100);
        assert_eq!((t + 50).as_secs(), 150);
        assert_eq!((t - 30).as_secs(), 70);
        assert_eq!(t + 50 - t, 50);
    }

    #[test]
    fn negative_seconds_day_is_floor() {
        let t = Timestamp::from_secs(-1);
        assert_eq!(t.day(), -1);
        assert_eq!(t.second_of_day(), SECS_PER_DAY - 1);
    }

    #[test]
    fn display_format() {
        let t = Timestamp::from_day_time(1, 9, 5, 3);
        assert_eq!(t.to_string(), "d1 09:05:03");
    }

    #[test]
    #[should_panic(expected = "hour out of range")]
    fn bad_hour_panics() {
        let _ = Timestamp::from_day_time(0, 24, 0, 0);
    }

    #[test]
    fn ordering_follows_seconds() {
        assert!(Timestamp::from_secs(5) < Timestamp::from_secs(6));
    }
}
