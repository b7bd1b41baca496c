//! Dataset statistics — the numbers Section I.1 of the paper reports for
//! the Foursquare NYC data: total check-ins, user count, mean/median
//! records per user, sparsity, and the richest three-month window.

use crate::{CheckIn, Dataset};
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// A calendar month (`year`, `month`) used as an aggregation key.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct MonthKey {
    /// Year.
    pub year: i32,
    /// Month, 1–12.
    pub month: u8,
}

impl MonthKey {
    /// The month containing a check-in's *local* date.
    pub fn of(checkin: &CheckIn) -> MonthKey {
        let d = checkin.local_date();
        MonthKey {
            year: d.year(),
            month: d.month(),
        }
    }

    /// The next calendar month.
    pub fn succ(self) -> MonthKey {
        if self.month == 12 {
            MonthKey {
                year: self.year + 1,
                month: 1,
            }
        } else {
            MonthKey {
                year: self.year,
                month: self.month + 1,
            }
        }
    }

    /// English month name abbreviation.
    pub fn abbrev(self) -> &'static str {
        const NAMES: [&str; 12] = [
            "Jan", "Feb", "Mar", "Apr", "May", "Jun", "Jul", "Aug", "Sep", "Oct", "Nov", "Dec",
        ];
        NAMES[usize::from(self.month.clamp(1, 12)) - 1]
    }
}

impl fmt::Display for MonthKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {}", self.abbrev(), self.year)
    }
}

/// Aggregate statistics over a [`Dataset`].
///
/// # Examples
///
/// ```
/// use crowdweb_dataset::{DatasetStats, Dataset};
///
/// let stats = DatasetStats::compute(&Dataset::builder().build().unwrap());
/// assert_eq!(stats.total_checkins, 0);
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetStats {
    /// Total number of check-in records.
    pub total_checkins: usize,
    /// Number of distinct users.
    pub user_count: usize,
    /// Number of distinct venues.
    pub venue_count: usize,
    /// Mean records per user (0 for an empty dataset).
    pub mean_records_per_user: f64,
    /// Median records per user (0 for an empty dataset).
    pub median_records_per_user: f64,
    /// Number of calendar days spanned (local dates, inclusive).
    pub collection_days: i64,
    /// Mean records per user per day — the paper's sparsity measure
    /// ("less than one record per day").
    pub records_per_user_per_day: f64,
    /// Check-in counts per local calendar month.
    pub monthly_counts: BTreeMap<MonthKey, usize>,
}

impl DatasetStats {
    /// Computes statistics over a dataset in O(users): the monthly
    /// counts and the day span come from what the dataset keeps beside
    /// its check-ins (see [`Dataset::local_date_range`]), not from a
    /// walk over every check-in.
    pub fn compute(dataset: &Dataset) -> DatasetStats {
        let mut per_user: Vec<usize> = dataset
            .user_ranges
            .iter()
            .map(|(_, range)| range.len())
            .collect();
        per_user.sort_unstable();
        let days = dataset
            .local_date_range()
            .map_or(0, |(first, last)| first.days_until(last) + 1);
        DatasetStats::from_parts(dataset, &per_user, days, dataset.monthly_counts().clone())
    }

    /// The statistics from sorted per-user record counts, the day span
    /// and the monthly counts.
    fn from_parts(
        dataset: &Dataset,
        per_user: &[usize],
        days: i64,
        monthly_counts: BTreeMap<MonthKey, usize>,
    ) -> DatasetStats {
        let total = dataset.len();
        let users = dataset.user_count();
        let mean = if users == 0 {
            0.0
        } else {
            total as f64 / users as f64
        };
        let median = if per_user.is_empty() {
            0.0
        } else if per_user.len() % 2 == 1 {
            per_user[per_user.len() / 2] as f64
        } else {
            (per_user[per_user.len() / 2 - 1] + per_user[per_user.len() / 2]) as f64 / 2.0
        };
        let per_user_per_day = if users == 0 || days == 0 {
            0.0
        } else {
            mean / days as f64
        };
        DatasetStats {
            total_checkins: total,
            user_count: users,
            venue_count: dataset.venue_count(),
            mean_records_per_user: mean,
            median_records_per_user: median,
            collection_days: days,
            records_per_user_per_day: per_user_per_day,
            monthly_counts,
        }
    }

    /// Whether the dataset is sparse in the paper's sense: less than one
    /// record per user per day.
    pub fn is_sparse(&self) -> bool {
        self.records_per_user_per_day < 1.0
    }

    /// The consecutive `window_months`-month window with the most
    /// check-ins, returned as `(first_month, total_checkins_in_window)`.
    /// `None` if the dataset is empty or `window_months == 0`.
    ///
    /// The paper uses this to pick April–June as the richest three-month
    /// period.
    pub fn richest_window(&self, window_months: usize) -> Option<(MonthKey, usize)> {
        if window_months == 0 || self.monthly_counts.is_empty() {
            return None;
        }
        // Materialize the full consecutive month range (months with zero
        // check-ins count as zero).
        let first = *self.monthly_counts.keys().next()?;
        let last = *self.monthly_counts.keys().next_back()?;
        let mut months = Vec::new();
        let mut m = first;
        loop {
            months.push((m, self.monthly_counts.get(&m).copied().unwrap_or(0)));
            if m == last {
                break;
            }
            m = m.succ();
        }
        if months.len() < window_months {
            let total = months.iter().map(|(_, c)| c).sum();
            return Some((first, total));
        }
        months
            .windows(window_months)
            .map(|w| (w[0].0, w.iter().map(|(_, c)| c).sum::<usize>()))
            .max_by(|a, b| a.1.cmp(&b.1).then_with(|| b.0.cmp(&a.0)))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::{CategoryId, Timestamp, UserId, Venue, VenueId};
    use crowdweb_geo::LatLon;

    /// The statistics as computed before the dataset kept its calendar:
    /// a walk over every check-in. The reference the kept counts must
    /// equal.
    pub(crate) fn compute_by_walk(dataset: &Dataset) -> DatasetStats {
        let mut per_user: Vec<usize> = dataset
            .user_ids()
            .map(|u| dataset.checkins_of(u).len())
            .collect();
        per_user.sort_unstable();
        let mut monthly: BTreeMap<MonthKey, usize> = BTreeMap::new();
        let mut min_day = i64::MAX;
        let mut max_day = i64::MIN;
        for c in dataset.checkins() {
            *monthly.entry(MonthKey::of(c)).or_insert(0) += 1;
            let day = c.local_date().to_epoch_days();
            min_day = min_day.min(day);
            max_day = max_day.max(day);
        }
        let days = if dataset.is_empty() {
            0
        } else {
            max_day - min_day + 1
        };
        DatasetStats::from_parts(dataset, &per_user, days, monthly)
    }

    fn dataset_with(checkin_times: &[(u32, i64)]) -> Dataset {
        let mut b = Dataset::builder();
        b.add_venue(Venue::new(
            VenueId::new(0),
            "v",
            LatLon::new(40.7, -74.0).unwrap(),
            CategoryId::new(0),
        ));
        for &(user, secs) in checkin_times {
            b.add_checkin(CheckIn::new(
                UserId::new(user),
                VenueId::new(0),
                Timestamp::from_unix_seconds(secs),
                0,
            ));
        }
        b.build().unwrap()
    }

    fn secs(y: i32, m: u8, d: u8) -> i64 {
        Timestamp::from_civil(y, m, d, 12, 0, 0)
            .unwrap()
            .unix_seconds()
    }

    #[test]
    fn kept_counts_equal_a_walk() {
        let d = dataset_with(&[
            (1, secs(2012, 4, 30)),
            (1, secs(2012, 5, 1)),
            (2, secs(2012, 7, 15)),
            (3, secs(2013, 1, 2)),
        ]);
        assert_eq!(DatasetStats::compute(&d), compute_by_walk(&d));
        let empty = Dataset::builder().build().unwrap();
        assert_eq!(DatasetStats::compute(&empty), compute_by_walk(&empty));
    }

    #[test]
    fn empty_dataset_stats_are_zero() {
        let s = DatasetStats::compute(&Dataset::builder().build().unwrap());
        assert_eq!(s.total_checkins, 0);
        assert_eq!(s.mean_records_per_user, 0.0);
        assert_eq!(s.median_records_per_user, 0.0);
        assert_eq!(s.collection_days, 0);
        assert_eq!(s.richest_window(3), None);
    }

    #[test]
    fn mean_and_median_per_user() {
        // User 1: 3 records, user 2: 1 record.
        let d = dataset_with(&[
            (1, secs(2012, 4, 1)),
            (1, secs(2012, 4, 2)),
            (1, secs(2012, 4, 3)),
            (2, secs(2012, 4, 1)),
        ]);
        let s = DatasetStats::compute(&d);
        assert_eq!(s.total_checkins, 4);
        assert_eq!(s.user_count, 2);
        assert_eq!(s.mean_records_per_user, 2.0);
        assert_eq!(s.median_records_per_user, 2.0); // (1+3)/2
    }

    #[test]
    fn median_odd_count() {
        let d = dataset_with(&[
            (1, secs(2012, 4, 1)),
            (2, secs(2012, 4, 1)),
            (2, secs(2012, 4, 2)),
            (3, secs(2012, 4, 1)),
            (3, secs(2012, 4, 2)),
            (3, secs(2012, 4, 3)),
        ]);
        let s = DatasetStats::compute(&d);
        assert_eq!(s.median_records_per_user, 2.0);
    }

    #[test]
    fn collection_days_inclusive() {
        let d = dataset_with(&[(1, secs(2012, 4, 1)), (1, secs(2012, 4, 10))]);
        let s = DatasetStats::compute(&d);
        assert_eq!(s.collection_days, 10);
    }

    #[test]
    fn sparsity_flag() {
        // 2 records over 10 days: 0.2/day — sparse.
        let d = dataset_with(&[(1, secs(2012, 4, 1)), (1, secs(2012, 4, 10))]);
        assert!(DatasetStats::compute(&d).is_sparse());
        // 3 records in one day — dense.
        let dense = dataset_with(&[
            (1, secs(2012, 4, 1)),
            (1, secs(2012, 4, 1) + 60),
            (1, secs(2012, 4, 1) + 120),
        ]);
        assert!(!DatasetStats::compute(&dense).is_sparse());
    }

    #[test]
    fn monthly_counts_by_local_month() {
        let d = dataset_with(&[
            (1, secs(2012, 4, 1)),
            (1, secs(2012, 4, 2)),
            (1, secs(2012, 5, 1)),
        ]);
        let s = DatasetStats::compute(&d);
        assert_eq!(
            s.monthly_counts[&MonthKey {
                year: 2012,
                month: 4
            }],
            2
        );
        assert_eq!(
            s.monthly_counts[&MonthKey {
                year: 2012,
                month: 5
            }],
            1
        );
    }

    #[test]
    fn richest_window_finds_peak() {
        // Apr=5, May=1, Jun=4, Jul=0, Aug=1: best 3-month window Apr-Jun=10.
        let mut times = Vec::new();
        for i in 0..5 {
            times.push((1, secs(2012, 4, i + 1)));
        }
        times.push((1, secs(2012, 5, 1)));
        for i in 0..4 {
            times.push((1, secs(2012, 6, i + 1)));
        }
        times.push((1, secs(2012, 8, 1)));
        let s = DatasetStats::compute(&dataset_with(&times));
        let (start, count) = s.richest_window(3).unwrap();
        assert_eq!(
            start,
            MonthKey {
                year: 2012,
                month: 4
            }
        );
        assert_eq!(count, 10);
    }

    #[test]
    fn richest_window_handles_gap_months() {
        // Jan and Dec only: intermediate months are zero-filled.
        let d = dataset_with(&[(1, secs(2012, 1, 1)), (1, secs(2012, 12, 1))]);
        let s = DatasetStats::compute(&d);
        let (_, count) = s.richest_window(3).unwrap();
        assert_eq!(count, 1);
    }

    #[test]
    fn richest_window_shorter_dataset_than_window() {
        let d = dataset_with(&[(1, secs(2012, 4, 1)), (1, secs(2012, 4, 2))]);
        let s = DatasetStats::compute(&d);
        let (start, count) = s.richest_window(3).unwrap();
        assert_eq!(
            start,
            MonthKey {
                year: 2012,
                month: 4
            }
        );
        assert_eq!(count, 2);
    }

    #[test]
    fn month_key_succ_wraps_year() {
        let dec = MonthKey {
            year: 2012,
            month: 12,
        };
        assert_eq!(
            dec.succ(),
            MonthKey {
                year: 2013,
                month: 1
            }
        );
        assert_eq!(dec.to_string(), "Dec 2012");
    }
}
