//! Study-window selection.
//!
//! The Foursquare data is sparse, so the paper extracts the months with
//! the richest check-in records — April to June — and runs all
//! experiments inside that three-month window.

use crate::PrepError;
use crowdweb_dataset::{CheckIn, CivilDate, Dataset, DatasetStats};
use serde::{Deserialize, Serialize};
use std::fmt;

/// An inclusive range of local calendar dates the study restricts to.
///
/// # Examples
///
/// ```
/// use crowdweb_prep::StudyWindow;
/// use crowdweb_synth::SynthConfig;
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dataset = SynthConfig::small(1).generate()?;
/// // The paper's choice: richest consecutive 3 months.
/// let window = StudyWindow::richest_months(&dataset, 3)?;
/// assert!(window.day_count() >= 28);
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct StudyWindow {
    first: CivilDate,
    last: CivilDate,
}

impl StudyWindow {
    /// Creates a window from inclusive first and last dates.
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::InvalidConfig`] if `last < first`.
    pub fn new(first: CivilDate, last: CivilDate) -> Result<Self, PrepError> {
        if last < first {
            return Err(PrepError::InvalidConfig("window last date before first"));
        }
        Ok(StudyWindow { first, last })
    }

    /// The window covering every local date in the dataset.
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::EmptyDataset`] for an empty dataset.
    pub fn full(dataset: &Dataset) -> Result<Self, PrepError> {
        let (first, last) = dataset.local_date_range().ok_or(PrepError::EmptyDataset)?;
        Ok(StudyWindow { first, last })
    }

    /// The richest consecutive `months`-month window, as the paper
    /// selects April–June (first day of the first month through the last
    /// day of the last month).
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::EmptyDataset`] for an empty dataset and
    /// [`PrepError::InvalidConfig`] if `months == 0`.
    pub fn richest_months(dataset: &Dataset, months: usize) -> Result<Self, PrepError> {
        if months == 0 {
            return Err(PrepError::InvalidConfig("months must be positive"));
        }
        let stats = DatasetStats::compute(dataset);
        let (start, _) = stats
            .richest_window(months)
            .ok_or(PrepError::EmptyDataset)?;
        let first =
            CivilDate::new(start.year, start.month, 1).expect("month keys come from valid dates");
        let mut end_month = start;
        for _ in 1..months {
            end_month = end_month.succ();
        }
        let last_day = crowdweb_dataset::time::days_in_month(end_month.year, end_month.month);
        let last = CivilDate::new(end_month.year, end_month.month, last_day)
            .expect("last day of a month is valid");
        StudyWindow::new(first, last)
    }

    /// First date (inclusive).
    pub fn first(&self) -> CivilDate {
        self.first
    }

    /// Last date (inclusive).
    pub fn last(&self) -> CivilDate {
        self.last
    }

    /// Number of days in the window.
    pub fn day_count(&self) -> u32 {
        (self.first.days_until(self.last) + 1) as u32
    }

    /// Whether a date falls inside the window.
    pub fn contains(&self, date: CivilDate) -> bool {
        self.first <= date && date <= self.last
    }

    /// Whether a check-in's *local* date falls inside the window.
    pub fn contains_checkin(&self, checkin: &CheckIn) -> bool {
        self.contains(checkin.local_date())
    }

    /// Iterator over every date in the window.
    pub fn iter(&self) -> impl Iterator<Item = CivilDate> {
        let first = self.first.to_epoch_days();
        let last = self.last.to_epoch_days();
        (first..=last).map(CivilDate::from_epoch_days)
    }
}

impl fmt::Display for StudyWindow {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}..={}", self.first, self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_synth::SynthConfig;

    fn date(y: i32, m: u8, d: u8) -> CivilDate {
        CivilDate::new(y, m, d).unwrap()
    }

    #[test]
    fn new_rejects_reversed() {
        assert!(StudyWindow::new(date(2012, 6, 1), date(2012, 4, 1)).is_err());
    }

    #[test]
    fn day_count_and_contains() {
        let w = StudyWindow::new(date(2012, 4, 1), date(2012, 6, 30)).unwrap();
        assert_eq!(w.day_count(), 91);
        assert!(w.contains(date(2012, 5, 15)));
        assert!(!w.contains(date(2012, 7, 1)));
        assert!(!w.contains(date(2012, 3, 31)));
    }

    #[test]
    fn iter_covers_every_day() {
        let w = StudyWindow::new(date(2012, 4, 28), date(2012, 5, 2)).unwrap();
        let days: Vec<CivilDate> = w.iter().collect();
        assert_eq!(days.len(), 5);
        assert_eq!(days[0], date(2012, 4, 28));
        assert_eq!(days[4], date(2012, 5, 2));
    }

    #[test]
    fn full_window_spans_dataset() {
        let d = SynthConfig::small(1).generate().unwrap();
        let w = StudyWindow::full(&d).unwrap();
        for c in d.checkins() {
            assert!(w.contains_checkin(c));
        }
    }

    #[test]
    fn richest_months_is_calendar_aligned() {
        let d = SynthConfig::small(2)
            .days(330)
            .engagement_decay(0.85)
            .generate()
            .unwrap();
        let w = StudyWindow::richest_months(&d, 3).unwrap();
        assert_eq!(w.first().day(), 1);
        // With decaying engagement from an April start, the richest
        // 3-month window is April-June.
        assert_eq!((w.first().year(), w.first().month()), (2012, 4));
        assert_eq!((w.last().month(), w.last().day()), (6, 30));
        assert_eq!(w.day_count(), 91);
    }

    #[test]
    fn richest_months_rejects_zero() {
        let d = SynthConfig::small(3).generate().unwrap();
        assert!(StudyWindow::richest_months(&d, 0).is_err());
    }

    #[test]
    fn empty_dataset_errors() {
        let d = Dataset::builder().build().unwrap();
        assert_eq!(StudyWindow::full(&d), Err(PrepError::EmptyDataset));
        assert_eq!(
            StudyWindow::richest_months(&d, 3),
            Err(PrepError::EmptyDataset)
        );
    }

    #[test]
    fn display_shows_range() {
        let w = StudyWindow::new(date(2012, 4, 1), date(2012, 6, 30)).unwrap();
        assert_eq!(w.to_string(), "2012-04-01..=2012-06-30");
    }
}
