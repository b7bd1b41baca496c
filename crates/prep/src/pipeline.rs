//! The one-call preprocessing pipeline.

use crate::seqdb::build_user_row;
use crate::{
    ActivityFilter, LabelScheme, Labeler, PrepError, SequenceDatabase, StudyWindow, TimeSlotting,
};
use crowdweb_dataset::{Dataset, UserId};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// How the study window is chosen.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum WindowChoice {
    /// The richest consecutive three months (the paper's choice).
    #[default]
    RichestThreeMonths,
    /// The richest consecutive `n` months.
    RichestMonths(usize),
    /// The full dataset span.
    Full,
}

/// Configurable preprocessing pipeline (C-BUILDER): window selection →
/// activity filtering → discretization → labeling → sequence database.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Preprocessor {
    window: WindowChoice,
    min_active_days: usize,
    slotting: TimeSlotting,
    scheme: LabelScheme,
}

impl Default for Preprocessor {
    /// The paper's configuration: richest 3 months, >50 active days,
    /// 2-hour slots, coarse-kind labels.
    fn default() -> Self {
        Preprocessor {
            window: WindowChoice::RichestThreeMonths,
            min_active_days: 50,
            slotting: TimeSlotting::default(),
            scheme: LabelScheme::Kind,
        }
    }
}

impl Preprocessor {
    /// Creates the paper-default preprocessor.
    pub fn new() -> Preprocessor {
        Preprocessor::default()
    }

    /// Sets how the study window is chosen.
    pub fn window(mut self, choice: WindowChoice) -> Preprocessor {
        self.window = choice;
        self
    }

    /// Sets the active-day threshold (strictly-greater-than).
    pub fn min_active_days(mut self, days: usize) -> Preprocessor {
        self.min_active_days = days;
        self
    }

    /// The configured active-day threshold.
    pub fn configured_min_active_days(&self) -> usize {
        self.min_active_days
    }

    /// Sets the time-slot granularity.
    pub fn slotting(mut self, slotting: TimeSlotting) -> Preprocessor {
        self.slotting = slotting;
        self
    }

    /// Sets the place-label abstraction level.
    pub fn label_scheme(mut self, scheme: LabelScheme) -> Preprocessor {
        self.scheme = scheme;
        self
    }

    /// Runs the pipeline over a dataset.
    ///
    /// # Errors
    ///
    /// Returns [`PrepError::EmptyDataset`] when the dataset has no
    /// check-ins, plus any window/labeling errors.
    pub fn prepare(&self, dataset: &Dataset) -> Result<Prepared, PrepError> {
        let window = match self.window {
            WindowChoice::RichestThreeMonths => StudyWindow::richest_months(dataset, 3)?,
            WindowChoice::RichestMonths(n) => StudyWindow::richest_months(dataset, n)?,
            WindowChoice::Full => StudyWindow::full(dataset)?,
        };
        let filter = ActivityFilter::new(self.min_active_days).slotting(self.slotting);
        let users = filter.active_users(dataset, &window);
        let seqdb = SequenceDatabase::build(dataset, &users, &window, self.slotting, self.scheme)?;
        Ok(Prepared {
            window,
            users,
            slotting: self.slotting,
            scheme: self.scheme,
            seqdb,
        })
    }
    /// Incrementally re-prepares after appending check-ins for the
    /// `dirty` users to `dataset` (which must be the *merged* dataset —
    /// old plus new check-ins).
    ///
    /// Recomputes the study window on the merged dataset (from the
    /// month counts it keeps, so O(users), not O(check-ins)); if it
    /// moved — or the slotting/scheme no longer match `previous` — the
    /// incremental shortcut is unsound and [`PrepUpdate::FullRebuild`]
    /// is returned. Otherwise only dirty users are re-filtered and
    /// re-sequenced, and their rows are spliced into `previous`'s
    /// columnar database; every other user's columns are copied over
    /// without decoding. Because check-ins are append-only, a
    /// previously active user can never fall below the activity
    /// threshold, nor lose an item, under the same window, so the
    /// result is byte-identical to [`Preprocessor::prepare`] on the
    /// merged dataset.
    ///
    /// # Errors
    ///
    /// Propagates window-selection and labeling errors.
    pub fn update(
        &self,
        previous: &Prepared,
        dataset: &Dataset,
        dirty: &BTreeSet<UserId>,
    ) -> Result<PrepUpdate, PrepError> {
        let window = match self.window {
            WindowChoice::RichestThreeMonths => StudyWindow::richest_months(dataset, 3)?,
            WindowChoice::RichestMonths(n) => StudyWindow::richest_months(dataset, n)?,
            WindowChoice::Full => StudyWindow::full(dataset)?,
        };
        if window != previous.window
            || self.slotting != previous.slotting
            || self.scheme != previous.scheme
        {
            return Ok(PrepUpdate::FullRebuild);
        }
        let filter = ActivityFilter::new(self.min_active_days).slotting(self.slotting);
        let labeler = Labeler::new(dataset, self.scheme);
        let mut fresh = Vec::new();
        for &user in dirty {
            if filter.is_active(dataset, &window, user) {
                fresh.push(build_user_row(
                    dataset,
                    user,
                    &window,
                    self.slotting,
                    &labeler,
                )?);
            } else if previous.users.binary_search(&user).is_ok() {
                // An active user fell below the threshold, which
                // append-only check-ins cannot do: `previous` and the
                // merged dataset disagree, so fall back to a cold build.
                return Ok(PrepUpdate::FullRebuild);
            }
        }
        let Some(seqdb) = previous.seqdb.splice(&fresh) else {
            return Ok(PrepUpdate::FullRebuild);
        };
        Ok(PrepUpdate::Incremental(Box::new(Prepared {
            window,
            users: seqdb.user_ids().to_vec(),
            slotting: self.slotting,
            scheme: self.scheme,
            seqdb,
        })))
    }
}

/// Outcome of an incremental re-prepare attempt.
#[derive(Debug, Clone, PartialEq)]
pub enum PrepUpdate {
    /// The study window held; `Prepared` was rebuilt reusing every
    /// unchanged user's sequences.
    Incremental(Box<Prepared>),
    /// The merged dataset shifted the study window (or the configuration
    /// drifted from `previous`); the caller must run the full pipeline.
    FullRebuild,
}

/// The pipeline's output: the chosen window, the qualifying users, and
/// their sequence database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prepared {
    window: StudyWindow,
    users: Vec<UserId>,
    slotting: TimeSlotting,
    scheme: LabelScheme,
    seqdb: SequenceDatabase,
}

impl Prepared {
    /// The selected study window.
    pub fn window(&self) -> &StudyWindow {
        &self.window
    }

    /// Users passing the activity filter, ascending.
    pub fn users(&self) -> &[UserId] {
        &self.users
    }

    /// Number of qualifying users.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// The slotting used.
    pub fn slotting(&self) -> TimeSlotting {
        self.slotting
    }

    /// The label scheme used.
    pub fn scheme(&self) -> LabelScheme {
        self.scheme
    }

    /// The sequence database.
    pub fn seqdb(&self) -> &SequenceDatabase {
        &self.seqdb
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_synth::SynthConfig;

    #[test]
    fn paper_default_pipeline_runs() {
        let d = SynthConfig::small(13).generate().unwrap();
        let p = Preprocessor::new().min_active_days(15).prepare(&d).unwrap();
        assert!(p.user_count() > 0, "no users passed the filter");
        assert_eq!(p.seqdb().user_count(), p.user_count());
        assert_eq!(p.window().day_count(), 91);
    }

    #[test]
    fn stricter_filter_keeps_fewer_users() {
        let d = SynthConfig::small(13).generate().unwrap();
        let loose = Preprocessor::new().min_active_days(5).prepare(&d).unwrap();
        let strict = Preprocessor::new().min_active_days(60).prepare(&d).unwrap();
        assert!(strict.user_count() <= loose.user_count());
    }

    #[test]
    fn full_window_covers_all() {
        let d = SynthConfig::small(14).generate().unwrap();
        let p = Preprocessor::new()
            .window(WindowChoice::Full)
            .min_active_days(0)
            .prepare(&d)
            .unwrap();
        // Every user has at least one check-in, so min_active_days(0)
        // keeps everyone.
        assert_eq!(p.user_count(), d.user_count());
    }

    #[test]
    fn empty_dataset_errors() {
        let d = crowdweb_dataset::Dataset::builder().build().unwrap();
        assert_eq!(
            Preprocessor::new().prepare(&d),
            Err(PrepError::EmptyDataset)
        );
    }

    /// Merge records cloning `n` of `user`'s check-ins shifted by
    /// `shift_secs`, so the merged dataset stays inside the same study
    /// window but the user's sequences change.
    fn shifted_records(
        d: &Dataset,
        user: u32,
        shift_secs: i64,
        n: usize,
    ) -> Vec<crowdweb_dataset::MergeRecord> {
        d.checkins_of(UserId::new(user))
            .iter()
            .take(n)
            .map(|c| {
                let v = d.venue(c.venue()).unwrap();
                crowdweb_dataset::MergeRecord {
                    user: c.user(),
                    venue_key: v.name().to_owned(),
                    category: d.taxonomy().name_of(v.category()).unwrap().to_owned(),
                    location: v.location(),
                    tz_offset_minutes: c.tz_offset_minutes(),
                    time: crowdweb_dataset::Timestamp::from_unix_seconds(
                        c.time().unix_seconds() + shift_secs,
                    ),
                }
            })
            .collect()
    }

    #[test]
    fn incremental_update_matches_cold_prepare() {
        let d = SynthConfig::small(21).generate().unwrap();
        let pre = Preprocessor::new().min_active_days(15);
        let before = pre.prepare(&d).unwrap();
        let dirty_user = before.users()[0];
        // Shift by one hour: same days, possibly different slots.
        let records = shifted_records(&d, dirty_user.raw(), 3600, 40);
        let merged = d.merge_records(&records).unwrap();
        let dirty: BTreeSet<UserId> = records.iter().map(|r| r.user).collect();
        match pre.update(&before, &merged, &dirty).unwrap() {
            PrepUpdate::Incremental(inc) => {
                let cold = pre.prepare(&merged).unwrap();
                assert_eq!(
                    *inc, cold,
                    "incremental re-prepare diverged from cold build"
                );
            }
            PrepUpdate::FullRebuild => {
                panic!("one hour of shift must not move the study window")
            }
        }
    }

    #[test]
    fn window_shift_forces_full_rebuild() {
        use crowdweb_dataset::{CategoryId, CheckIn, MergeRecord, Timestamp, Venue, VenueId};
        use crowdweb_geo::LatLon;
        let mut b = crowdweb_dataset::Dataset::builder();
        b.add_venue(Venue::new(
            VenueId::new(0),
            "v0",
            LatLon::new(40.7, -74.0).unwrap(),
            CategoryId::new(0),
        ));
        for day in 1..=20u8 {
            b.add_checkin(CheckIn::new(
                UserId::new(1),
                VenueId::new(0),
                Timestamp::from_civil(2012, 4, day, 10, 0, 0).unwrap(),
                0,
            ));
        }
        let d = b.build().unwrap();
        let pre = Preprocessor::new().min_active_days(0);
        let before = pre.prepare(&d).unwrap();
        // A denser burst six months later drags the richest window away.
        let records: Vec<MergeRecord> = (0..60u32)
            .map(|i| MergeRecord {
                user: UserId::new(1),
                venue_key: "v0".to_owned(),
                category: "Office".to_owned(),
                location: LatLon::new(40.7, -74.0).unwrap(),
                tz_offset_minutes: 0,
                time: Timestamp::from_civil(2012, 10, 1 + (i % 28) as u8, 12, 0, 0).unwrap(),
            })
            .collect();
        let merged = d.merge_records(&records).unwrap();
        let dirty: BTreeSet<UserId> = [UserId::new(1)].into_iter().collect();
        assert_eq!(
            pre.update(&before, &merged, &dirty).unwrap(),
            PrepUpdate::FullRebuild
        );
    }

    #[test]
    fn config_drift_forces_full_rebuild() {
        let d = SynthConfig::small(23).generate().unwrap();
        let before = Preprocessor::new().min_active_days(15).prepare(&d).unwrap();
        let drifted = Preprocessor::new()
            .min_active_days(15)
            .slotting(TimeSlotting::new(1).unwrap());
        assert_eq!(
            drifted.update(&before, &d, &BTreeSet::new()).unwrap(),
            PrepUpdate::FullRebuild
        );
    }

    #[test]
    fn scheme_and_slotting_propagate() {
        let d = SynthConfig::small(15).generate().unwrap();
        let p = Preprocessor::new()
            .label_scheme(LabelScheme::Category)
            .slotting(TimeSlotting::new(1).unwrap())
            .min_active_days(10)
            .prepare(&d)
            .unwrap();
        assert_eq!(p.scheme(), LabelScheme::Category);
        assert_eq!(p.slotting().slot_hours(), 1);
    }
}
