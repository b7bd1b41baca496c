//! The indexed dataset container.

use crate::time::days_in_month;
use crate::{
    CheckIn, CivilDate, DatasetError, MonthKey, Taxonomy, Timestamp, UserId, Venue, VenueId,
};
use serde::{Deserialize, Serialize};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, HashMap};
use std::hash::{Hash, Hasher};
use std::ops::Range;

/// Incremental constructor for a [`Dataset`] (C-BUILDER).
///
/// Venues and check-ins can be added in any order; [`DatasetBuilder::build`]
/// validates referential integrity, sorts, and indexes.
#[derive(Debug, Default)]
pub struct DatasetBuilder {
    taxonomy: Taxonomy,
    venues: Vec<Venue>,
    checkins: Vec<CheckIn>,
}

impl DatasetBuilder {
    /// Creates a builder with the built-in Foursquare taxonomy.
    pub fn new() -> DatasetBuilder {
        DatasetBuilder {
            taxonomy: Taxonomy::foursquare(),
            venues: Vec::new(),
            checkins: Vec::new(),
        }
    }

    /// Replaces the taxonomy (builder-style).
    pub fn taxonomy(&mut self, taxonomy: Taxonomy) -> &mut DatasetBuilder {
        self.taxonomy = taxonomy;
        self
    }

    /// Mutable access to the taxonomy, e.g. to register categories while
    /// loading.
    pub fn taxonomy_mut(&mut self) -> &mut Taxonomy {
        &mut self.taxonomy
    }

    /// Adds a venue.
    pub fn add_venue(&mut self, venue: Venue) -> &mut DatasetBuilder {
        self.venues.push(venue);
        self
    }

    /// Adds a check-in record.
    pub fn add_checkin(&mut self, checkin: CheckIn) -> &mut DatasetBuilder {
        self.checkins.push(checkin);
        self
    }

    /// Number of check-ins added so far.
    pub fn checkin_count(&self) -> usize {
        self.checkins.len()
    }

    /// Validates, sorts, indexes, and produces the immutable [`Dataset`].
    ///
    /// # Errors
    ///
    /// - [`DatasetError::DuplicateVenue`] if two venues share an id.
    /// - [`DatasetError::UnknownVenue`] if a check-in references a venue
    ///   that was never added.
    pub fn build(self) -> Result<Dataset, DatasetError> {
        let venue_index = VenueIndex::of(&self.venues)?;
        for c in &self.checkins {
            if venue_index.position(c.venue()).is_none() {
                return Err(DatasetError::UnknownVenue {
                    venue: c.venue(),
                    user: c.user(),
                });
            }
        }
        let mut checkins = self.checkins;
        checkins.sort_by_key(|c| (c.user(), c.time()));
        let user_ranges = user_ranges(&checkins);
        let calendar = LocalCalendar::of(&checkins);
        Ok(Dataset {
            taxonomy: self.taxonomy,
            venues: self.venues,
            venue_index,
            checkins,
            user_ranges,
            calendar,
        })
    }
}

/// Contiguous per-user ranges over check-ins sorted by `(user, time)`.
fn user_ranges(checkins: &[CheckIn]) -> Vec<(UserId, Range<usize>)> {
    let mut ranges = Vec::new();
    let mut start = 0usize;
    for i in 1..=checkins.len() {
        if i == checkins.len() || checkins[i].user() != checkins[start].user() {
            ranges.push((checkins[start].user(), start..i));
            start = i;
        }
    }
    ranges
}

/// The venue lookups a [`Dataset`] derives from its venue list: position
/// by id, position by name hash (what [`Dataset::merge_records`]
/// resolves venue keys through), and the next unused raw id.
#[derive(Debug, Clone, Default)]
pub(crate) struct VenueIndex {
    by_id: HashMap<VenueId, usize>,
    /// Position of the *last* venue whose name has this hash. Two names
    /// may share a hash; [`VenueIndex::resolve`] checks the name and
    /// falls back to a scan, so a collision costs time, never a wrong id.
    by_key: HashMap<u64, usize>,
    next_raw: u32,
}

impl VenueIndex {
    fn of(venues: &[Venue]) -> Result<VenueIndex, DatasetError> {
        let mut index = VenueIndex {
            by_id: HashMap::with_capacity(venues.len()),
            by_key: HashMap::with_capacity(venues.len()),
            next_raw: 0,
        };
        for (position, venue) in venues.iter().enumerate() {
            if !index.insert(venue, position) {
                return Err(DatasetError::DuplicateVenue(venue.id()));
            }
        }
        Ok(index)
    }

    /// Indexes the venue at `position`, the end of the venue list so
    /// far. Returns `false` if its id was already indexed (the new
    /// position wins).
    pub(crate) fn insert(&mut self, venue: &Venue, position: usize) -> bool {
        self.by_key.insert(key_hash(venue.name()), position);
        self.next_raw = self.next_raw.max(venue.id().raw().saturating_add(1));
        self.by_id.insert(venue.id(), position).is_none()
    }

    fn position(&self, id: VenueId) -> Option<usize> {
        self.by_id.get(&id).copied()
    }

    /// The id of the last venue in `venues` named `key`, if any.
    pub(crate) fn resolve(&self, venues: &[Venue], key: &str) -> Option<VenueId> {
        let &position = self.by_key.get(&key_hash(key))?;
        if venues[position].name() == key {
            return Some(venues[position].id());
        }
        venues.iter().rev().find(|v| v.name() == key).map(Venue::id)
    }

    /// The raw id the next new venue receives.
    pub(crate) fn next_raw(&self) -> u32 {
        self.next_raw
    }
}

fn key_hash(key: &str) -> u64 {
    let mut hasher = DefaultHasher::new();
    key.hash(&mut hasher);
    hasher.finish()
}

/// Check-in counts per local calendar month and the first and last
/// local day, kept beside the check-ins so window selection and the
/// statistics read them instead of walking every record.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct LocalCalendar {
    months: BTreeMap<MonthKey, usize>,
    /// First and last local day, in days since 1970-01-01.
    days: Option<(i64, i64)>,
}

impl LocalCalendar {
    fn of(checkins: &[CheckIn]) -> LocalCalendar {
        let mut calendar = LocalCalendar::default();
        calendar.add(checkins);
        calendar
    }

    /// Counts `checkins`. A run of check-ins in one month touches the
    /// month map once, so sorted input costs one date conversion per
    /// run instead of one per record.
    pub(crate) fn add(&mut self, checkins: &[CheckIn]) {
        // (month, its first and last day, records counted but not yet added)
        let mut run: Option<(MonthKey, i64, i64, usize)> = None;
        for c in checkins {
            let day = (c.time().unix_seconds() + i64::from(c.tz_offset_minutes()) * 60)
                .div_euclid(86_400);
            self.days = Some(match self.days {
                Some((lo, hi)) => (lo.min(day), hi.max(day)),
                None => (day, day),
            });
            match &mut run {
                Some((_, first, last, n)) if (*first..=*last).contains(&day) => *n += 1,
                _ => {
                    if let Some((month, _, _, n)) = run {
                        *self.months.entry(month).or_insert(0) += n;
                    }
                    let date = CivilDate::from_epoch_days(day);
                    let first = day - i64::from(date.day()) + 1;
                    let last = first + i64::from(days_in_month(date.year(), date.month())) - 1;
                    let month = MonthKey {
                        year: date.year(),
                        month: date.month(),
                    };
                    run = Some((month, first, last, 1));
                }
            }
        }
        if let Some((month, _, _, n)) = run {
            *self.months.entry(month).or_insert(0) += n;
        }
    }
}

/// An immutable, indexed GTSM dataset: taxonomy, venues, and check-ins
/// sorted by `(user, time)` with per-user ranges.
///
/// # Examples
///
/// See the [crate-level example](crate).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dataset {
    pub(crate) taxonomy: Taxonomy,
    pub(crate) venues: Vec<Venue>,
    #[serde(skip)]
    pub(crate) venue_index: VenueIndex,
    pub(crate) checkins: Vec<CheckIn>,
    #[serde(skip)]
    pub(crate) user_ranges: Vec<(UserId, Range<usize>)>,
    #[serde(skip)]
    pub(crate) calendar: LocalCalendar,
}

impl Dataset {
    /// Starts building a dataset.
    pub fn builder() -> DatasetBuilder {
        DatasetBuilder::new()
    }

    /// The venue category taxonomy.
    pub fn taxonomy(&self) -> &Taxonomy {
        &self.taxonomy
    }

    /// Total number of check-ins.
    pub fn len(&self) -> usize {
        self.checkins.len()
    }

    /// Whether the dataset holds no check-ins.
    pub fn is_empty(&self) -> bool {
        self.checkins.is_empty()
    }

    /// Number of distinct users.
    pub fn user_count(&self) -> usize {
        self.user_ranges.len()
    }

    /// Number of venues.
    pub fn venue_count(&self) -> usize {
        self.venues.len()
    }

    /// All check-ins, sorted by `(user, time)`.
    pub fn checkins(&self) -> &[CheckIn] {
        &self.checkins
    }

    /// All venues, in insertion order.
    pub fn venues(&self) -> &[Venue] {
        &self.venues
    }

    /// The venue with the given id, if present.
    pub fn venue(&self, id: VenueId) -> Option<&Venue> {
        self.venue_index.position(id).map(|i| &self.venues[i])
    }

    /// Iterator over distinct user ids in ascending order.
    pub fn user_ids(&self) -> impl Iterator<Item = UserId> + '_ {
        self.user_ranges.iter().map(|(u, _)| *u)
    }

    /// The check-ins of one user, sorted by time (empty slice for an
    /// unknown user).
    pub fn checkins_of(&self, user: UserId) -> &[CheckIn] {
        match self.user_ranges.binary_search_by_key(&user, |(u, _)| *u) {
            Ok(i) => &self.checkins[self.user_ranges[i].1.clone()],
            Err(_) => &[],
        }
    }

    /// Earliest and latest check-in instants, or `None` if empty.
    pub fn time_range(&self) -> Option<(Timestamp, Timestamp)> {
        let min = self.checkins.iter().map(CheckIn::time).min()?;
        let max = self.checkins.iter().map(CheckIn::time).max()?;
        Some((min, max))
    }

    /// Check-in counts per local calendar month, kept current by
    /// [`DatasetBuilder::build`] and [`Dataset::merge_records`] (no walk
    /// over the check-ins); public through
    /// [`DatasetStats::monthly_counts`](crate::DatasetStats::monthly_counts).
    pub(crate) fn monthly_counts(&self) -> &BTreeMap<MonthKey, usize> {
        &self.calendar.months
    }

    /// The first and last local calendar date with a check-in, or
    /// `None` if empty. Kept current by [`DatasetBuilder::build`] and
    /// [`Dataset::merge_records`], so reading it walks no check-in.
    pub fn local_date_range(&self) -> Option<(CivilDate, CivilDate)> {
        self.calendar.days.map(|(lo, hi)| {
            (
                CivilDate::from_epoch_days(lo),
                CivilDate::from_epoch_days(hi),
            )
        })
    }

    /// Rebuilds the skipped indices after `serde` deserialization.
    ///
    /// `Dataset` serializes only its data (venues, check-ins, taxonomy);
    /// call this on the deserialized value before using lookups.
    pub fn rebuild_index(&mut self) {
        self.taxonomy.rebuild_index();
        self.venue_index = VenueIndex::default();
        for (position, venue) in self.venues.iter().enumerate() {
            self.venue_index.insert(venue, position);
        }
        self.checkins.sort_by_key(|c| (c.user(), c.time()));
        self.user_ranges = user_ranges(&self.checkins);
        self.calendar = LocalCalendar::of(&self.checkins);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CategoryId;
    use crowdweb_geo::LatLon;

    fn venue(id: u32) -> Venue {
        Venue::new(
            VenueId::new(id),
            &format!("venue {id}"),
            LatLon::new(40.7 + f64::from(id) * 0.001, -74.0).unwrap(),
            CategoryId::new(0),
        )
    }

    fn checkin(user: u32, venue_id: u32, secs: i64) -> CheckIn {
        CheckIn::new(
            UserId::new(user),
            VenueId::new(venue_id),
            Timestamp::from_unix_seconds(secs),
            -240,
        )
    }

    fn sample() -> Dataset {
        let mut b = Dataset::builder();
        b.add_venue(venue(1)).add_venue(venue(2));
        // Deliberately out of order to exercise sorting.
        b.add_checkin(checkin(2, 1, 300));
        b.add_checkin(checkin(1, 2, 200));
        b.add_checkin(checkin(1, 1, 100));
        b.add_checkin(checkin(2, 2, 50));
        b.build().unwrap()
    }

    #[test]
    fn build_sorts_by_user_then_time() {
        let d = sample();
        let order: Vec<(u32, i64)> = d
            .checkins()
            .iter()
            .map(|c| (c.user().raw(), c.time().unix_seconds()))
            .collect();
        assert_eq!(order, vec![(1, 100), (1, 200), (2, 50), (2, 300)]);
    }

    #[test]
    fn per_user_slices() {
        let d = sample();
        assert_eq!(d.checkins_of(UserId::new(1)).len(), 2);
        assert_eq!(d.checkins_of(UserId::new(2)).len(), 2);
        assert!(d.checkins_of(UserId::new(99)).is_empty());
    }

    #[test]
    fn user_ids_ascending() {
        let d = sample();
        let ids: Vec<u32> = d.user_ids().map(UserId::raw).collect();
        assert_eq!(ids, vec![1, 2]);
        assert_eq!(d.user_count(), 2);
    }

    #[test]
    fn venue_lookup() {
        let d = sample();
        assert_eq!(d.venue(VenueId::new(1)).unwrap().name(), "venue 1");
        assert!(d.venue(VenueId::new(3)).is_none());
        assert_eq!(d.venue_count(), 2);
    }

    #[test]
    fn build_rejects_dangling_venue() {
        let mut b = Dataset::builder();
        b.add_checkin(checkin(1, 42, 0));
        assert!(matches!(b.build(), Err(DatasetError::UnknownVenue { .. })));
    }

    #[test]
    fn build_rejects_duplicate_venue() {
        let mut b = Dataset::builder();
        b.add_venue(venue(1)).add_venue(venue(1));
        assert!(matches!(b.build(), Err(DatasetError::DuplicateVenue(_))));
    }

    #[test]
    fn time_range_spans_min_max() {
        let d = sample();
        let (lo, hi) = d.time_range().unwrap();
        assert_eq!(lo.unix_seconds(), 50);
        assert_eq!(hi.unix_seconds(), 300);
    }

    #[test]
    fn empty_dataset() {
        let d = Dataset::builder().build().unwrap();
        assert!(d.is_empty());
        assert_eq!(d.time_range(), None);
        assert_eq!(d.user_count(), 0);
    }

    #[test]
    fn rebuild_index_restores_lookups() {
        let d = sample();
        let mut copy = Dataset {
            taxonomy: d.taxonomy.clone(),
            venues: d.venues.clone(),
            venue_index: VenueIndex::default(),
            checkins: d.checkins.clone(),
            user_ranges: Vec::new(),
            calendar: LocalCalendar::default(),
        };
        assert!(copy.venue(VenueId::new(1)).is_none());
        copy.rebuild_index();
        assert!(copy.venue(VenueId::new(1)).is_some());
        assert_eq!(copy.checkins_of(UserId::new(1)).len(), 2);
        assert_eq!(copy.calendar, d.calendar);
    }
}
