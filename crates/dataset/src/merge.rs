//! Appending check-in batches to an immutable [`Dataset`].
//!
//! Live ingestion delivers check-ins as [`MergeRecord`]s: the same
//! information a TSV row carries, with venues identified by their
//! opaque string key. [`Dataset::merge_records`] resolves those keys
//! against the existing venue set (first occurrence wins, exactly like
//! the TSV reader), assigns dense ids to brand-new venues, and builds a
//! fresh immutable dataset.
//!
//! Determinism contract: merging a batch is equivalent to appending the
//! records' rows to the original TSV and re-reading it — new venues get
//! ids in record order starting after the current maximum, and the
//! resulting dataset is byte-identical whether the records arrive in
//! one batch or split across several (in the same overall order).

use crate::category::CategoryKind;
use crate::{CheckIn, Dataset, DatasetError, Timestamp, UserId, Venue, VenueId};
use crowdweb_geo::LatLon;
use serde::{Deserialize, Serialize};
use std::ops::Range;

/// One ingested check-in, with its venue identified by string key (the
/// TSV `venue_id` column). Category and location are only consulted
/// when the key introduces a venue the dataset has not seen.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MergeRecord {
    /// The user checking in.
    pub user: UserId,
    /// Opaque venue key (the venue "name" in TSV terms).
    pub venue_key: String,
    /// Category name for a new venue (interned into the taxonomy).
    pub category: String,
    /// Location for a new venue.
    pub location: LatLon,
    /// The user's UTC offset at check-in time, in minutes.
    pub tz_offset_minutes: i32,
    /// Check-in instant (UTC).
    pub time: Timestamp,
}

impl Dataset {
    /// Builds a new dataset containing every existing venue and
    /// check-in plus the given records, resolving venue keys by name.
    ///
    /// Existing venues keep their id, location, and category (a key
    /// resolves to the last venue with that name); new venues are
    /// assigned ids in record order, starting after the current maximum
    /// raw id, and their categories are interned into the taxonomy with
    /// a guessed coarse kind.
    ///
    /// Cost: the batch is resolved, indexed and sorted on its own, then
    /// run-merged into a copy of the check-in vector (on equal
    /// `(user, time)` keys the existing rows come first, then the batch
    /// in record order) — O(batch) plus that one copy, never a re-sort
    /// or re-index of the whole dataset. An empty batch is a clone.
    ///
    /// # Errors
    ///
    /// [`DatasetError::DuplicateVenue`] if the raw id space is exhausted
    /// (new ids saturate at `u32::MAX`).
    pub fn merge_records(&self, records: &[MergeRecord]) -> Result<Dataset, DatasetError> {
        if records.is_empty() {
            return Ok(self.clone());
        }
        let mut taxonomy = self.taxonomy.clone();
        // Room for every record to bring a new venue, so pushing one
        // never reallocates the copy.
        let mut venues = Vec::with_capacity(stable_capacity(self.venues.len() + records.len()));
        venues.extend_from_slice(&self.venues);
        let mut venue_index = self.venue_index.clone();
        let mut batch = Vec::with_capacity(records.len());
        for r in records {
            let vid = match venue_index.resolve(&venues, &r.venue_key) {
                Some(id) => id,
                None => {
                    let id = VenueId::new(venue_index.next_raw());
                    let cat = taxonomy.register(&r.category, CategoryKind::guess(&r.category));
                    let venue = Venue::new(id, &r.venue_key, r.location, cat);
                    if !venue_index.insert(&venue, venues.len()) {
                        return Err(DatasetError::DuplicateVenue(id));
                    }
                    venues.push(venue);
                    id
                }
            };
            batch.push(CheckIn::new(r.user, vid, r.time, r.tz_offset_minutes));
        }
        batch.sort_by_key(|c| (c.user(), c.time()));
        let mut calendar = self.calendar.clone();
        calendar.add(&batch);
        let (checkins, user_ranges) = merge_runs(&self.checkins, &self.user_ranges, &batch);
        Ok(Dataset {
            taxonomy,
            venues,
            venue_index,
            checkins,
            user_ranges,
            calendar,
        })
    }
}

/// `len` rounded up to a step of 1/32 of its power-of-two size class,
/// for at most ~3 % spare capacity. The per-epoch copies of the venue
/// list and the check-ins are sized with it, so successive epochs ask
/// the allocator for the same sizes and it can hand back the buffers
/// the last publish released. Exact sizes grow a little every epoch,
/// never fit the freed buffers and leave them behind as fragments: on
/// the benchmark's `read_ladder` workload an exactly sized venue list
/// raised the server's peak RSS by ~15 MB over the builder path this
/// merge replaced, whose doubling growth also lands on stable sizes.
/// Reusing the check-in buffer also halved the mean merge at paper
/// scale (2.7 to 1.3 ms), which otherwise faults in fresh pages.
fn stable_capacity(len: usize) -> usize {
    let step = (len.next_power_of_two() / 32).max(1);
    len.div_ceil(step) * step
}

/// Merges `batch` (sorted by `(user, time)`) into `old` (sorted, with
/// per-user `ranges`), old rows first on equal keys: the order a stable
/// sort of `old` followed by `batch` gives. Users the batch does not
/// touch are copied run by run.
fn merge_runs(
    old: &[CheckIn],
    ranges: &[(UserId, Range<usize>)],
    batch: &[CheckIn],
) -> (Vec<CheckIn>, Vec<(UserId, Range<usize>)>) {
    let mut out = Vec::with_capacity(stable_capacity(old.len() + batch.len()));
    let mut out_ranges = Vec::with_capacity(ranges.len() + batch.len());
    let mut b = 0;
    let mut old_users = ranges.iter().peekable();
    while b < batch.len() || old_users.peek().is_some() {
        let batch_user = batch.get(b).map(CheckIn::user);
        let start = out.len();
        match old_users.peek() {
            Some((user, range)) if batch_user.is_none_or(|u| *user <= u) => {
                let user = *user;
                let rows = &old[range.clone()];
                old_users.next();
                let end = b + batch[b..].iter().take_while(|c| c.user() == user).count();
                let mut i = 0;
                for new in &batch[b..end] {
                    while i < rows.len() && rows[i].time() <= new.time() {
                        out.push(rows[i]);
                        i += 1;
                    }
                    out.push(*new);
                }
                out.extend_from_slice(&rows[i..]);
                b = end;
                out_ranges.push((user, start..out.len()));
            }
            _ => {
                // A user the dataset has not seen before.
                let user = batch[b].user();
                let end = b + batch[b..].iter().take_while(|c| c.user() == user).count();
                out.extend_from_slice(&batch[b..end]);
                b = end;
                out_ranges.push((user, start..out.len()));
            }
        }
    }
    (out, out_ranges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::tests::compute_by_walk;
    use crate::{CategoryId, DatasetStats, MonthKey};
    use proptest::prelude::*;
    use std::collections::{BTreeMap, HashMap};

    /// The merge as it was before it became O(batch): copy every venue
    /// and check-in into a builder and let `build` re-index and re-sort
    /// everything. Kept as the reference the fast merge must equal.
    fn merge_records_via_builder(
        d: &Dataset,
        records: &[MergeRecord],
    ) -> Result<Dataset, DatasetError> {
        let mut builder = Dataset::builder();
        builder.taxonomy(d.taxonomy().clone());
        let mut key_to_id: HashMap<&str, VenueId> = HashMap::with_capacity(d.venue_count());
        let mut next_raw = 0u32;
        for v in d.venues() {
            builder.add_venue(v.clone());
            key_to_id.insert(v.name(), v.id());
            next_raw = next_raw.max(v.id().raw().saturating_add(1));
        }
        for c in d.checkins() {
            builder.add_checkin(*c);
        }
        let mut new_ids: HashMap<&str, VenueId> = HashMap::new();
        for r in records {
            let vid = match key_to_id
                .get(r.venue_key.as_str())
                .or_else(|| new_ids.get(r.venue_key.as_str()))
            {
                Some(&id) => id,
                None => {
                    let id = VenueId::new(next_raw);
                    next_raw = next_raw.saturating_add(1);
                    let kind = CategoryKind::guess(&r.category);
                    let cat = builder.taxonomy_mut().register(&r.category, kind);
                    builder.add_venue(Venue::new(id, &r.venue_key, r.location, cat));
                    new_ids.insert(r.venue_key.as_str(), id);
                    id
                }
            };
            builder.add_checkin(CheckIn::new(r.user, vid, r.time, r.tz_offset_minutes));
        }
        builder.build()
    }

    fn base() -> Dataset {
        let mut b = Dataset::builder();
        b.add_venue(Venue::new(
            VenueId::new(0),
            "v-home",
            LatLon::new(40.75, -73.99).unwrap(),
            CategoryId::new(0),
        ));
        b.add_venue(Venue::new(
            VenueId::new(1),
            "v-work",
            LatLon::new(40.76, -73.98).unwrap(),
            CategoryId::new(1),
        ));
        for (user, venue, secs) in [(1u32, 0u32, 100i64), (1, 1, 200), (2, 0, 150)] {
            b.add_checkin(CheckIn::new(
                UserId::new(user),
                VenueId::new(venue),
                Timestamp::from_unix_seconds(secs),
                -240,
            ));
        }
        b.build().unwrap()
    }

    fn record(user: u32, key: &str, secs: i64) -> MergeRecord {
        MergeRecord {
            user: UserId::new(user),
            venue_key: key.to_owned(),
            category: "Coffee Shop".to_owned(),
            location: LatLon::new(40.77, -73.97).unwrap(),
            tz_offset_minutes: -240,
            time: Timestamp::from_unix_seconds(secs),
        }
    }

    #[test]
    fn merge_resolves_existing_venue_by_key() {
        let d = base();
        let merged = d.merge_records(&[record(2, "v-work", 500)]).unwrap();
        assert_eq!(merged.len(), 4);
        assert_eq!(merged.venue_count(), 2, "no new venue for a known key");
        let last = merged.checkins_of(UserId::new(2)).last().unwrap();
        assert_eq!(last.venue(), VenueId::new(1));
    }

    #[test]
    fn merge_assigns_dense_ids_to_new_venues_in_record_order() {
        let d = base();
        let merged = d
            .merge_records(&[
                record(3, "v-cafe", 300),
                record(3, "v-gym", 400),
                record(4, "v-cafe", 500),
            ])
            .unwrap();
        assert_eq!(merged.venue_count(), 4);
        assert_eq!(merged.venue(VenueId::new(2)).unwrap().name(), "v-cafe");
        assert_eq!(merged.venue(VenueId::new(3)).unwrap().name(), "v-gym");
        // The new category was interned.
        assert!(merged.taxonomy().id_of("Coffee Shop").is_some());
    }

    #[test]
    fn merge_in_stages_equals_merge_at_once() {
        let d = base();
        let batch = vec![
            record(1, "v-cafe", 300),
            record(2, "v-work", 400),
            record(5, "v-gym", 500),
        ];
        let once = d.merge_records(&batch).unwrap();
        let staged = d
            .merge_records(&batch[..1])
            .unwrap()
            .merge_records(&batch[1..])
            .unwrap();
        assert_eq!(once.checkins(), staged.checkins());
        assert_eq!(once.venues(), staged.venues());
    }

    #[test]
    fn empty_merge_is_identity() {
        let d = base();
        let merged = d.merge_records(&[]).unwrap();
        assert_eq!(merged.checkins(), d.checkins());
        assert_eq!(merged.venues(), d.venues());
    }

    #[test]
    fn merge_keeps_checkins_sorted_per_user() {
        let d = base();
        // Insert a check-in earlier than user 1's existing ones.
        let merged = d.merge_records(&[record(1, "v-home", 50)]).unwrap();
        let times: Vec<i64> = merged
            .checkins_of(UserId::new(1))
            .iter()
            .map(|c| c.time().unix_seconds())
            .collect();
        assert_eq!(times, vec![50, 100, 200]);
    }

    /// Every observable part of two datasets agrees: the serialized
    /// data, the per-user ranges, the venue lookups and the calendar.
    fn assert_same(a: &Dataset, b: &Dataset) {
        assert_eq!(a.taxonomy(), b.taxonomy());
        assert_eq!(a.venues(), b.venues());
        assert_eq!(a.checkins(), b.checkins());
        assert_eq!(a.user_ranges, b.user_ranges);
        for v in b.venues() {
            assert_eq!(a.venue(v.id()), b.venue(v.id()));
        }
        assert_eq!(a.venue_index.next_raw(), b.venue_index.next_raw());
        assert_eq!(a.calendar, b.calendar);
    }

    /// Instants nine days apart from 2012-03-30, so a few draws span
    /// several months and many repeat `(user, time)` keys.
    fn instant(step: u8) -> Timestamp {
        Timestamp::from_unix_seconds(1_333_065_600 + i64::from(step) * 9 * 86_400 + 3_600)
    }

    /// Offsets that move the local date across midnight both ways.
    const OFFSETS: [i32; 3] = [-300, 0, 540];
    const CATEGORIES: [&str; 3] = ["Office", "Coffee Shop", "Stargazing Deck"];

    /// A base of up to 8 venues whose names repeat (`k0`..`k4`), and
    /// check-ins by users 0..6.
    fn arb_base() -> impl Strategy<Value = Dataset> {
        (
            1usize..8,
            proptest::collection::vec((0u32..6, 0usize..8, 0u8..14, 0usize..3), 0..30),
        )
            .prop_map(|(venues, rows)| {
                let mut b = Dataset::builder();
                for i in 0..venues {
                    b.add_venue(Venue::new(
                        VenueId::new(i as u32 * 3),
                        &format!("k{}", i % 5),
                        LatLon::new(40.7, -74.0 + i as f64 * 0.01).unwrap(),
                        CategoryId::new(i as u32),
                    ));
                }
                for (user, venue, step, tz) in rows {
                    b.add_checkin(CheckIn::new(
                        UserId::new(user),
                        VenueId::new((venue % venues) as u32 * 3),
                        instant(step),
                        OFFSETS[tz],
                    ));
                }
                b.build().unwrap()
            })
    }

    /// Batches with new users (6..9), known and new venue keys
    /// (`k0`..`k8`) and repeated `(user, time)` keys.
    fn arb_batch() -> impl Strategy<Value = Vec<MergeRecord>> {
        proptest::collection::vec(((0u32..9, 0u8..9), 0u8..14, 0usize..3, 0usize..3), 0..24)
            .prop_map(|rows| {
                rows.into_iter()
                    .map(|((user, key), step, tz, cat)| MergeRecord {
                        user: UserId::new(user),
                        venue_key: format!("k{key}"),
                        category: CATEGORIES[cat].to_owned(),
                        location: LatLon::new(40.8, -73.9 + f64::from(key) * 0.01).unwrap(),
                        tz_offset_minutes: OFFSETS[tz],
                        time: instant(step),
                    })
                    .collect()
            })
    }

    proptest! {
        /// The O(batch) merge equals the builder path it replaced, and
        /// merging in stages equals merging at once.
        #[test]
        fn prop_merge_equals_builder_path(
            base in arb_base(),
            batch in arb_batch(),
            split in 0usize..25,
        ) {
            let fast = base.merge_records(&batch).unwrap();
            let reference = merge_records_via_builder(&base, &batch).unwrap();
            assert_same(&fast, &reference);
            let split = split.min(batch.len());
            let staged = base
                .merge_records(&batch[..split])
                .unwrap()
                .merge_records(&batch[split..])
                .unwrap();
            assert_same(&staged, &reference);
        }

        /// After chained merges the kept month counts and first/last
        /// day equal a walk over every check-in, and so does the
        /// richest window they choose.
        #[test]
        fn prop_chained_merges_keep_the_calendar(
            base in arb_base(),
            batches in proptest::collection::vec(arb_batch(), 1..5),
        ) {
            let mut d = base;
            for batch in &batches {
                d = d.merge_records(batch).unwrap();
            }
            let mut months: BTreeMap<MonthKey, usize> = BTreeMap::new();
            for c in d.checkins() {
                *months.entry(MonthKey::of(c)).or_insert(0) += 1;
            }
            prop_assert_eq!(d.monthly_counts(), &months);
            let dates = d.checkins().iter().map(CheckIn::local_date);
            let range = dates.clone().min().zip(dates.max());
            prop_assert_eq!(d.local_date_range(), range);
            let walked = compute_by_walk(&d);
            prop_assert_eq!(DatasetStats::compute(&d), walked.clone());
            for months in 1..5 {
                prop_assert_eq!(
                    DatasetStats::compute(&d).richest_window(months),
                    walked.richest_window(months)
                );
            }
        }
    }
}
