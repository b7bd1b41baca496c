//! Sequence-database construction and columnar storage.
//!
//! Pattern mining consumes, per user, one *sequence per local day*: the
//! time-ordered list of `(time slot, place label)` items derived from
//! that day's check-ins. Consecutive duplicate items within a day are
//! collapsed (staying at work all afternoon is one item, not five).
//!
//! # Columnar layout
//!
//! The database interns every distinct [`SeqItem`] into a
//! [`SymbolTable`] and stores all sequences as one flat [`Symbol`]
//! buffer plus two offset columns (sequence bounds, user bounds). The
//! miners walk `&[Symbol]` slices — dense `u32` comparisons instead of
//! struct comparisons, and zero per-sequence allocations. Items are
//! interned in **sorted order**, so symbol order agrees with item order
//! and decoded pattern sets keep the miners' `(length, items)` sort.

use crate::{LabelScheme, Labeler, PlaceLabel, PrepError, StudyWindow, TimeSlot, TimeSlotting};
use crowdweb_dataset::{Dataset, UserId};
pub use crowdweb_exec::{Symbol, SymbolTable};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt;

/// One mined item: a place label anchored at a time slot. This is the
/// item alphabet of the paper's *modified* PrefixSpan — two visits match
/// only if both the slot and the label agree.
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize, Default,
)]
pub struct SeqItem {
    /// Time-of-day slot of the visit.
    pub slot: TimeSlot,
    /// Abstracted place label.
    pub label: PlaceLabel,
}

impl fmt::Display for SeqItem {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}@{}", self.label, self.slot)
    }
}

/// All daily sequences of one user, in owned row form — the
/// construction and decode format; storage is columnar
/// ([`SequenceDatabase`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UserSequences {
    /// The user.
    pub user: UserId,
    /// One entry per active day (days with no check-ins are absent),
    /// in date order; each is the day's time-ordered item sequence.
    pub sequences: Vec<Vec<SeqItem>>,
}

impl UserSequences {
    /// Number of daily sequences.
    pub fn len(&self) -> usize {
        self.sequences.len()
    }

    /// Whether the user has no sequences.
    pub fn is_empty(&self) -> bool {
        self.sequences.is_empty()
    }
}

/// The sequence database: per-user daily sequences for every user that
/// passed the activity filter, stored columnar (see the [module
/// docs](self)).
///
/// # Examples
///
/// Built through [`crate::Preprocessor::prepare`]; see the crate-level
/// example.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SequenceDatabase {
    /// Distinct items in sorted order.
    symbols: SymbolTable<SeqItem>,
    /// Every sequence's symbols, back to back.
    items: Vec<Symbol>,
    /// Prefix offsets into `items`: sequence `s` spans
    /// `items[seq_offsets[s]..seq_offsets[s + 1]]`.
    seq_offsets: Vec<u32>,
    /// Prefix offsets into sequence space: user `u` owns sequences
    /// `user_offsets[u]..user_offsets[u + 1]`.
    user_offsets: Vec<u32>,
    /// Users, in the order they were supplied.
    users: Vec<UserId>,
}

impl SequenceDatabase {
    /// Builds the database for `users` over `dataset`, restricted to
    /// `window`, at the given slotting and labeling.
    ///
    /// # Errors
    ///
    /// Propagates [`PrepError::MissingVenue`] from labeling (impossible
    /// for datasets built via [`Dataset::builder`]).
    pub fn build(
        dataset: &Dataset,
        users: &[UserId],
        window: &StudyWindow,
        slotting: TimeSlotting,
        scheme: LabelScheme,
    ) -> Result<SequenceDatabase, PrepError> {
        let labeler = Labeler::new(dataset, scheme);
        let mut rows = Vec::with_capacity(users.len());
        for &user in users {
            rows.push(build_user_row(dataset, user, window, slotting, &labeler)?);
        }
        Ok(SequenceDatabase::from_users(rows))
    }

    /// Encodes owned per-user rows into the columnar layout. Items are
    /// interned in sorted order so symbol comparisons agree with item
    /// comparisons.
    pub fn from_users(rows: Vec<UserSequences>) -> SequenceDatabase {
        let distinct: BTreeSet<SeqItem> = rows
            .iter()
            .flat_map(|u| u.sequences.iter().flatten().copied())
            .collect();
        let symbols = SymbolTable::from_sorted_items(distinct.into_iter().collect());

        let total_items: usize = rows
            .iter()
            .map(|u| u.sequences.iter().map(Vec::len).sum::<usize>())
            .sum();
        let total_seqs: usize = rows.iter().map(UserSequences::len).sum();
        let mut items = Vec::with_capacity(total_items);
        let mut seq_offsets = Vec::with_capacity(total_seqs + 1);
        let mut user_offsets = Vec::with_capacity(rows.len() + 1);
        let mut users = Vec::with_capacity(rows.len());
        seq_offsets.push(0u32);
        user_offsets.push(0u32);
        for row in &rows {
            for day in &row.sequences {
                for item in day {
                    items.push(symbols.lookup(item).expect("interned above"));
                }
                seq_offsets.push(u32::try_from(items.len()).expect("more than u32::MAX items"));
            }
            user_offsets
                .push(u32::try_from(seq_offsets.len() - 1).expect("more than u32::MAX sequences"));
            users.push(row.user);
        }
        SequenceDatabase {
            symbols,
            items,
            seq_offsets,
            user_offsets,
            users,
        }
    }

    /// The database with `fresh` rows spliced in: each replaces the row
    /// of the same user or, for a user not yet present, is inserted in
    /// user order. Every other user's columns are copied over as they
    /// are. Equals [`SequenceDatabase::from_users`] over the full rows
    /// when a replaced user's items only grew — which holds for
    /// append-only check-ins under a fixed window, since every old
    /// check-in keeps its item. The symbols are remapped, keeping their
    /// order, only when a fresh row brings an item the table lacks.
    ///
    /// `None` when that cannot be guaranteed: the users are not in
    /// ascending order, `fresh` is not, or a fresh row lacks an item of
    /// the row it replaces.
    pub(crate) fn splice(&self, fresh: &[UserSequences]) -> Option<SequenceDatabase> {
        if !self.users.windows(2).all(|w| w[0] < w[1])
            || !fresh.windows(2).all(|w| w[0].user < w[1].user)
        {
            return None;
        }
        let mut added: BTreeSet<SeqItem> = BTreeSet::new();
        for row in fresh {
            for &item in row.sequences.iter().flatten() {
                if self.symbols.lookup(&item).is_none() {
                    added.insert(item);
                }
            }
        }
        // Old symbol index -> new symbol: identity unless items arrived.
        let (symbols, remap) = if added.is_empty() {
            (self.symbols.clone(), None)
        } else {
            let mut items = Vec::with_capacity(self.symbols.len() + added.len());
            let mut remap = Vec::with_capacity(self.symbols.len());
            let mut added = added.into_iter().peekable();
            for &old in self.symbols.items() {
                while let Some(item) = added.next_if(|item| *item < old) {
                    items.push(item);
                }
                remap.push(Symbol::from_index(items.len()));
                items.push(old);
            }
            items.extend(added);
            (SymbolTable::from_sorted_items(items), Some(remap))
        };

        let fresh_items: usize = fresh.iter().flat_map(|r| &r.sequences).map(Vec::len).sum();
        let mut items = Vec::with_capacity(self.items.len() + fresh_items);
        let mut seq_offsets = Vec::with_capacity(self.seq_offsets.len() + fresh.len());
        let mut user_offsets = Vec::with_capacity(self.user_offsets.len() + fresh.len());
        let mut users = Vec::with_capacity(self.users.len() + fresh.len());
        seq_offsets.push(0u32);
        user_offsets.push(0u32);
        let mut old = 0;
        let mut fresh = fresh.iter().peekable();
        while old < self.users.len() || fresh.peek().is_some() {
            let next_old = self.users.get(old).copied();
            match fresh.next_if(|row| next_old.is_none_or(|u| row.user <= u)) {
                Some(row) => {
                    if next_old == Some(row.user) {
                        let kept: BTreeSet<&SeqItem> = row.sequences.iter().flatten().collect();
                        let (start, end) = self.user_item_range(old);
                        let lost = self.items[start..end]
                            .iter()
                            .any(|&s| !kept.contains(self.symbols.resolve(s)));
                        if lost {
                            return None;
                        }
                        old += 1;
                    }
                    for day in &row.sequences {
                        items.extend(
                            day.iter()
                                .map(|item| symbols.lookup(item).expect("interned above")),
                        );
                        seq_offsets
                            .push(u32::try_from(items.len()).expect("more than u32::MAX items"));
                    }
                    users.push(row.user);
                }
                None => {
                    let (start, end) = self.user_item_range(old);
                    let base = items.len();
                    match &remap {
                        None => items.extend_from_slice(&self.items[start..end]),
                        Some(remap) => {
                            items.extend(self.items[start..end].iter().map(|s| remap[s.index()]))
                        }
                    }
                    let seqs = self.user_offsets[old] as usize..self.user_offsets[old + 1] as usize;
                    for &offset in &self.seq_offsets[seqs.start + 1..=seqs.end] {
                        let shifted = base + (offset as usize - start);
                        seq_offsets.push(u32::try_from(shifted).expect("more than u32::MAX items"));
                    }
                    users.push(self.users[old]);
                    old += 1;
                }
            }
            user_offsets
                .push(u32::try_from(seq_offsets.len() - 1).expect("more than u32::MAX sequences"));
        }
        Some(SequenceDatabase {
            symbols,
            items,
            seq_offsets,
            user_offsets,
            users,
        })
    }

    /// The `items` range of the `index`-th user.
    fn user_item_range(&self, index: usize) -> (usize, usize) {
        let first_seq = self.user_offsets[index] as usize;
        let end_seq = self.user_offsets[index + 1] as usize;
        (
            self.seq_offsets[first_seq] as usize,
            self.seq_offsets[end_seq] as usize,
        )
    }

    /// Number of users in the database.
    pub fn user_count(&self) -> usize {
        self.users.len()
    }

    /// Whether the database is empty.
    pub fn is_empty(&self) -> bool {
        self.users.is_empty()
    }

    /// The interner mapping [`Symbol`]s to [`SeqItem`]s.
    pub fn symbols(&self) -> &SymbolTable<SeqItem> {
        &self.symbols
    }

    /// Users, in the order they were supplied.
    pub fn user_ids(&self) -> &[UserId] {
        &self.users
    }

    /// Zero-copy per-user views, in user order.
    pub fn views(&self) -> impl Iterator<Item = UserView<'_>> {
        (0..self.users.len()).map(move |index| UserView { db: self, index })
    }

    /// The view of the `index`-th user.
    ///
    /// # Panics
    /// If `index >= user_count()`.
    pub fn view(&self, index: usize) -> UserView<'_> {
        assert!(index < self.users.len(), "user index out of range");
        UserView { db: self, index }
    }

    /// The view of one user, if present.
    pub fn view_of(&self, user: UserId) -> Option<UserView<'_>> {
        self.users
            .iter()
            .position(|&u| u == user)
            .map(|index| UserView { db: self, index })
    }

    /// Decodes one user's sequences back to owned row form, if present.
    pub fn decode_user(&self, user: UserId) -> Option<UserSequences> {
        self.view_of(user).map(|v| UserSequences {
            user,
            sequences: v.decode(),
        })
    }

    /// Every daily sequence across all users, pooled in user order —
    /// the input for population-level mining.
    pub fn day_slices(&self) -> Vec<&[Symbol]> {
        (0..self.total_sequences())
            .map(|s| self.seq_slice(s))
            .collect()
    }

    /// Total number of daily sequences across all users.
    pub fn total_sequences(&self) -> usize {
        self.seq_offsets.len() - 1
    }

    /// Total number of items across all sequences.
    pub fn total_items(&self) -> usize {
        self.items.len()
    }

    fn seq_slice(&self, seq: usize) -> &[Symbol] {
        let start = self.seq_offsets[seq] as usize;
        let end = self.seq_offsets[seq + 1] as usize;
        &self.items[start..end]
    }
}

/// Builds one user's daily sequences: window filter, slotting, labeling,
/// per-local-day split, consecutive-duplicate collapse. Shared by the
/// full [`SequenceDatabase::build`] and the incremental re-prepare path,
/// which rebuilds rows only for users whose check-ins changed.
pub(crate) fn build_user_row(
    dataset: &Dataset,
    user: UserId,
    window: &StudyWindow,
    slotting: TimeSlotting,
    labeler: &Labeler<'_>,
) -> Result<UserSequences, PrepError> {
    let mut sequences: Vec<Vec<SeqItem>> = Vec::new();
    let mut current_day: Option<i64> = None;
    for c in dataset.checkins_of(user) {
        if !window.contains_checkin(c) {
            continue;
        }
        let local = c.local_time();
        let day = local.date.to_epoch_days();
        let item = SeqItem {
            slot: slotting.slot_of(local),
            label: labeler.label_of(c)?,
        };
        if current_day != Some(day) {
            sequences.push(Vec::new());
            current_day = Some(day);
        }
        let seq = sequences.last_mut().expect("pushed above");
        if seq.last() != Some(&item) {
            seq.push(item);
        }
    }
    Ok(UserSequences { user, sequences })
}

/// The empty database still carries the leading offset sentinels.
impl Default for SequenceDatabase {
    fn default() -> SequenceDatabase {
        SequenceDatabase::from_users(Vec::new())
    }
}

impl FromIterator<UserSequences> for SequenceDatabase {
    fn from_iter<I: IntoIterator<Item = UserSequences>>(iter: I) -> Self {
        SequenceDatabase::from_users(iter.into_iter().collect())
    }
}

/// A zero-copy window onto one user's sequences in the columnar store.
#[derive(Debug, Clone, Copy)]
pub struct UserView<'a> {
    db: &'a SequenceDatabase,
    index: usize,
}

impl<'a> UserView<'a> {
    /// The user.
    pub fn user(&self) -> UserId {
        self.db.users[self.index]
    }

    /// The database's symbol table, for resolving day slices.
    pub fn symbols(&self) -> &'a SymbolTable<SeqItem> {
        self.db.symbols()
    }

    /// Number of daily sequences.
    pub fn day_count(&self) -> usize {
        (self.db.user_offsets[self.index + 1] - self.db.user_offsets[self.index]) as usize
    }

    /// Whether the user has no sequences.
    pub fn is_empty(&self) -> bool {
        self.day_count() == 0
    }

    /// The `i`-th daily sequence as a symbol slice.
    ///
    /// # Panics
    /// If `i >= day_count()`.
    pub fn day(&self, i: usize) -> &'a [Symbol] {
        assert!(i < self.day_count(), "day index out of range");
        self.db
            .seq_slice(self.db.user_offsets[self.index] as usize + i)
    }

    /// All daily sequences as symbol slices, in date order.
    pub fn days(&self) -> impl Iterator<Item = &'a [Symbol]> {
        let db = self.db;
        let start = db.user_offsets[self.index] as usize;
        let end = db.user_offsets[self.index + 1] as usize;
        (start..end).map(move |s| db.seq_slice(s))
    }

    /// Decodes the user's sequences back to owned items.
    pub fn decode(&self) -> Vec<Vec<SeqItem>> {
        let table = self.db.symbols();
        self.days()
            .map(|day| day.iter().map(|&s| *table.resolve(s)).collect())
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crowdweb_dataset::{CategoryId, CheckIn, CivilDate, Timestamp, Venue, VenueId};
    use crowdweb_geo::LatLon;
    use proptest::prelude::*;

    /// Dataset with one user visiting venue sequences on specific days.
    /// Each tuple is (day_of_april, hour, venue).
    fn dataset(visits: &[(u8, u8, u32)]) -> Dataset {
        let mut b = Dataset::builder();
        for v in 0..3u32 {
            b.add_venue(Venue::new(
                VenueId::new(v),
                &format!("v{v}"),
                LatLon::new(40.7, -74.0).unwrap(),
                CategoryId::new(v), // distinct fine categories
            ));
        }
        for &(day, hour, venue) in visits {
            b.add_checkin(CheckIn::new(
                UserId::new(1),
                VenueId::new(venue),
                Timestamp::from_civil(2012, 4, day, hour, 0, 0).unwrap(),
                0,
            ));
        }
        b.build().unwrap()
    }

    fn window() -> StudyWindow {
        StudyWindow::new(
            CivilDate::new(2012, 4, 1).unwrap(),
            CivilDate::new(2012, 4, 30).unwrap(),
        )
        .unwrap()
    }

    fn build(d: &Dataset) -> SequenceDatabase {
        SequenceDatabase::build(
            d,
            &[UserId::new(1)],
            &window(),
            TimeSlotting::default(),
            LabelScheme::Category,
        )
        .unwrap()
    }

    #[test]
    fn one_sequence_per_active_day() {
        let d = dataset(&[(1, 8, 0), (1, 12, 1), (3, 9, 2)]);
        let db = build(&d);
        let v = db.view_of(UserId::new(1)).unwrap();
        assert_eq!(v.day_count(), 2); // days 1 and 3; day 2 absent
        assert_eq!(v.day(0).len(), 2);
        assert_eq!(v.day(1).len(), 1);
        assert_eq!(db.total_sequences(), 2);
        assert_eq!(db.total_items(), 3);
    }

    #[test]
    fn items_are_time_ordered_with_slots() {
        let d = dataset(&[(1, 12, 1), (1, 8, 0)]); // inserted out of order
        let db = build(&d);
        let seq = &db.decode_user(UserId::new(1)).unwrap().sequences[0];
        assert_eq!(seq[0].slot, TimeSlot(4)); // 08:00-10:00
        assert_eq!(seq[1].slot, TimeSlot(6)); // 12:00-14:00
        assert_eq!(seq[0].label, PlaceLabel(0));
        assert_eq!(seq[1].label, PlaceLabel(1));
    }

    #[test]
    fn consecutive_duplicates_collapse() {
        // Same venue, same slot, three check-ins.
        let d = dataset(&[(1, 8, 0), (1, 8, 0), (1, 9, 0)]);
        let db = build(&d);
        let seq = db.view_of(UserId::new(1)).unwrap().day(0);
        assert_eq!(seq.len(), 1, "{seq:?}");
    }

    #[test]
    fn nonconsecutive_repeats_survive() {
        // Home - work - home: the two home visits are distinct items
        // (different slots).
        let d = dataset(&[(1, 8, 0), (1, 12, 1), (1, 20, 0)]);
        let db = build(&d);
        let seq = db.view_of(UserId::new(1)).unwrap().day(0);
        assert_eq!(seq.len(), 3);
    }

    #[test]
    fn window_excludes_outside_days() {
        let mut b = Dataset::builder();
        b.add_venue(Venue::new(
            VenueId::new(0),
            "v",
            LatLon::new(40.7, -74.0).unwrap(),
            CategoryId::new(0),
        ));
        for month in [4u8, 7] {
            b.add_checkin(CheckIn::new(
                UserId::new(1),
                VenueId::new(0),
                Timestamp::from_civil(2012, month, 5, 10, 0, 0).unwrap(),
                0,
            ));
        }
        let d = b.build().unwrap();
        let db = build(&d);
        assert_eq!(db.total_sequences(), 1);
    }

    #[test]
    fn unknown_user_yields_empty_sequences() {
        let d = dataset(&[(1, 8, 0)]);
        let db = SequenceDatabase::build(
            &d,
            &[UserId::new(42)],
            &window(),
            TimeSlotting::default(),
            LabelScheme::Category,
        )
        .unwrap();
        assert_eq!(db.user_count(), 1);
        assert!(db.view(0).is_empty());
        assert!(db.view_of(UserId::new(1)).is_none());
        assert!(db.decode_user(UserId::new(1)).is_none());
    }

    #[test]
    fn from_iterator_collects() {
        let db: SequenceDatabase = vec![UserSequences {
            user: UserId::new(1),
            sequences: vec![vec![]],
        }]
        .into_iter()
        .collect();
        assert_eq!(db.user_count(), 1);
        assert_eq!(db.total_sequences(), 1);
        assert_eq!(db.total_items(), 0);
    }

    #[test]
    fn seq_item_display() {
        let item = SeqItem {
            slot: TimeSlot(6),
            label: PlaceLabel(2),
        };
        assert_eq!(item.to_string(), "place#2@slot#6");
    }

    #[test]
    fn symbol_order_agrees_with_item_order() {
        let d = dataset(&[(1, 8, 0), (1, 12, 1), (2, 9, 2)]);
        let db = build(&d);
        let items = db.symbols().items();
        assert!(items.windows(2).all(|w| w[0] < w[1]), "{items:?}");
    }

    #[test]
    fn day_slices_pool_all_users_in_order() {
        let rows = vec![
            UserSequences {
                user: UserId::new(1),
                sequences: vec![vec![SeqItem::default()], vec![]],
            },
            UserSequences {
                user: UserId::new(2),
                sequences: vec![vec![SeqItem::default(), SeqItem::default()]],
            },
        ];
        let db = SequenceDatabase::from_users(rows);
        let lens: Vec<usize> = db.day_slices().iter().map(|s| s.len()).collect();
        // Consecutive-duplicate collapse is a build() concern, not
        // from_users(): the repeated default item survives.
        assert_eq!(lens, vec![1, 0, 2]);
    }

    fn arb_rows() -> impl Strategy<Value = Vec<UserSequences>> {
        proptest::collection::vec(
            proptest::collection::vec(proptest::collection::vec((0u8..12, 0u32..6), 0..7), 0..5),
            0..6,
        )
        .prop_map(|users| {
            users
                .into_iter()
                .enumerate()
                .map(|(i, days)| UserSequences {
                    user: UserId::new(i as u32),
                    sequences: days
                        .into_iter()
                        .map(|day| {
                            day.into_iter()
                                .map(|(slot, label)| SeqItem {
                                    slot: TimeSlot(slot),
                                    label: PlaceLabel(label),
                                })
                                .collect()
                        })
                        .collect(),
                })
                .collect()
        })
    }

    proptest! {
        /// The columnar encoding is lossless: decoding every view
        /// reproduces the original rows exactly.
        #[test]
        fn prop_columnar_round_trips(rows in arb_rows()) {
            let db = SequenceDatabase::from_users(rows.clone());
            prop_assert_eq!(db.user_count(), rows.len());
            for (view, row) in db.views().zip(&rows) {
                prop_assert_eq!(view.user(), row.user);
                prop_assert_eq!(view.day_count(), row.sequences.len());
                prop_assert_eq!(&view.decode(), &row.sequences);
            }
            // And the serde round trip preserves the whole database.
            let json = serde_json::to_string(&db).unwrap();
            let back: SequenceDatabase = serde_json::from_str(&json).unwrap();
            prop_assert_eq!(back, db);
        }
    }

    fn item(slot: u8, label: u32) -> SeqItem {
        SeqItem {
            slot: TimeSlot(slot),
            label: PlaceLabel(label),
        }
    }

    /// Base rows for users 0, 2, 4, ... and the fresh rows of one
    /// splice: a replaced user keeps every old item and may gain more
    /// (new days, or items appended to old days), and odd ids are users
    /// becoming active between the existing ones.
    fn arb_splice() -> impl Strategy<Value = (Vec<UserSequences>, Vec<UserSequences>)> {
        (
            arb_rows(),
            proptest::collection::vec((0u32..14, 0usize..3, (0u8..12, 0u32..9)), 0..8),
        )
            .prop_map(|(base, edits)| {
                let base: Vec<UserSequences> = base
                    .into_iter()
                    .map(|row| UserSequences {
                        user: UserId::new(row.user.raw() * 2),
                        sequences: row.sequences,
                    })
                    .collect();
                let mut fresh: std::collections::BTreeMap<u32, UserSequences> =
                    std::collections::BTreeMap::new();
                for (user, how, (slot, label)) in edits {
                    let row = fresh.entry(user).or_insert_with(|| {
                        base.iter()
                            .find(|r| r.user.raw() == user)
                            .cloned()
                            .unwrap_or(UserSequences {
                                user: UserId::new(user),
                                sequences: Vec::new(),
                            })
                    });
                    match (how, row.sequences.last_mut()) {
                        (0, Some(day)) => day.push(item(slot, label)),
                        (1, _) => row.sequences.push(vec![item(slot, label)]),
                        _ => row.sequences.push(Vec::new()),
                    }
                }
                (base, fresh.into_values().collect())
            })
    }

    #[test]
    fn splice_refuses_a_row_that_loses_an_item() {
        let base = vec![UserSequences {
            user: UserId::new(1),
            sequences: vec![vec![item(1, 1), item(2, 2)]],
        }];
        let db = SequenceDatabase::from_users(base);
        let shrunk = UserSequences {
            user: UserId::new(1),
            sequences: vec![vec![item(1, 1)]],
        };
        assert!(db.splice(&[shrunk]).is_none());
        let grown = UserSequences {
            user: UserId::new(1),
            sequences: vec![vec![item(2, 2), item(1, 1), item(0, 7)]],
        };
        assert!(db.splice(&[grown]).is_some());
    }

    proptest! {
        /// Splicing fresh rows into a database equals encoding the full
        /// rows from scratch, for replaced rows that gain items and
        /// newly active users alike.
        #[test]
        fn prop_splice_equals_from_users((base, fresh) in arb_splice()) {
            let db = SequenceDatabase::from_users(base.clone());
            let spliced = db.splice(&fresh).expect("rows only grew");
            let mut full: Vec<UserSequences> = base
                .into_iter()
                .filter(|r| fresh.iter().all(|f| f.user != r.user))
                .chain(fresh.iter().cloned())
                .collect();
            full.sort_by_key(|r| r.user);
            prop_assert_eq!(spliced, SequenceDatabase::from_users(full));
        }
    }
}
