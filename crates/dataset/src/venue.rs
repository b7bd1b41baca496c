//! Venues — the physical places users check in at.

use crate::{CategoryId, VenueId};
use crowdweb_geo::LatLon;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// A check-in location: a named place with a coordinate and a category.
///
/// # Examples
///
/// ```
/// use crowdweb_dataset::{CategoryId, Venue, VenueId};
/// use crowdweb_geo::LatLon;
///
/// # fn main() -> Result<(), crowdweb_geo::GeoError> {
/// let v = Venue::new(
///     VenueId::new(1),
///     "Thai Express",
///     LatLon::new(40.75, -73.99)?,
///     CategoryId::new(14),
/// );
/// assert_eq!(v.name(), "Thai Express");
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Venue {
    id: VenueId,
    /// Shared, so copying a venue list (every merge copies the
    /// dataset's) costs no allocation per venue.
    name: Arc<str>,
    location: LatLon,
    category: CategoryId,
}

impl Venue {
    /// Creates a venue.
    pub fn new(id: VenueId, name: &str, location: LatLon, category: CategoryId) -> Venue {
        Venue {
            id,
            name: Arc::from(name),
            location,
            category,
        }
    }

    /// The venue's identifier.
    pub fn id(&self) -> VenueId {
        self.id
    }

    /// The venue's display name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The venue's coordinate.
    pub fn location(&self) -> LatLon {
        self.location
    }

    /// The venue's fine-grained category id.
    pub fn category(&self) -> CategoryId {
        self.category
    }
}

impl fmt::Display for Venue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {:?} at {}", self.id, self.name, self.location)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn venue() -> Venue {
        Venue::new(
            VenueId::new(9),
            "Seasoning Thai",
            LatLon::new(40.76, -73.98).unwrap(),
            CategoryId::new(2),
        )
    }

    #[test]
    fn accessors_return_fields() {
        let v = venue();
        assert_eq!(v.id(), VenueId::new(9));
        assert_eq!(v.name(), "Seasoning Thai");
        assert_eq!(v.category(), CategoryId::new(2));
        assert_eq!(v.location().lat(), 40.76);
    }

    #[test]
    fn display_mentions_id_and_name() {
        let s = venue().to_string();
        assert!(s.contains("v9"));
        assert!(s.contains("Seasoning Thai"));
    }
}
