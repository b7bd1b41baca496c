//! Reading values out of Prometheus text exposition, the format both
//! `GET /api/v1/metrics` and an in-process `MetricsRegistry::render`
//! produce.

/// One sample line: metric name, label pairs, value.
type Row = (String, Vec<(String, String)>, f64);

/// A parsed exposition: one row per sample line.
#[derive(Debug, Clone, Default)]
pub struct Exposition {
    rows: Vec<Row>,
}

impl Exposition {
    /// Parses exposition text; comment and malformed lines are skipped.
    pub fn parse(text: &str) -> Exposition {
        let rows = text
            .lines()
            .filter(|l| !l.starts_with('#'))
            .filter_map(|line| {
                let (series, value) = line.rsplit_once(' ')?;
                let value: f64 = value.trim().parse().ok()?;
                let (name, labels) = match series.split_once('{') {
                    Some((name, rest)) => (name, parse_labels(rest.strip_suffix('}')?)),
                    None => (series, Vec::new()),
                };
                Some((name.to_owned(), labels, value))
            })
            .collect();
        Exposition { rows }
    }

    /// The sum of every `name` series whose labels include all of
    /// `filter`; 0 when none match.
    pub fn sum(&self, name: &str, filter: &[(&str, &str)]) -> f64 {
        self.rows
            .iter()
            .filter(|(n, labels, _)| {
                n == name
                    && filter
                        .iter()
                        .all(|(k, v)| labels.iter().any(|(lk, lv)| lk == k && lv == v))
            })
            .map(|(_, _, v)| v)
            .sum()
    }

    /// `sum(name) − earlier.sum(name)` for the same filter: a counter's
    /// or histogram field's growth between two scrapes.
    pub fn delta(&self, earlier: &Exposition, name: &str, filter: &[(&str, &str)]) -> f64 {
        self.sum(name, filter) - earlier.sum(name, filter)
    }
}

fn parse_labels(inner: &str) -> Vec<(String, String)> {
    let mut out = Vec::new();
    let mut rest = inner;
    while let Some((key, after)) = rest.split_once("=\"") {
        let mut value = String::new();
        let mut chars = after.char_indices();
        let mut end = after.len();
        while let Some((i, c)) = chars.next() {
            match c {
                '\\' => {
                    if let Some((_, escaped)) = chars.next() {
                        value.push(escaped);
                    }
                }
                '"' => {
                    end = i + 1;
                    break;
                }
                c => value.push(c),
            }
        }
        out.push((key.trim_start_matches(',').trim().to_owned(), value));
        rest = &after[end..];
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sums_labelled_series_and_takes_deltas() {
        let before = Exposition::parse(
            "# HELP x y\nreq_total{route=\"/a\",status=\"200\"} 3\n\
             req_total{route=\"/a\",status=\"503\"} 1\nreq_total{route=\"/b\",status=\"200\"} 9\n",
        );
        let after = Exposition::parse(
            "req_total{route=\"/a\",status=\"200\"} 10\nreq_total{route=\"/a\",status=\"503\"} 1\n\
             lat_seconds_sum{route=\"/a\"} 0.5\nplain 7\n",
        );
        assert_eq!(after.sum("req_total", &[("route", "/a")]), 11.0);
        assert_eq!(
            after.delta(&before, "req_total", &[("status", "200")]),
            -2.0
        );
        assert_eq!(after.sum("lat_seconds_sum", &[("route", "/a")]), 0.5);
        assert_eq!(after.sum("plain", &[]), 7.0);
        assert_eq!(after.sum("missing", &[]), 0.0);
    }

    #[test]
    fn label_values_may_hold_commas_and_escapes() {
        let e = Exposition::parse("m{route=\"/x,y\",q=\"a\\\"b\"} 2\n");
        assert_eq!(e.sum("m", &[("route", "/x,y"), ("q", "a\"b")]), 2.0);
    }
}
