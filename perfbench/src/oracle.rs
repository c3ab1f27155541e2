//! Workflow outputs and their comparison against a `simple`-mapping
//! reference.
//!
//! Each workload's reference is computed with `Simple` before anything is
//! timed; every timed execution's output is then checked against it and a
//! mismatch counts as a failed execution.

use d4py_core::value::Value;
use std::collections::BTreeMap;

/// Relative tolerance for the top-3 `mean`: a float sum depends on the
/// order its terms arrive in, which the parallel engines do not fix.
pub const MEAN_RTOL: f64 = 1e-9;

/// One row of the sentiment workflow's top-3 ranking.
#[derive(Debug, Clone, PartialEq)]
pub struct TopRow {
    /// 1-based rank.
    pub rank: i64,
    /// US state.
    pub state: String,
    /// Mean sentiment score.
    pub mean: f64,
    /// Articles aggregated.
    pub count: i64,
}

/// What one execution of a workload produced.
#[derive(Debug, Clone, PartialEq)]
pub enum Output {
    /// The zero-work chain: items that reached the sink, the sum of
    /// their indices and the sum of their seeded payloads.
    Chain {
        /// Items received by the sink.
        count: u64,
        /// Sum of the items' `id`s.
        id_sum: i64,
        /// Sum of the items' `x` payloads.
        x_sum: i64,
    },
    /// The galaxy workflow: `id → extinction`.
    Extinction(BTreeMap<i64, f64>),
    /// The sentiment workflow: the top-3 rows in rank order.
    Top3(Vec<TopRow>),
}

impl Output {
    /// The galaxy workflow's `{id, extinction}` result rows, keyed by id.
    pub fn extinction(rows: &[Value]) -> Output {
        Output::Extinction(
            rows.iter()
                .map(|r| {
                    (
                        r.get("id").and_then(Value::as_int).unwrap_or(-1),
                        r.get("extinction")
                            .and_then(Value::as_float)
                            .unwrap_or(f64::NAN),
                    )
                })
                .collect(),
        )
    }

    /// The sentiment workflow's `{rank, state, mean, count}` rows.
    pub fn top3(rows: &[Value]) -> Output {
        Output::Top3(
            rows.iter()
                .map(|r| TopRow {
                    rank: r.get("rank").and_then(Value::as_int).unwrap_or(0),
                    state: r
                        .get("state")
                        .and_then(Value::as_str)
                        .unwrap_or_default()
                        .to_string(),
                    mean: r.get("mean").and_then(Value::as_float).unwrap_or(f64::NAN),
                    count: r.get("count").and_then(Value::as_int).unwrap_or(0),
                })
                .collect(),
        )
    }

    /// Compares `self` (a timed execution's output) with `reference`;
    /// `Err` describes the first difference.
    pub fn check(&self, reference: &Output) -> Result<(), String> {
        match (self, reference) {
            (Output::Chain { .. }, Output::Chain { .. }) if self == reference => Ok(()),
            (Output::Extinction(got), Output::Extinction(want)) => {
                if got.len() != want.len() {
                    return Err(format!("{} galaxies, expected {}", got.len(), want.len()));
                }
                match want.iter().find(|(id, a)| got.get(id) != Some(a)) {
                    None => Ok(()),
                    Some((id, a)) => Err(format!(
                        "galaxy {id}: extinction {:?}, expected {a}",
                        got.get(id)
                    )),
                }
            }
            (Output::Top3(got), Output::Top3(want)) => {
                if got.len() != want.len() {
                    return Err(format!("{} top rows, expected {}", got.len(), want.len()));
                }
                for (g, w) in got.iter().zip(want) {
                    let close = (g.mean - w.mean).abs() <= MEAN_RTOL * w.mean.abs().max(1e-300);
                    if g.rank != w.rank || g.state != w.state || g.count != w.count || !close {
                        return Err(format!("top row {g:?}, expected {w:?}"));
                    }
                }
                Ok(())
            }
            _ => Err(format!("output {self:?}, expected {reference:?}")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(rank: i64, state: &str, mean: f64, count: i64) -> TopRow {
        TopRow {
            rank,
            state: state.into(),
            mean,
            count,
        }
    }

    #[test]
    fn top3_mean_is_compared_within_tolerance() {
        let want = Output::Top3(vec![row(1, "Ohio", 0.25, 10)]);
        let summed_differently = Output::Top3(vec![row(1, "Ohio", 0.25 * (1.0 + 1e-12), 10)]);
        assert_eq!(summed_differently.check(&want), Ok(()));
        let wrong = Output::Top3(vec![row(1, "Ohio", 0.26, 10)]);
        assert!(wrong.check(&want).is_err());
    }

    #[test]
    fn extinction_is_compared_per_galaxy() {
        let want = Output::Extinction([(0, 0.5), (1, 0.7)].into_iter().collect());
        let missing = Output::Extinction([(0, 0.5)].into_iter().collect());
        assert!(missing.check(&want).is_err());
        let swapped = Output::Extinction([(0, 0.7), (1, 0.5)].into_iter().collect());
        assert!(swapped.check(&want).is_err());
        assert_eq!(want.check(&want), Ok(()));
    }

    #[test]
    fn chain_totals_must_match_exactly() {
        let want = Output::Chain {
            count: 3,
            id_sum: 3,
            x_sum: 9,
        };
        let lost_item = Output::Chain {
            count: 2,
            id_sum: 1,
            x_sum: 5,
        };
        assert!(lost_item.check(&want).is_err());
        assert_eq!(want.check(&want), Ok(()));
    }
}
