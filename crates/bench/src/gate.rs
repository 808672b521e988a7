//! The behaviour-frozen check behind `experiments ci-gate`.
//!
//! For pinned settings every value of a `BENCH_*.json` except the
//! stopwatch readings is an exact, machine-independent count. The gate
//! re-runs each artifact figure at the settings its [`Artifact`] row pins
//! and holds the rendered document to the committed one leaf by leaf: a
//! count that moved — up *or* down, by any amount — a missing row and an
//! extra row all fail, naming file, row and key. After an *intentional*
//! change `experiments ci-gate --update` rewrites the files and the PR's
//! diff shows exactly which counts moved.
//!
//! [`Artifact`]: crate::figures::Artifact

use std::collections::BTreeMap;
use std::path::Path;

use crate::runner::COLUMNS;

/// Every leaf of an artifact in [`crate::runner::series_to_json`]'s layout
/// — a `"label"` line per point, a line per result row — as
/// `point / algo → key → the value as written`. Values stay text: both
/// sides come out of the same serializer, so equal counts are equal
/// strings.
fn leaves(doc: &str) -> BTreeMap<String, BTreeMap<&str, &str>> {
    let mut out = BTreeMap::new();
    let mut label = "";
    for line in doc.lines().map(|l| l.trim().trim_end_matches(',')) {
        if let Some(l) = line.strip_prefix("\"label\": ") {
            label = l.trim_matches('"');
        }
        let row = line.strip_prefix("{\"algo\": ");
        let Some(row) = row.and_then(|r| r.strip_suffix('}')) else {
            continue;
        };
        let mut cells = row.split(", ");
        let algo = cells.next().unwrap_or_default().trim_matches('"');
        let cells = cells.filter_map(|cell| cell.split_once(": "));
        out.insert(
            format!("{label} / {algo}"),
            cells.map(|(key, v)| (key.trim_matches('"'), v)).collect(),
        );
    }
    out
}

/// Where `fresh` differs from `committed`, one line per row or leaf, each
/// starting with `file`; empty when nothing but wall-clock columns moved.
pub fn compare(file: &str, committed: &str, fresh: &str) -> Vec<String> {
    let counted = |key: &str| !COLUMNS.iter().any(|c| c.key == key && c.wall_clock);
    let (old, new) = (leaves(committed), leaves(fresh));
    let mut diffs = Vec::new();
    for (row, was) in &old {
        let Some(now) = new.get(row) else {
            diffs.push(format!("{file}: {row}: row missing from this run"));
            continue;
        };
        for (key, v) in was {
            match now.get(key) {
                Some(n) if n == v || !counted(key) => {}
                Some(n) => diffs.push(format!("{file}: {row}: {key} {v} -> {n}")),
                None => diffs.push(format!("{file}: {row}: {key} missing from this run")),
            }
        }
        for key in now.keys().filter(|key| !was.contains_key(*key)) {
            diffs.push(format!("{file}: {row}: {key} not in the committed file"));
        }
    }
    for row in new.keys().filter(|row| !old.contains_key(*row)) {
        diffs.push(format!("{file}: {row}: row not in the committed file"));
    }
    diffs
}

/// Holds `fresh` to the committed artifact at `path`; with `update`,
/// makes it the committed one instead.
pub fn hold(path: &Path, fresh: &str, update: bool) -> Result<(), Vec<String>> {
    let file = path.display();
    if update {
        return std::fs::write(path, fresh).map_err(|e| vec![format!("{file}: cannot write: {e}")]);
    }
    let committed = std::fs::read_to_string(path).map_err(|e| {
        vec![format!(
            "{file}: cannot read the committed artifact: {e} (run `experiments ci-gate \
             --update` and commit the file)"
        )]
    })?;
    let diffs = compare(&file.to_string(), &committed, fresh);
    if diffs.is_empty() {
        Ok(())
    } else {
        Err(diffs)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{run_series, series_to_json, Stack};
    use crate::Params;

    const SAMPLE: &str = r#"{
  "figure": "tickpath",
  "points": [
    {
      "label": "T2-defaults",
      "results": [
        {"algo": "IMA", "cpu_per_ts": 0.000740215, "alloc_per_ts": 0.000, "steps_per_ts": 42.4},
        {"algo": "GMA", "cpu_per_ts": 0.001034350, "alloc_per_ts": 0.125, "steps_per_ts": 3.0}
      ]
    },
    {
      "label": "hi-churn",
      "results": [
        {"algo": "IMA", "cpu_per_ts": 0.000940215, "alloc_per_ts": 0.000, "steps_per_ts": 61.0}
      ]
    }
  ]
}"#;

    #[test]
    fn a_count_that_moved_fails_in_either_direction_by_any_amount() {
        assert_eq!(compare("f", SAMPLE, SAMPLE), Vec::<String>::new());
        // Down (the 5% gate passed every improvement), up by a quarter of
        // a percent (it passed anything under 5%), and far up.
        for now in ["40.0", "42.5", "60.0"] {
            let moved = SAMPLE.replace(
                "\"steps_per_ts\": 42.4",
                &format!("\"steps_per_ts\": {now}"),
            );
            let want = format!("BENCH_x.json: T2-defaults / IMA: steps_per_ts 42.4 -> {now}");
            assert_eq!(compare("BENCH_x.json", SAMPLE, &moved), [want]);
        }
        // The same key of the same algo at another point is another leaf.
        let moved = SAMPLE.replace("61.0", "61.1");
        let diffs = compare("f", SAMPLE, &moved);
        assert_eq!(diffs, ["f: hi-churn / IMA: steps_per_ts 61.0 -> 61.1"]);
    }

    #[test]
    fn a_different_stopwatch_reading_passes() {
        let slower = SAMPLE
            .replace("0.000740215", "0.009")
            .replace("0.001034350", "1.5");
        assert_ne!(slower, SAMPLE);
        assert!(compare("f", SAMPLE, &slower).is_empty());
    }

    #[test]
    fn a_missing_and_an_extra_row_or_key_fail() {
        let renamed = SAMPLE.replace("\"algo\": \"GMA\"", "\"algo\": \"GMA2\"");
        assert_eq!(
            compare("f", SAMPLE, &renamed),
            [
                "f: T2-defaults / GMA: row missing from this run",
                "f: T2-defaults / GMA2: row not in the committed file"
            ]
        );
        let one_point = &SAMPLE[..SAMPLE.find("    {\n      \"label\": \"hi-churn\"").unwrap()];
        let gone = ["f: hi-churn / IMA: row missing from this run"];
        assert_eq!(compare("f", SAMPLE, one_point), gone);
        let extra = ["f: hi-churn / IMA: row not in the committed file"];
        assert_eq!(compare("f", one_point, SAMPLE), extra);
        assert_eq!(compare("f", SAMPLE, "").len(), 3, "an unreadable run fails");
        // A column the committed file predates, and one it has that the
        // run lost — the stopwatch's included.
        let fewer = SAMPLE.replace(", \"steps_per_ts\": 61.0", "");
        let lost = ["f: hi-churn / IMA: steps_per_ts missing from this run"];
        assert_eq!(compare("f", SAMPLE, &fewer), lost);
        let new = ["f: hi-churn / IMA: steps_per_ts not in the committed file"];
        assert_eq!(compare("f", &fewer, SAMPLE), new);
        let untimed = SAMPLE.replace("\"cpu_per_ts\": 0.000940215, ", "");
        assert_eq!(compare("f", SAMPLE, &untimed).len(), 1);
    }

    #[test]
    fn update_then_compare_is_green_and_an_edit_is_named() {
        let tiny = Params {
            edges: 150,
            n_objects: 300,
            n_queries: 15,
            k: 4,
            ..Params::default()
        };
        let run = || {
            let points = [("p".to_string(), tiny.clone())];
            let stacks = [Stack::GMA, Stack::engine(2)];
            series_to_json("tiny", &run_series(&points, &stacks, 3, 1, false))
        };
        let dir = std::env::temp_dir().join(format!("rnn-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("BENCH_tiny.json");
        let missing = hold(&path, &run(), false).unwrap_err();
        assert!(missing[0].contains("--update"), "{missing:?}");
        hold(&path, &run(), true).unwrap();
        // A second run repeats every count; only its stopwatch differs.
        hold(&path, &run(), false).unwrap();
        let committed = std::fs::read_to_string(&path).unwrap();
        assert!(committed.contains("\"max_tick_resync\": "));
        let edited = committed.replacen("\"max_tick_resync\": ", "\"max_tick_resync\": 1", 1);
        std::fs::write(&path, edited).unwrap();
        let diffs = hold(&path, &run(), false).unwrap_err();
        assert_eq!(diffs.len(), 1, "{diffs:?}");
        assert!(diffs[0].contains("BENCH_tiny.json: p / GMA: max_tick_resync 10 -> 0"));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
