//! The committed performance baseline: `BENCH_baseline.json`.
//!
//! `bench-baseline --out BENCH_baseline.json` runs the [`crate::kernels`]
//! and [`crate::sweep`] benchmark bodies and persists their medians;
//! `bench-baseline --check BENCH_baseline.json` verifies the committed
//! file parses and still covers every required group, so CI catches a
//! baseline that silently rots as benchmarks are added or renamed.
//! Numbers are machine-relative — the file records the trajectory on
//! the machine that produced it, for eyeballing regressions across PRs,
//! not a cross-machine contract. To compare two baselines *across*
//! machine states (CPU scaling, container noise, kernel drift — PR 4
//! measured untouched kernels at 0.83-0.9x of PR 3's run), use the
//! like-for-like mode: [`compare`] normalizes every ratio by the median
//! drift of the [`SENTINEL_KERNELS`] — kernels whose code has never
//! been touched since their introduction, so any ratio change they show
//! is the machine, not the code. The sentinel list is recorded in the
//! baseline file itself (`"sentinels"`), so a stale list fails
//! [`check`].

use criterion::Criterion;
use serde_json::{json, Value};
use std::time::Duration;

/// Schema version of the baseline file.
pub const FORMAT: u64 = 1;

/// Benchmark groups the baseline must cover.
pub const REQUIRED_GROUPS: &[&str] = &[
    "cmob",
    "svb",
    "stream_queue",
    "directory",
    "cache",
    "torus",
    "prefetchers",
    "dsm",
    "sweep",
    "trace_plane",
];

/// Kernels whose benchmark bodies *and* measured code paths have been
/// untouched since they were introduced (PR 2/3): their new/old ratio
/// between two baseline files measures machine drift, nothing else.
/// Deliberately excluded: `stream_queue/*` (rewritten PR 3),
/// `directory/*`, `prefetchers/ghb_ac_on_miss`, `dsm/*` (PR 4),
/// `sweep/*` (PR 3, and sensitive to core count), and
/// `torus/hops_and_bisection` (dropped PR 9: at ~1 ns the measurement
/// is timer/loop overhead, so its ratio tracks harness noise rather
/// than machine drift and skews the median of a small sentinel set).
/// `svb/*` and `cache/l2_get_insert` were retired when the SVB gained
/// an insertion-order queue and cache ways lost their metadata field:
/// their code changed, so their ratios stopped measuring the machine.
/// Three sentinels is the minimum [`compare`] accepts, so `Cmob` and
/// `StridePrefetcher` must stay untouched (or new sentinels be chosen).
pub const SENTINEL_KERNELS: &[&str] = &[
    "cmob/append",
    "cmob/read_window_32",
    "prefetchers/stride_on_miss",
];

/// Runs the kernel and sweep benchmark suites, returning the baseline
/// document. `quick` trades sampling time for speed (CI smoke); the
/// committed file should be produced without it.
pub fn measure(quick: bool) -> Value {
    let mut c = if quick {
        // Smoke sampling: enough samples that the median rides out CPU
        // frequency and scheduling transients (3 x 30 ms proved too
        // noisy to gate on), still ~seconds per kernel group.
        Criterion::default()
            .sample_size(5)
            .measurement_time(Duration::from_millis(100))
    } else {
        Criterion::default().sample_size(20)
    };
    crate::kernels::all(&mut c);
    crate::sweep::all(&mut c);
    crate::trace_plane::all(&mut c);

    let mut groups: Vec<(String, Vec<(String, Value)>)> = Vec::new();
    for r in c.results() {
        let (group, bench) = r.name.split_once('/').unwrap_or(("misc", r.name.as_str()));
        let entry = json!({
            "median_ns": r.median_ns,
            "min_ns": r.min_ns,
            "max_ns": r.max_ns,
        });
        match groups.iter_mut().find(|(g, _)| g == group) {
            Some((_, benches)) => benches.push((bench.to_string(), entry)),
            None => groups.push((group.to_string(), vec![(bench.to_string(), entry)])),
        }
    }
    let groups: Vec<(String, Value)> = groups
        .into_iter()
        .map(|(g, benches)| (g, Value::Object(benches)))
        .collect();
    json!({
        "format": FORMAT,
        "quick": quick,
        "sentinels": SENTINEL_KERNELS,
        "groups": Value::Object(groups),
    })
}

/// Looks up `group/bench` → the named statistic in a baseline document.
fn stat_of(doc: &Value, name: &str, stat: &str) -> Option<f64> {
    let (group, bench) = name.split_once('/')?;
    doc.get("groups")?
        .get(group)?
        .get(bench)?
        .get(stat)?
        .as_f64()
}

/// Looks up `group/bench` → `median_ns` in a baseline document.
fn median_of(doc: &Value, name: &str) -> Option<f64> {
    stat_of(doc, name, "median_ns")
}

/// Every `group/bench` name in a baseline document, in file order.
fn bench_names(doc: &Value) -> Vec<String> {
    let mut names = Vec::new();
    if let Some(groups) = doc.get("groups").and_then(Value::as_object) {
        for (group, benches) in groups {
            if let Some(benches) = benches.as_object() {
                for (bench, _) in benches {
                    names.push(format!("{group}/{bench}"));
                }
            }
        }
    }
    names
}

/// One kernel's row in a like-for-like comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct CompareEntry {
    /// `group/bench` name.
    pub name: String,
    /// Median in the old baseline (ns).
    pub old_ns: f64,
    /// Median in the new baseline (ns).
    pub new_ns: f64,
    /// Minimum sample in the old baseline (ns); the median when the
    /// file predates min recording.
    pub old_min_ns: f64,
    /// Minimum sample in the new baseline (ns); ditto.
    pub new_min_ns: f64,
    /// Whether this kernel is a drift sentinel.
    pub sentinel: bool,
}

impl CompareEntry {
    /// Raw median new/old ratio (machine drift included).
    pub fn raw_ratio(&self) -> f64 {
        self.new_ns / self.old_ns
    }

    /// Raw minimum new/old ratio. Scheduling and frequency transients
    /// only ever *inflate* a sample, so the per-run minimum is the
    /// noise-robust estimate of a kernel's true cost — the statistic
    /// the CI regression gate reads.
    pub fn min_ratio(&self) -> f64 {
        self.new_min_ns / self.old_min_ns
    }
}

/// A like-for-like comparison of two baseline files (see [`compare`]).
#[derive(Debug, Clone, PartialEq)]
pub struct CompareReport {
    /// Median raw ratio over the sentinel kernels: the machine-drift
    /// factor between the two runs.
    pub drift: f64,
    /// Median of the sentinels' *minimum*-sample ratios: the drift
    /// factor for the min statistic the gate uses.
    pub drift_min: f64,
    /// Per-kernel rows, in the old file's order (kernels present in
    /// both files only).
    pub entries: Vec<CompareEntry>,
}

impl CompareReport {
    /// A kernel's drift-normalized ratio: raw ratio divided by the
    /// sentinel drift. ~1.0 means "moved with the machine"; below 1.0
    /// is a genuine speedup, above a genuine regression.
    pub fn normalized(&self, entry: &CompareEntry) -> f64 {
        entry.raw_ratio() / self.drift
    }

    /// The min-statistic analogue of [`CompareReport::normalized`]:
    /// what the CI gate thresholds (see [`CompareEntry::min_ratio`]).
    pub fn normalized_min(&self, entry: &CompareEntry) -> f64 {
        entry.min_ratio() / self.drift_min
    }
}

/// Compares two baseline documents like for like: every kernel's
/// new/old median ratio is normalized by the median ratio of the
/// [`SENTINEL_KERNELS`], cancelling machine drift between the runs.
///
/// # Errors
///
/// A description of the first problem: unparsable documents, or fewer
/// than three sentinel kernels present in both files (too few to take a
/// robust median).
pub fn compare(old: &Value, new: &Value) -> Result<CompareReport, String> {
    let mut entries = Vec::new();
    for name in bench_names(old) {
        let (Some(old_ns), Some(new_ns)) = (median_of(old, &name), median_of(new, &name)) else {
            continue;
        };
        if old_ns <= 0.0 || new_ns <= 0.0 {
            return Err(format!("`{name}` has a non-positive median"));
        }
        let old_min_ns = stat_of(old, &name, "min_ns")
            .filter(|&m| m > 0.0)
            .unwrap_or(old_ns);
        let new_min_ns = stat_of(new, &name, "min_ns")
            .filter(|&m| m > 0.0)
            .unwrap_or(new_ns);
        entries.push(CompareEntry {
            sentinel: SENTINEL_KERNELS.contains(&name.as_str()),
            name,
            old_ns,
            new_ns,
            old_min_ns,
            new_min_ns,
        });
    }
    let median_over = |ratios: &mut Vec<f64>| {
        ratios.sort_by(|a, b| a.partial_cmp(b).expect("ratios are finite"));
        let mid = ratios.len() / 2;
        if ratios.len() % 2 == 1 {
            ratios[mid]
        } else {
            (ratios[mid - 1] + ratios[mid]) / 2.0
        }
    };
    let sentinels: Vec<&CompareEntry> = entries.iter().filter(|e| e.sentinel).collect();
    if sentinels.len() < 3 {
        return Err(format!(
            "only {} sentinel kernels present in both files; need >= 3 for a drift estimate",
            sentinels.len()
        ));
    }
    let drift = median_over(&mut sentinels.iter().map(|e| e.raw_ratio()).collect());
    let drift_min = median_over(&mut sentinels.iter().map(|e| e.min_ratio()).collect());
    Ok(CompareReport {
        drift,
        drift_min,
        entries,
    })
}

/// Kernels faster than this are exempt from [`regressions`]: their
/// ratios quantize on timer resolution, not code.
pub const GATE_FLOOR_NS: f64 = 25.0;

/// Kernels in `report` whose drift-normalized *minimum*-sample ratio
/// exceeds `threshold` — the CI regression gate.
///
/// The gate reads minima, not medians: cross-process noise (scheduling,
/// frequency transients, allocator layout) only ever inflates samples,
/// so medians of a quick CI run flap well past any usable threshold
/// while minima stay put. A kernel whose *best case* got slower really
/// did regress.
///
/// `only` restricts the scan to kernels whose full `group/bench` name
/// or bare group matches an element (empty = every kernel). Sentinels
/// are always skipped: they *define* the drift estimate, so gating on
/// them would be circular. Kernels under [`GATE_FLOOR_NS`] are skipped
/// too: at single-digit nanoseconds one timer tick of difference trips
/// any ratio threshold, so such kernels are tracked by the committed
/// full-sampling trajectory instead of the smoke gate.
pub fn regressions(report: &CompareReport, threshold: f64, only: &[&str]) -> Vec<String> {
    report
        .entries
        .iter()
        .filter(|e| !e.sentinel && e.old_min_ns >= GATE_FLOOR_NS)
        .filter(|e| {
            only.is_empty()
                || only
                    .iter()
                    .any(|o| e.name == *o || e.name.split('/').next() == Some(*o))
        })
        .filter(|e| report.normalized_min(e) > threshold)
        .map(|e| {
            format!(
                "{}: min {:.0} -> {:.0} ns, {:.2}x like-for-like (> {threshold:.2}x)",
                e.name,
                e.old_min_ns,
                e.new_min_ns,
                report.normalized_min(e)
            )
        })
        .collect()
}

/// Validates a baseline document: format version, every required group
/// present, and every entry carrying a positive `median_ns`. With
/// `require_full`, additionally rejects documents measured under
/// `--quick` sampling — the committed baseline must be a full-sampling
/// run, not CI-smoke noise. Returns the number of benchmark entries.
///
/// # Errors
///
/// A human-readable description of the first problem found.
pub fn check(doc: &Value, require_full: bool) -> Result<usize, String> {
    match doc.get("format").and_then(Value::as_u64) {
        Some(FORMAT) => {}
        other => return Err(format!("format must be {FORMAT}, found {other:?}")),
    }
    if require_full && doc.get("quick").and_then(Value::as_bool) != Some(false) {
        return Err("baseline was measured with --quick sampling; regenerate without it".into());
    }
    if require_full {
        // The committed baseline must document the current sentinel set
        // (and the sentinels must actually exist in it), so the
        // like-for-like comparison cannot silently rot.
        let listed: Vec<String> = doc
            .get("sentinels")
            .and_then(Value::as_array)
            .map(|a| {
                a.iter()
                    .filter_map(|v| v.as_str().map(String::from))
                    .collect()
            })
            .unwrap_or_default();
        for required in SENTINEL_KERNELS {
            if !listed.iter().any(|s| s == required) {
                return Err(format!(
                    "sentinel `{required}` missing from the baseline's `sentinels` list"
                ));
            }
            if median_of(doc, required).is_none() {
                return Err(format!(
                    "sentinel `{required}` names no benchmark entry in the baseline"
                ));
            }
        }
    }
    let groups = doc
        .get("groups")
        .and_then(Value::as_object)
        .ok_or("missing `groups` object")?;
    for required in REQUIRED_GROUPS {
        if !groups.iter().any(|(g, _)| g == required) {
            return Err(format!("required group `{required}` is missing"));
        }
    }
    let mut entries = 0usize;
    for (group, benches) in groups {
        let benches = benches
            .as_object()
            .ok_or_else(|| format!("group `{group}` is not an object"))?;
        if benches.is_empty() {
            return Err(format!("group `{group}` has no benchmarks"));
        }
        for (bench, entry) in benches {
            let median = entry.get("median_ns").and_then(Value::as_f64);
            match median {
                Some(m) if m > 0.0 && m.is_finite() => entries += 1,
                other => {
                    return Err(format!(
                        "`{group}/{bench}` median_ns must be positive, found {other:?}"
                    ))
                }
            }
        }
    }
    Ok(entries)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The committed baseline at the workspace root must parse and
    /// cover every required group.
    #[test]
    fn committed_baseline_is_valid() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
        let text = std::fs::read_to_string(path)
            .expect("BENCH_baseline.json must be committed at the workspace root");
        let doc: Value = serde_json::from_str(&text).expect("baseline must parse");
        let entries = check(&doc, true).expect("baseline must validate as a full-sampling run");
        assert!(
            entries >= 15,
            "suspiciously few baseline entries: {entries}"
        );
        // The headline kernels this PR's acceptance is stated against.
        for (group, bench) in [
            ("stream_queue", "pop_agreed_2way"),
            ("dsm", "read_write_pair"),
            ("sweep", "stored_replay_db2"),
        ] {
            let m = doc
                .get("groups")
                .and_then(|g| g.get(group))
                .and_then(|g| g.get(bench))
                .and_then(|b| b.get("median_ns"))
                .and_then(Value::as_f64);
            assert!(m.is_some(), "{group}/{bench} missing from baseline");
        }
    }

    #[test]
    fn check_rejects_missing_groups() {
        let doc =
            json!({ "format": FORMAT, "groups": { "cmob": { "append": { "median_ns": 3.0 } } } });
        let err = check(&doc, false).unwrap_err();
        assert!(err.contains("missing"), "unexpected error: {err}");
    }

    #[test]
    fn check_rejects_bad_medians() {
        let mut groups: Vec<(String, Value)> = REQUIRED_GROUPS
            .iter()
            .map(|g| {
                (
                    g.to_string(),
                    json!({ "x": { "median_ns": 1.0, "min_ns": 1.0, "max_ns": 1.0 } }),
                )
            })
            .collect();
        let doc = json!({ "format": FORMAT, "groups": Value::Object(groups.clone()) });
        assert_eq!(check(&doc, false).unwrap(), REQUIRED_GROUPS.len());
        groups[0].1 = json!({ "x": { "median_ns": -1.0 } });
        let doc = json!({ "format": FORMAT, "groups": Value::Object(groups) });
        assert!(check(&doc, false).is_err());
    }

    /// Builds a baseline doc from `(group/bench, median)` pairs.
    fn doc_of(entries: &[(&str, f64)]) -> Value {
        let mut groups: Vec<(String, Value)> = Vec::new();
        for (name, median) in entries {
            let (group, bench) = name.split_once('/').unwrap();
            let entry = json!({ "median_ns": median, "min_ns": median, "max_ns": median });
            match groups.iter_mut().find(|(g, _)| g == group) {
                Some((_, benches)) => {
                    if let Value::Object(b) = benches {
                        b.push((bench.to_string(), entry));
                    }
                }
                None => groups.push((
                    group.to_string(),
                    Value::Object(vec![(bench.to_string(), entry)]),
                )),
            }
        }
        json!({ "format": FORMAT, "quick": false, "groups": Value::Object(groups) })
    }

    #[test]
    fn compare_normalizes_by_sentinel_drift() {
        // Machine got 2x slower: every sentinel doubles. One touched
        // kernel ("dsm/read_write_pair") also doubles raw — i.e. it
        // merely moved with the machine — and one actually got faster.
        let mut old_entries: Vec<(&str, f64)> =
            SENTINEL_KERNELS.iter().map(|s| (*s, 100.0)).collect();
        old_entries.push(("dsm/read_write_pair", 600.0));
        old_entries.push(("stream_queue/pop_agreed_2way", 400.0));
        let mut new_entries: Vec<(&str, f64)> =
            SENTINEL_KERNELS.iter().map(|s| (*s, 200.0)).collect();
        new_entries.push(("dsm/read_write_pair", 1200.0));
        new_entries.push(("stream_queue/pop_agreed_2way", 400.0));

        let report = compare(&doc_of(&old_entries), &doc_of(&new_entries)).unwrap();
        assert!((report.drift - 2.0).abs() < 1e-12, "drift {}", report.drift);
        let by_name = |n: &str| {
            report
                .entries
                .iter()
                .find(|e| e.name == n)
                .unwrap_or_else(|| panic!("{n} missing"))
        };
        let moved_with_machine = by_name("dsm/read_write_pair");
        assert!((moved_with_machine.raw_ratio() - 2.0).abs() < 1e-12);
        assert!(
            (report.normalized(moved_with_machine) - 1.0).abs() < 1e-12,
            "a kernel that doubled on a 2x-slower machine is unchanged like-for-like"
        );
        let genuinely_faster = by_name("stream_queue/pop_agreed_2way");
        assert!(
            (report.normalized(genuinely_faster) - 0.5).abs() < 1e-12,
            "flat raw time on a 2x-slower machine is a genuine 2x speedup"
        );
        assert!(by_name("cmob/append").sentinel);
        assert!(!moved_with_machine.sentinel);
    }

    #[test]
    fn regressions_gate_on_normalized_ratio_and_scope() {
        // Machine 2x slower (sentinels double). One kernel triples raw
        // (1.5x like-for-like), one merely doubles (1.0x), one is in a
        // group the gate doesn't watch.
        let mut old_entries: Vec<(&str, f64)> =
            SENTINEL_KERNELS.iter().map(|s| (*s, 100.0)).collect();
        old_entries.push(("dsm/read_write_pair", 100.0));
        old_entries.push(("sweep/stored_replay_db2", 100.0));
        old_entries.push(("directory/x", 100.0));
        let mut new_entries: Vec<(&str, f64)> =
            SENTINEL_KERNELS.iter().map(|s| (*s, 200.0)).collect();
        new_entries.push(("dsm/read_write_pair", 300.0));
        new_entries.push(("sweep/stored_replay_db2", 200.0));
        new_entries.push(("directory/x", 500.0));

        let report = compare(&doc_of(&old_entries), &doc_of(&new_entries)).unwrap();
        let flagged = regressions(&report, 1.15, &["dsm", "sweep/stored_replay_db2"]);
        assert_eq!(flagged.len(), 1, "flagged: {flagged:?}");
        assert!(flagged[0].starts_with("dsm/read_write_pair"), "{flagged:?}");
        // Unscoped, the out-of-watchlist regression is caught too —
        // but the sentinels (which doubled raw) never are.
        let flagged = regressions(&report, 1.15, &[]);
        assert_eq!(flagged.len(), 2, "flagged: {flagged:?}");
        assert!(regressions(&report, 2.6, &[]).is_empty());
    }

    #[test]
    fn compare_needs_enough_sentinels() {
        let old = doc_of(&[("cmob/append", 1.0), ("cmob/read_window_32", 1.0)]);
        let new = doc_of(&[("cmob/append", 1.0), ("cmob/read_window_32", 1.0)]);
        let err = compare(&old, &new).unwrap_err();
        assert!(err.contains("sentinel"), "unexpected error: {err}");
    }

    #[test]
    fn full_check_requires_the_sentinel_list() {
        let mut entries: Vec<(&str, f64)> = SENTINEL_KERNELS.iter().map(|s| (*s, 1.0)).collect();
        entries.extend(REQUIRED_GROUPS.iter().map(|g| {
            // Ensure every required group has at least one bench.
            match *g {
                "cmob" => ("cmob/append", 1.0),
                "svb" => ("svb/probe_miss", 1.0),
                "stream_queue" => ("stream_queue/x", 1.0),
                "directory" => ("directory/x", 1.0),
                "cache" => ("cache/l2_get_insert", 1.0),
                "torus" => ("torus/hops_and_bisection", 1.0),
                "prefetchers" => ("prefetchers/stride_on_miss", 1.0),
                "dsm" => ("dsm/x", 1.0),
                "sweep" => ("sweep/x", 1.0),
                _ => ("trace_plane/x", 1.0),
            }
        }));
        let mut doc = doc_of(&entries);
        assert!(
            check(&doc, true).unwrap_err().contains("sentinel"),
            "a full baseline without a sentinel list must be rejected"
        );
        if let Value::Object(pairs) = &mut doc {
            pairs.insert(
                2,
                (
                    "sentinels".to_string(),
                    serde_json::to_value(&SENTINEL_KERNELS),
                ),
            );
        }
        check(&doc, true).expect("sentinel-listing baseline validates");
    }

    #[test]
    fn check_rejects_quick_runs_when_full_required() {
        let groups: Vec<(String, Value)> = REQUIRED_GROUPS
            .iter()
            .map(|g| {
                (
                    g.to_string(),
                    json!({ "x": { "median_ns": 1.0, "min_ns": 1.0, "max_ns": 1.0 } }),
                )
            })
            .collect();
        let doc = json!({ "format": FORMAT, "quick": true, "groups": Value::Object(groups) });
        assert!(check(&doc, false).is_ok(), "smoke runs validate loosely");
        let err = check(&doc, true).unwrap_err();
        assert!(err.contains("--quick"), "unexpected error: {err}");
    }
}
