//! Result records, the record sink every experiment times its cases
//! through, ASCII tables, and CSV output.
//!
//! Every experiment binary emits two artifacts: a human-readable table on
//! stdout (shaped like the paper's tables/figure series) and a CSV file
//! under `results/` for plotting. An experiment describes each case with
//! `Record::case` and hands it to its `Sink` together with the closure
//! to time; a binary prints [`header`], streams [`progress`], renders
//! [`pivot`] tables and ends with [`save`].

use crate::host::HostInfo;
use crate::protocol::{measure_auto, BenchStat, Protocol};
use std::fmt::Write as _;
use std::fs;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// One measured configuration — a row of an experiment's CSV.
#[derive(Clone, Debug)]
pub struct Record {
    /// Experiment id (e.g. "fig3").
    pub experiment: String,
    /// Algorithm label.
    pub algo: String,
    /// Context length.
    pub l: usize,
    /// Embedding dimension.
    pub dk: usize,
    /// Target sparsity factor (NaN when not applicable).
    pub sf_target: f64,
    /// Achieved sparsity factor (NaN when not applicable).
    pub sf_achieved: f64,
    /// Mean runtime in seconds.
    pub mean_s: f64,
    /// Fastest run.
    pub min_s: f64,
    /// Slowest run.
    pub max_s: f64,
    /// Standard deviation.
    pub std_s: f64,
    /// Timed iterations.
    pub iters: usize,
    /// Free-form note ("estimated", "skipped: …", mask name, …).
    pub note: String,
}

impl Record {
    /// A case yet to be measured: no sparsity factors, no note, no timings.
    /// The [`Sink`] it is handed to fills in the experiment id and the
    /// statistics.
    pub(crate) fn case(algo: impl Into<String>, l: usize, dk: usize) -> Record {
        Record {
            experiment: String::new(),
            algo: algo.into(),
            l,
            dk,
            sf_target: f64::NAN,
            sf_achieved: f64::NAN,
            mean_s: f64::NAN,
            min_s: f64::NAN,
            max_s: f64::NAN,
            std_s: f64::NAN,
            iters: 0,
            note: String::new(),
        }
    }

    /// Set the target and achieved sparsity factors.
    pub(crate) fn sf(mut self, target: f64, achieved: f64) -> Record {
        self.sf_target = target;
        self.sf_achieved = achieved;
        self
    }

    /// Set the free-form note.
    pub(crate) fn note(mut self, note: impl Into<String>) -> Record {
        self.note = note.into();
        self
    }

    /// CSV header matching [`Record::to_csv_row`].
    pub(crate) const CSV_HEADER: &'static str =
        "experiment,algo,L,dk,sf_target,sf_achieved,mean_s,min_s,max_s,std_s,iters,note";

    /// Serialize as one CSV row.
    pub(crate) fn to_csv_row(&self) -> String {
        format!(
            "{},{},{},{},{},{},{},{},{},{},{},{}",
            self.experiment,
            self.algo.replace(',', ";"),
            self.l,
            self.dk,
            fmt_f64(self.sf_target),
            fmt_f64(self.sf_achieved),
            fmt_f64(self.mean_s),
            fmt_f64(self.min_s),
            fmt_f64(self.max_s),
            fmt_f64(self.std_s),
            self.iters,
            self.note.replace(',', ";"),
        )
    }
}

fn fmt_f64(v: f64) -> String {
    if v.is_nan() {
        "".to_string()
    } else {
        format!("{v:.6e}")
    }
}

/// Where an experiment's measurements go: every case is timed under the
/// experiment's protocol ceiling and per-case budget, completed into a
/// [`Record`], streamed to the caller's callback and kept for the CSV.
pub(crate) struct Sink<F> {
    experiment: &'static str,
    protocol: Protocol,
    budget_s: f64,
    on_record: F,
    records: Vec<Record>,
}

impl<F: FnMut(&Record)> Sink<F> {
    /// A sink for `experiment` (the id its records carry).
    pub(crate) fn new(
        experiment: &'static str,
        protocol: Protocol,
        budget_s: f64,
        on_record: F,
    ) -> Self {
        Sink {
            experiment,
            protocol,
            budget_s,
            on_record,
            records: Vec::new(),
        }
    }

    /// Time `f` under [`measure_auto`] and record it as `case`.
    pub(crate) fn time(&mut self, case: Record, f: impl FnMut()) -> BenchStat {
        let stat = measure_auto(self.protocol, self.budget_s, f);
        self.push(case, stat);
        stat
    }

    /// Record `case` with statistics measured elsewhere.
    pub(crate) fn push(&mut self, case: Record, stat: BenchStat) {
        self.emit(Record {
            mean_s: stat.mean,
            min_s: stat.min,
            max_s: stat.max,
            std_s: stat.std,
            iters: stat.iters,
            ..case
        });
    }

    /// Record `case` without running it: dense attention does `O(L²)` work,
    /// so its runtime is extrapolated from the largest measured point
    /// `(l0, mean seconds)` — the paper does the same where a dense run no
    /// longer fits. The record has `iters == 0` and no spread.
    pub(crate) fn estimated_quadratic(&mut self, case: Record, (l0, t0): (usize, f64)) {
        let mean_s = t0 * (case.l as f64 / l0 as f64).powi(2);
        self.emit(Record {
            mean_s,
            ..case.note(format!("estimated from L={l0} via O(L^2) work scaling"))
        });
    }

    fn emit(&mut self, mut record: Record) {
        record.experiment = self.experiment.into();
        (self.on_record)(&record);
        self.records.push(record);
    }

    /// The records, in the order they were produced.
    pub(crate) fn finish(self) -> Vec<Record> {
        self.records
    }
}

/// Print a binary's title line, naming the host its numbers come from.
pub fn header(title: &str) {
    println!("{title} on {}\n", HostInfo::detect().summary());
}

/// The progress line a binary streams to stderr as each record lands.
pub fn progress(r: &Record) {
    eprintln!(
        "  measured {:<32} [{}] L={:<9} dk={:<4} Sf={:<8.1e} -> {} {}",
        r.algo,
        r.experiment,
        r.l,
        r.dk,
        r.sf_target,
        fmt_seconds(r.mean_s),
        r.note
    );
}

/// Write the records to `<dir>/<name>.csv` and say where they went.
pub fn save(dir: &Path, name: &str, records: &[Record]) {
    match write_csv(dir, name, records) {
        Ok(path) => println!("\nwrote {}", path.display()),
        Err(e) => eprintln!("\nfailed to write CSV: {e}"),
    }
}

/// Render a series × column table: one row per distinct `algo` among
/// `records` in first-seen order, one column per entry of `cols` in the
/// order given. A cell is `cell` of the record whose `key` equals the
/// column, or `—` when there is none.
pub fn pivot<'r, K: PartialEq>(
    corner: &str,
    records: impl IntoIterator<Item = &'r Record>,
    cols: &[K],
    label: impl Fn(&K) -> String,
    key: impl Fn(&Record) -> K,
    cell: impl Fn(&Record) -> String,
) -> String {
    let records: Vec<&Record> = records.into_iter().collect();
    let mut series: Vec<&str> = Vec::new();
    for r in &records {
        if !series.contains(&r.algo.as_str()) {
            series.push(&r.algo);
        }
    }
    let mut headers = vec![corner.to_string()];
    headers.extend(cols.iter().map(label));
    let header_refs: Vec<&str> = headers.iter().map(String::as_str).collect();
    let rows: Vec<Vec<String>> = series
        .iter()
        .map(|&name| {
            let cells = cols.iter().map(|col| {
                records
                    .iter()
                    .find(|r| r.algo == name && key(r) == *col)
                    .map_or_else(|| "—".to_string(), |r| cell(r))
            });
            std::iter::once(name.to_string()).chain(cells).collect()
        })
        .collect();
    ascii_table(&header_refs, &rows)
}

/// Write records as CSV under `dir/name.csv`, creating the directory.
pub(crate) fn write_csv(dir: &Path, name: &str, records: &[Record]) -> std::io::Result<PathBuf> {
    fs::create_dir_all(dir)?;
    let path = dir.join(format!("{name}.csv"));
    let mut file = std::io::BufWriter::new(fs::File::create(&path)?);
    writeln!(file, "{}", Record::CSV_HEADER)?;
    for r in records {
        writeln!(file, "{}", r.to_csv_row())?;
    }
    file.flush()?;
    Ok(path)
}

/// Render an ASCII table with a header row and alignment.
pub fn ascii_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let cols = headers.len();
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (c, cell) in row.iter().enumerate().take(cols) {
            widths[c] = widths[c].max(cell.len());
        }
    }
    let mut out = String::new();
    let sep = |out: &mut String| {
        for w in &widths {
            let _ = write!(out, "+{}", "-".repeat(w + 2));
        }
        out.push_str("+\n");
    };
    sep(&mut out);
    for (c, h) in headers.iter().enumerate() {
        let _ = write!(out, "| {h:width$} ", width = widths[c]);
    }
    out.push_str("|\n");
    sep(&mut out);
    for row in rows {
        for (c, &width) in widths.iter().enumerate().take(cols) {
            let empty = String::new();
            let cell = row.get(c).unwrap_or(&empty);
            let _ = write!(out, "| {cell:width$} ");
        }
        out.push_str("|\n");
    }
    sep(&mut out);
    out
}

/// Human-friendly seconds: "1.234 s", "12.3 ms", "456 µs".
pub fn fmt_seconds(s: f64) -> String {
    if s.is_nan() {
        return "—".to_string();
    }
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else {
        format!("{:.1} µs", s * 1e6)
    }
}

/// Human-friendly large integer with thousands separators.
pub fn fmt_count(v: u64) -> String {
    let digits = v.to_string();
    let mut out = String::new();
    for (i, ch) in digits.chars().enumerate() {
        if i > 0 && (digits.len() - i) % 3 == 0 {
            out.push(',');
        }
        out.push(ch);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec() -> Record {
        Record {
            experiment: "fig3".into(),
            mean_s: 0.5,
            min_s: 0.4,
            max_s: 0.6,
            std_s: 0.05,
            iters: 5,
            ..Record::case("CSR", 1024, 64).sf(0.01, 0.0101)
        }
    }

    #[test]
    fn sink_times_streams_and_keeps_every_case() {
        let mut streamed = Vec::new();
        let protocol = Protocol {
            warmup: 1,
            iters: 3,
        };
        let mut sink = Sink::new("unit", protocol, 10.0, |r: &Record| {
            streamed.push(r.algo.clone())
        });
        let mut calls = 0;
        let stat = sink.time(Record::case("timed", 8, 2).sf(0.5, 0.25), || calls += 1);
        sink.push(Record::case("pushed", 16, 2).note("n"), stat);
        let records = sink.finish();
        // The pilot run is the warm-up; three timed runs follow.
        assert_eq!((calls, stat.iters), (4, 3));
        assert_eq!(streamed, ["timed", "pushed"]);
        assert_eq!(records[0].experiment, "unit");
        assert_eq!((records[0].sf_target, records[0].sf_achieved), (0.5, 0.25));
        assert_eq!(records[0].mean_s, stat.mean);
        assert_eq!(records[1].experiment, "unit");
        assert_eq!((records[1].l, records[1].iters), (16, 3));
        assert_eq!(records[1].note, "n");
    }

    #[test]
    fn quadratic_estimate_scales_the_reference_point() {
        let mut sink = Sink::new("unit", Protocol::paper(), 1.0, |_: &Record| {});
        let flash = Record::case("FlashAttention", 1024, 32).sf(f64::NAN, 1.0);
        sink.estimated_quadratic(flash, (256, 0.5));
        let r = &sink.finish()[0];
        assert_eq!(r.mean_s, 0.5 * 16.0);
        assert_eq!(r.iters, 0);
        assert!(r.min_s.is_nan() && r.max_s.is_nan() && r.std_s.is_nan());
        assert!(r.note.contains("estimated") && r.note.contains("L=256"));
        assert_eq!((r.experiment.as_str(), r.sf_achieved), ("unit", 1.0));
    }

    #[test]
    fn pivot_keeps_config_column_order_and_first_seen_rows() {
        let at = |algo: &str, l: usize, mean_s: f64| Record {
            mean_s,
            ..Record::case(algo, l, 8)
        };
        // "b" is seen first and has no L=512 point.
        let records = [at("b", 64, 2.0), at("a", 512, 3.0), at("a", 64, 1.0)];
        let table = pivot(
            "series",
            &records,
            &[512, 64],
            |l| format!("L={l}"),
            |r| r.l,
            |r| format!("{}s", r.mean_s),
        );
        let cells: Vec<Vec<&str>> = table
            .lines()
            .filter(|line| line.starts_with('|'))
            .map(|line| line.split('|').map(str::trim).collect())
            .collect();
        assert_eq!(cells[0][1..4], ["series", "L=512", "L=64"]);
        assert_eq!(cells[1][1..4], ["b", "—", "2s"]);
        assert_eq!(cells[2][1..4], ["a", "3s", "1s"]);
        assert_eq!(cells.len(), 3);
    }

    #[test]
    fn every_quick_experiment_names_its_csv() {
        use crate::experiments::*;
        use crate::Scale::Quick;
        let engine = gpa_core::AttentionEngine::with_threads(2);
        let none = |_: &Record| {};
        // (the name the binary passes to `save`, the records it passes).
        let runs = [
            (
                "fig3",
                run_fig3(&engine, &Fig3Config::for_scale(Quick), none),
            ),
            (
                "fig5",
                run_fig5(&engine, &Fig5Config::for_scale(Quick), none),
            ),
            (
                "fig6",
                run_fig6(&engine, &Fig6Config::for_scale(Quick), none),
            ),
            (
                "table3",
                run_table3(&engine, &Table3Config::for_scale(Quick), none),
            ),
            (
                "decode",
                run_decode(&engine, &DecodeConfig::for_scale(Quick), none),
            ),
        ];
        for (csv, records) in runs {
            assert!(!records.is_empty(), "{csv}");
            for r in records {
                assert_eq!(r.experiment, csv, "{r:?}");
                assert!(r.mean_s > 0.0, "{r:?}");
            }
        }
    }

    #[test]
    fn csv_roundtrip_field_count() {
        let row = rec().to_csv_row();
        assert_eq!(
            row.split(',').count(),
            Record::CSV_HEADER.split(',').count()
        );
    }

    #[test]
    fn csv_nan_becomes_empty() {
        let mut r = rec();
        r.sf_target = f64::NAN;
        let row = r.to_csv_row();
        let fields: Vec<&str> = row.split(',').collect();
        assert_eq!(fields[4], "");
    }

    #[test]
    fn csv_commas_in_text_are_escaped() {
        let mut r = rec();
        r.note = "skipped, too big".into();
        assert_eq!(r.to_csv_row().split(',').count(), 12);
    }

    #[test]
    fn write_csv_creates_file() {
        let dir = std::env::temp_dir().join("gpa_bench_test_csv");
        let path = write_csv(&dir, "unit", &[rec(), rec()]).unwrap();
        let content = std::fs::read_to_string(&path).unwrap();
        assert_eq!(content.lines().count(), 3);
        assert!(content.starts_with("experiment,"));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn table_renders_aligned() {
        let t = ascii_table(
            &["algo", "time"],
            &[
                vec!["CSR".into(), "1.0 ms".into()],
                vec!["FlashAttention".into(), "2.0 ms".into()],
            ],
        );
        assert!(t.contains("| CSR "));
        assert!(t.contains("| FlashAttention "));
        let first_line_len = t.lines().next().unwrap().len();
        assert!(t.lines().all(|l| l.len() == first_line_len));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(fmt_seconds(1.5), "1.500 s");
        assert_eq!(fmt_seconds(0.0123), "12.300 ms");
        assert_eq!(fmt_seconds(1e-5), "10.0 µs");
        assert_eq!(fmt_seconds(f64::NAN), "—");
        assert_eq!(fmt_count(1_234_567), "1,234,567");
        assert_eq!(fmt_count(12), "12");
    }
}
