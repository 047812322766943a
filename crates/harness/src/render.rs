//! Plain-text rendering of tables, figure data series, and the replay
//! report.

use std::fmt::Write as _;

use pacer_trace::{ActionStats, SiteId};

/// Renders an aligned ASCII table. The first row is the header.
///
/// # Examples
///
/// ```
/// let text = pacer_harness::render::table(
///     &["program", "races"],
///     &[vec!["eclipse".into(), "77".into()]],
/// );
/// assert!(text.contains("program"));
/// assert!(text.contains("eclipse"));
/// ```
pub fn table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i >= widths.len() {
                widths.push(cell.len());
            } else {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let render_row = |out: &mut String, cells: &[String]| {
        for (i, cell) in cells.iter().enumerate() {
            let pad = widths.get(i).copied().unwrap_or(cell.len());
            let _ = write!(out, "{cell:>pad$}  ");
        }
        out.pop();
        out.pop();
        out.push('\n');
    };
    let header_cells: Vec<String> = headers.iter().map(|s| s.to_string()).collect();
    render_row(&mut out, &header_cells);
    let total: usize = widths.iter().sum::<usize>() + 2 * widths.len().saturating_sub(1);
    out.push_str(&"-".repeat(total));
    out.push('\n');
    for row in rows {
        render_row(&mut out, row);
    }
    out
}

/// Renders one data series of a figure as `x<TAB>y` rows under a title —
/// directly plottable, and diffable in CI.
pub fn series(title: &str, points: &[(f64, f64)]) -> String {
    let mut out = format!("# {title}\n");
    for (x, y) in points {
        let _ = writeln!(out, "{x:.6}\t{y:.6}");
    }
    out
}

/// Formats a ratio as a percentage with one decimal.
pub fn pct(x: f64) -> String {
    format!("{:.1}%", x * 100.0)
}

/// Formats a slowdown factor ("1.52x").
pub fn slowdown(x: f64) -> String {
    format!("{x:.2}x")
}

/// Formats a large count with thousands separators ("14,170K" style used
/// by Table 3 when `k` is set).
pub fn count(n: u64, k: bool) -> String {
    let n = if k { n / 1000 } else { n };
    let s = n.to_string();
    let mut grouped = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i) % 3 == 0 {
            grouped.push(',');
        }
        grouped.push(c);
    }
    if k {
        grouped.push('K');
    }
    grouped
}

/// The `--resample` overlay a replay ran under: sampling periods laid
/// afresh over the trace at `rate`, with mean length `period`, from `seed`.
#[derive(Clone, Copy, Debug)]
pub struct Resample {
    /// Sampling rate in `[0, 1]`.
    pub rate: f64,
    /// Mean sampling-period length, in events.
    pub period: usize,
    /// The overlay's seed.
    pub seed: u64,
}

/// Renders the report `pacer replay` prints for one trace, which is also
/// the body a `pacer serve` session replies with: the `replaying …`
/// header, the truncation note, the resample line, then the dynamic race
/// count and the distinct races as normalized site pairs.
pub fn replay_report(
    stats: &ActionStats,
    threads: usize,
    truncation_note: Option<&str>,
    resample: Option<Resample>,
    dynamic_races: u64,
    distinct: &[(SiteId, SiteId)],
) -> String {
    let mut out = format!(
        "replaying {} actions ({} accesses, {} sync ops, {threads} threads)\n",
        stats.total(),
        stats.accesses(),
        stats.sync_ops(),
    );
    if let Some(note) = truncation_note {
        let _ = writeln!(out, "{note}");
    }
    if let Some(r) = resample {
        let _ = writeln!(
            out,
            "resampled sampling periods at r = {:.2}%, mean period {}, seed {}",
            r.rate * 100.0,
            r.period,
            r.seed
        );
    }
    let _ = writeln!(
        out,
        "\n{dynamic_races} dynamic race report(s), {} distinct:",
        distinct.len()
    );
    for (a, b) in distinct {
        let _ = writeln!(out, "  {a}  <->  {b}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let t = table(
            &["name", "value"],
            &[
                vec!["a".into(), "1".into()],
                vec!["long-name".into(), "22".into()],
            ],
        );
        let lines: Vec<&str> = t.lines().collect();
        assert_eq!(lines.len(), 4);
        assert!(lines[1].starts_with('-'));
        assert!(lines[3].contains("long-name"));
    }

    #[test]
    fn series_is_tab_separated() {
        let s = series("fig3 eclipse", &[(0.01, 0.012), (0.03, 0.031)]);
        assert!(s.starts_with("# fig3 eclipse\n"));
        assert_eq!(s.lines().count(), 3);
        assert!(s.contains("0.010000\t0.012000"));
    }

    #[test]
    fn formatting_helpers() {
        assert_eq!(pct(0.523), "52.3%");
        assert_eq!(slowdown(1.5), "1.50x");
        assert_eq!(count(14_170_000, true), "14,170K");
        assert_eq!(count(1234, false), "1,234");
        assert_eq!(count(5, false), "5");
    }
}
