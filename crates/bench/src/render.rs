//! Plain-text rendering of the paper's presentation devices: aligned
//! tables, performance-profile curves, and row-based heat maps.

use reorderlab_core::PerformanceProfile;

/// A simple aligned text table.
#[derive(Debug, Clone, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// Starts a table with the given column headers.
    pub fn new<S: Into<String>, I: IntoIterator<Item = S>>(header: I) -> Self {
        Table { header: header.into_iter().map(Into::into).collect(), rows: Vec::new() }
    }

    /// Appends a row (shorter rows are right-padded with empty cells).
    ///
    /// # Panics
    ///
    /// Panics if the row is wider than the header.
    pub fn row<S: Into<String>, I: IntoIterator<Item = S>>(&mut self, cells: I) -> &mut Self {
        let mut row: Vec<String> = cells.into_iter().map(Into::into).collect();
        assert!(row.len() <= self.header.len(), "row wider than header");
        row.resize(self.header.len(), String::new());
        self.rows.push(row);
        self
    }

    /// Number of data rows.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// Whether the table has no data rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Renders with aligned columns.
    pub fn render(&self) -> String {
        let cols = self.header.len();
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.chars().count()).collect();
        for row in &self.rows {
            for (i, cell) in row.iter().enumerate() {
                widths[i] = widths[i].max(cell.chars().count());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| -> String {
            let mut line = String::new();
            for i in 0..cols {
                if i > 0 {
                    line.push_str("  ");
                }
                let cell = &cells[i];
                let pad = widths[i] - cell.chars().count();
                line.push_str(cell);
                line.push_str(&" ".repeat(pad));
            }
            line.trim_end().to_string()
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (cols - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }
}

/// Renders a performance profile as a text table: one row per method, one
/// column per τ, cells holding the fraction of instances within τ × best.
pub fn render_profile(profile: &PerformanceProfile) -> String {
    let mut header: Vec<String> = vec!["scheme".into()];
    header.extend(profile.taus.iter().map(|t| format!("τ≤{t:.1}")));
    header.push("AUC".into());
    let mut table = Table::new(header);
    let auc = profile.auc();
    // Render best-first so the figure reads like the paper's legend.
    let mut idx: Vec<usize> = (0..profile.methods.len()).collect();
    idx.sort_by(|&a, &b| auc[b].total_cmp(&auc[a]));
    for i in idx {
        let mut row: Vec<String> = vec![profile.methods[i].clone()];
        row.extend(profile.curves[i].iter().map(|f| format!("{:.2}", f)));
        row.push(format!("{:.3}", auc[i]));
        table.row(row);
    }
    table.render()
}

/// Normalizes one heat-map row to `\[0, 1\]` where 0 marks the *best* value
/// ("redder is better" in the paper's figures). `lower_is_better` selects
/// the direction. Constant rows map to all zeros.
pub(crate) fn heat_row(values: &[f64], lower_is_better: bool) -> Vec<f64> {
    let (min, max) = values
        .iter()
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), &v| (lo.min(v), hi.max(v)));
    let span = max - min;
    values
        .iter()
        .map(|&v| {
            if span <= 0.0 {
                0.0
            } else if lower_is_better {
                (v - min) / span
            } else {
                (max - v) / span
            }
        })
        .collect()
}

/// Renders a heat map: rows labeled by `row_labels`, columns by
/// `col_labels`; each cell shows the value plus a shade glyph derived from
/// the per-row normalization (`*` best … `....` worst).
pub fn render_heatmap(
    title: &str,
    row_labels: &[String],
    col_labels: &[String],
    values: &[Vec<f64>],
    lower_is_better: bool,
    decimals: usize,
) -> String {
    assert_eq!(row_labels.len(), values.len(), "one label per row");
    let mut header: Vec<String> = vec![title.to_string()];
    header.extend(col_labels.iter().cloned());
    let mut table = Table::new(header);
    for (label, row) in row_labels.iter().zip(values) {
        assert_eq!(row.len(), col_labels.len(), "one value per column");
        let heat = heat_row(row, lower_is_better);
        let mut cells = vec![label.clone()];
        for (&v, &h) in row.iter().zip(&heat) {
            cells.push(format!("{v:.decimals$}{}", shade(h)));
        }
        table.row(cells);
    }
    table.render()
}

/// Shade glyph for a normalized heat value: best = `*`, worst = ` .`-chain.
fn shade(h: f64) -> &'static str {
    if h <= 0.001 {
        "*" // the best cell in the row
    } else if h < 0.34 {
        ""
    } else if h < 0.67 {
        "."
    } else {
        ".."
    }
}

/// Renders a text "violin": one bar per log-decade of the gap distribution,
/// width proportional to the share of edges in that decade — the textual
/// twin of the paper's Figure 8 violins, where wide low ridges mean most
/// gaps are small.
pub fn render_violin(label: &str, dist: &reorderlab_core::GapDistribution, width: usize) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{label}: n={} min={} q1={:.0} med={:.0} q3={:.0} max={} mean={:.1}\n",
        dist.count, dist.min, dist.q1, dist.median, dist.q3, dist.max, dist.mean
    ));
    if dist.count == 0 {
        return out;
    }
    let total = dist.count as f64;
    for (d, &count) in dist.log_buckets.iter().enumerate() {
        let frac = count as f64 / total;
        let bar = "#".repeat(((frac * width as f64).round() as usize).min(width));
        let lo = if d == 0 { 0 } else { 10usize.pow(d as u32) };
        let hi = 10usize.pow(d as u32 + 1);
        out.push_str(&format!("  [{lo:>7}, {hi:>8})  {bar:<w$} {:.1}%\n", frac * 100.0, w = width));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_aligns_columns() {
        let mut t = Table::new(["name", "value"]);
        t.row(["a", "1"]).row(["longer", "22"]);
        let s = t.render();
        let lines: Vec<&str> = s.lines().collect();
        assert!(lines[0].starts_with("name"));
        assert!(lines[2].starts_with("a"));
        assert_eq!(t.len(), 2);
        assert!(!t.is_empty());
    }

    #[test]
    #[should_panic(expected = "row wider")]
    fn table_rejects_wide_rows() {
        let mut t = Table::new(["a"]);
        t.row(["1", "2"]);
    }

    #[test]
    fn heat_row_normalizes() {
        let h = heat_row(&[1.0, 2.0, 3.0], true);
        assert_eq!(h, vec![0.0, 0.5, 1.0]);
        let h2 = heat_row(&[1.0, 2.0, 3.0], false);
        assert_eq!(h2, vec![1.0, 0.5, 0.0]);
    }

    #[test]
    fn heat_row_constant_is_zero() {
        assert_eq!(heat_row(&[5.0, 5.0], true), vec![0.0, 0.0]);
    }

    #[test]
    fn heatmap_renders_best_marker() {
        let s = render_heatmap(
            "metric",
            &["g1".into()],
            &["A".into(), "B".into()],
            &[vec![1.0, 2.0]],
            true,
            1,
        );
        assert!(s.contains("1.0*"), "best cell must carry the * marker:\n{s}");
    }

    #[test]
    fn profile_render_sorted_by_auc() {
        let p = PerformanceProfile::new(
            &["bad", "good"],
            &[vec![10.0, 10.0], vec![1.0, 1.0]],
            &[1.0, 2.0, 20.0],
        );
        let s = render_profile(&p);
        let good_pos = s.find("good").unwrap();
        let bad_pos = s.find("bad").unwrap();
        assert!(good_pos < bad_pos, "better scheme listed first:\n{s}");
    }

    #[test]
    fn violin_shows_decades() {
        use reorderlab_core::GapDistribution;
        let d = GapDistribution::from_gaps(&[1, 2, 3, 50, 500]);
        let s = render_violin("test", &d, 20);
        assert!(s.contains("n=5"));
        assert!(s.contains("[      0,       10)"));
        assert!(s.contains('%'));
        // 3/5 of mass in the first decade: longest bar first.
        let first_bar = s.lines().nth(1).unwrap().matches('#').count();
        let second_bar = s.lines().nth(2).unwrap().matches('#').count();
        assert!(first_bar > second_bar);
    }

    #[test]
    fn violin_empty_distribution() {
        use reorderlab_core::GapDistribution;
        let d = GapDistribution::from_gaps(&[]);
        let s = render_violin("empty", &d, 20);
        assert!(s.contains("n=0"));
        assert_eq!(s.lines().count(), 1);
    }
}
