//! ASCII bar charts for the figure experiments.
//!
//! The paper's Figures 5–7 and 9–12 are grouped-bar/line charts of
//! execution time. The experiment drivers print the underlying series as
//! tables *and* render them as horizontal grouped bar charts so the
//! regenerated artifact is visually comparable to the paper's figure.

use std::fmt;

/// Width of the longest bar, in characters.
const WIDTH: usize = 46;

/// A grouped-bar chart: one group per x-value, one bar per series.
#[derive(Debug, Clone)]
pub struct BarChart {
    title: String,
    unit: String,
    series: Vec<String>,
    groups: Vec<(String, Vec<f64>)>,
}

impl BarChart {
    /// Creates a chart titled `title` with values in `unit`, one bar per
    /// entry of `series` within each group.
    pub fn new(title: impl Into<String>, unit: impl Into<String>, series: Vec<String>) -> BarChart {
        BarChart {
            title: title.into(),
            unit: unit.into(),
            series,
            groups: Vec::new(),
        }
    }

    /// Appends one x-axis group with one value per series.
    ///
    /// # Panics
    /// Panics if the value count does not match the series count.
    pub fn push_group(&mut self, label: impl Into<String>, values: Vec<f64>) {
        assert_eq!(values.len(), self.series.len(), "one value per series");
        self.groups.push((label.into(), values));
    }

    fn max_value(&self) -> f64 {
        self.groups
            .iter()
            .flat_map(|(_, vs)| vs.iter().copied())
            .fold(0.0f64, f64::max)
            .max(f64::MIN_POSITIVE)
    }
}

impl fmt::Display for BarChart {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let max = self.max_value();
        let label_w = self
            .series
            .iter()
            .map(|s| s.chars().count())
            .max()
            .unwrap_or(0)
            .max(4);
        writeln!(f, "{} [{}; full bar = {:.1}]", self.title, self.unit, max)?;
        for (group, values) in &self.groups {
            writeln!(f, "  {group}")?;
            for (name, &v) in self.series.iter().zip(values.iter()) {
                let filled = ((v / max) * WIDTH as f64).round() as usize;
                let filled = filled.min(WIDTH);
                // Always show at least one mark for a positive value.
                let filled = if v > 0.0 { filled.max(1) } else { 0 };
                let bar: String = std::iter::repeat_n('#', filled)
                    .chain(std::iter::repeat_n(' ', WIDTH - filled))
                    .collect();
                writeln!(f, "    {name:<label_w$} |{bar}| {v:.1}")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chart() -> BarChart {
        let mut c = BarChart::new("Figure X", "cost units", vec!["A".into(), "B".into()]);
        c.push_group("10x10", vec![100.0, 10.0]);
        c.push_group("20x20", vec![400.0, 40.0]);
        c
    }

    #[test]
    fn renders_all_groups_and_series() {
        let s = chart().to_string();
        assert!(s.contains("10x10"));
        assert!(s.contains("20x20"));
        assert_eq!(s.matches("    A").count(), 2, "{s}");
        assert!(s.contains("400.0"));
    }

    #[test]
    fn longest_bar_is_full_width() {
        let s = chart().to_string();
        let full: String = std::iter::repeat_n('#', WIDTH).collect();
        assert!(s.contains(&full), "{s}");
    }

    #[test]
    fn small_positive_values_get_a_mark() {
        let mut c = BarChart::new("t", "u", vec!["x".into()]);
        c.push_group("g", vec![0.001]);
        c.push_group("h", vec![1000.0]);
        let s = c.to_string();
        // The tiny bar still renders one '#'.
        assert!(
            s.lines().any(|l| l.contains("|#") && l.contains("0.0")),
            "{s}"
        );
    }

    #[test]
    fn zero_renders_empty_bar() {
        let mut c = BarChart::new("t", "u", vec!["x".into()]);
        c.push_group("g", vec![0.0]);
        let s = c.to_string();
        assert!(!s.contains('#'), "{s}");
    }

    #[test]
    #[should_panic(expected = "one value per series")]
    fn ragged_group_panics() {
        let mut c = BarChart::new("t", "u", vec!["x".into(), "y".into()]);
        c.push_group("g", vec![1.0]);
    }
}
