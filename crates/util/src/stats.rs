//! Online statistics and human-readable formatting for the benchmark
//! harnesses (`crates/bench` prints its figure tables with these).

/// Online mean/min/max accumulator.
#[derive(Clone, Debug, Default)]
pub struct OnlineStats {
    n: u64,
    mean: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Empty accumulator.
    pub fn new() -> Self {
        Self {
            n: 0,
            mean: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Add one sample.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Sample count.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Arithmetic mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.n == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Smallest sample (+inf when empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample (-inf when empty).
    pub fn max(&self) -> f64 {
        self.max
    }
}

/// Exact percentile over a stored sample set (fine for bench-scale data).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    data: Vec<f64>,
    sorted: bool,
}

impl Samples {
    /// Empty sample set.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one sample.
    pub fn push(&mut self, x: f64) {
        self.data.push(x);
        self.sorted = false;
    }

    /// Number of samples recorded.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The `p`-th percentile (0.0..=100.0) by nearest-rank; `None` if empty.
    pub fn percentile(&mut self, p: f64) -> Option<f64> {
        if self.data.is_empty() {
            return None;
        }
        if !self.sorted {
            self.data
                // lint: allow(panic-on-serving-path) — samples are finite durations
                // and ratios; NaN is never recorded
                .sort_by(|a, b| a.partial_cmp(b).expect("no NaN samples"));
            self.sorted = true;
        }
        let rank = ((p / 100.0) * (self.data.len() - 1) as f64).round() as usize;
        Some(self.data[rank.min(self.data.len() - 1)])
    }

    /// Arithmetic mean; `None` if empty.
    pub fn mean(&self) -> Option<f64> {
        if self.data.is_empty() {
            None
        } else {
            Some(self.data.iter().sum::<f64>() / self.data.len() as f64)
        }
    }
}

/// Format a byte count using binary units ("64 KiB", "1.5 MiB").
pub fn fmt_bytes(bytes: u64) -> String {
    const UNITS: [&str; 7] = ["B", "KiB", "MiB", "GiB", "TiB", "PiB", "EiB"];
    if bytes == 0 {
        return "0 B".to_string();
    }
    let exp = (63 - bytes.leading_zeros() as u64) / 10;
    let exp = exp.min(6);
    let scaled = bytes as f64 / (1u64 << (10 * exp)) as f64;
    if (scaled - scaled.round()).abs() < 1e-9 {
        format!("{} {}", scaled.round() as u64, UNITS[exp as usize])
    } else {
        format!("{:.2} {}", scaled, UNITS[exp as usize])
    }
}

/// Format nanoseconds as an adaptive duration ("1.25 ms", "3.4 s").
pub fn fmt_ns(ns: u64) -> String {
    match ns {
        0..=999 => format!("{} ns", ns),
        1_000..=999_999 => format!("{:.2} µs", ns as f64 / 1e3),
        1_000_000..=999_999_999 => format!("{:.2} ms", ns as f64 / 1e6),
        _ => format!("{:.3} s", ns as f64 / 1e9),
    }
}

/// Throughput in MB/s (decimal MB, matching the paper's "117.5 MB/s").
pub fn mbps(bytes: u64, ns: u64) -> f64 {
    if ns == 0 {
        return 0.0;
    }
    (bytes as f64 / 1e6) / (ns as f64 / 1e9)
}

/// A minimal aligned-column table writer for harness stdout + CSV output.
#[derive(Debug, Default)]
pub struct Table {
    header: Vec<String>,
    rows: Vec<Vec<String>>,
}

impl Table {
    /// New table with the given column headers.
    pub fn new(header: &[&str]) -> Self {
        Self {
            header: header.iter().map(|s| s.to_string()).collect(),
            rows: Vec::new(),
        }
    }

    /// Append one row (must match the header arity).
    pub fn row(&mut self, cells: &[String]) {
        assert_eq!(cells.len(), self.header.len(), "row arity mismatch");
        self.rows.push(cells.to_vec());
    }

    /// Render with aligned columns.
    pub fn render(&self) -> String {
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for row in &self.rows {
            for (i, c) in row.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let mut out = String::new();
        let fmt_row = |cells: &[String], widths: &[usize]| {
            cells
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:>w$}", c, w = widths[i]))
                .collect::<Vec<_>>()
                .join("  ")
        };
        out.push_str(&fmt_row(&self.header, &widths));
        out.push('\n');
        out.push_str(&"-".repeat(widths.iter().sum::<usize>() + 2 * (widths.len() - 1)));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&fmt_row(row, &widths));
            out.push('\n');
        }
        out
    }

    /// Render as CSV (for `results/*.csv`).
    pub fn to_csv(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.header.join(","));
        out.push('\n');
        for row in &self.rows {
            out.push_str(&row.join(","));
            out.push('\n');
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn online_stats_matches_naive() {
        let xs = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0];
        let mut s = OnlineStats::new();
        for &x in &xs {
            s.push(x);
        }
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        assert!((s.mean() - mean).abs() < 1e-12);
        assert_eq!(s.min(), 1.0);
        assert_eq!(s.max(), 9.0);
        assert_eq!(s.count(), 8);
    }

    #[test]
    fn percentiles() {
        let mut s = Samples::new();
        for i in 0..=100 {
            s.push(i as f64);
        }
        assert_eq!(s.percentile(0.0), Some(0.0));
        assert_eq!(s.percentile(100.0), Some(100.0));
        assert_eq!(s.percentile(50.0), Some(50.0));
        assert_eq!(s.percentile(90.0), Some(90.0));
        assert_eq!(Samples::new().percentile(50.0), None);
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(0), "0 B");
        assert_eq!(fmt_bytes(64 * 1024), "64 KiB");
        assert_eq!(fmt_bytes(16 * 1024 * 1024), "16 MiB");
        assert_eq!(fmt_bytes(1u64 << 40), "1 TiB");
        assert_eq!(fmt_bytes(1536), "1.50 KiB");
    }

    #[test]
    fn duration_formatting() {
        assert_eq!(fmt_ns(12), "12 ns");
        assert_eq!(fmt_ns(1_500), "1.50 µs");
        assert_eq!(fmt_ns(2_500_000), "2.50 ms");
        assert_eq!(fmt_ns(3_200_000_000), "3.200 s");
    }

    #[test]
    fn throughput_math() {
        // 100 MB in 1 s = 100 MB/s.
        assert!((mbps(100_000_000, 1_000_000_000) - 100.0).abs() < 1e-9);
        assert_eq!(mbps(1, 0), 0.0);
    }

    #[test]
    fn table_renders_and_csv() {
        let mut t = Table::new(&["seg", "time"]);
        t.row(&["64 KiB".into(), "0.01 s".into()]);
        t.row(&["16 MiB".into(), "0.10 s".into()]);
        let s = t.render();
        assert!(s.contains("seg"));
        assert!(s.contains("16 MiB"));
        let csv = t.to_csv();
        assert!(csv.starts_with("seg,time\n"));
        assert_eq!(csv.lines().count(), 3);
    }
}
