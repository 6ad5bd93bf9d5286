//! What one run reports: checked answers and named metrics with units.

use std::fmt::Write as _;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How the value was formed, e.g. "median of 11 samples".
    pub note: String,
}

/// Answers attempted and failed, and the metrics of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
}

impl Report {
    /// Counts one checked answer; a wrong or refused answer is a failure.
    pub fn answer(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Failed answers over attempted ones (0 when nothing was attempted).
    pub fn failed_share(&self) -> f64 {
        if self.attempted == 0 {
            0.0
        } else {
            self.failed as f64 / self.attempted as f64
        }
    }

    pub fn correct(&self) -> bool {
        self.attempted > 0 && self.failed == 0
    }

    pub fn add(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        note: impl Into<String>,
    ) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            note: note.into(),
        });
    }

    /// Human-readable lines, one per metric, with how each was formed.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in &self.metrics {
            let _ = writeln!(
                out,
                "{:<34} {:>16.6} {:<6} {}",
                m.name, m.value, m.unit, m.note
            );
        }
        let _ = writeln!(
            out,
            "{:<34} {:>16.6} {:<6} {} failed of {} attempted",
            "failed_share",
            self.failed_share(),
            "1",
            self.failed,
            self.attempted
        );
        out
    }

    /// The one-line JSON result. Non-finite values, which JSON cannot
    /// carry, make the run incorrect and are written as `null`.
    pub fn json(&self) -> String {
        let finite = self.metrics.iter().all(|m| m.value.is_finite());
        let mut out = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.correct() && finite,
            self.attempted,
            self.failed
        );
        for (k, m) in self.metrics.iter().enumerate() {
            if k > 0 {
                out.push_str(", ");
            }
            let value = if m.value.is_finite() {
                format!("{:?}", m.value)
            } else {
                "null".to_string()
            };
            let _ = write!(
                out,
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, value, m.unit
            );
        }
        out.push_str("}}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn failed_share_counts_every_wrong_answer() {
        let mut r = Report::default();
        assert_eq!(r.failed_share(), 0.0);
        assert!(!r.correct(), "a run that attempted nothing is not correct");
        for ok in [true, true, false, true] {
            r.answer(ok);
        }
        assert_eq!((r.attempted, r.failed), (4, 1));
        assert_eq!(r.failed_share(), 0.25);
        assert!(!r.correct());
    }

    #[test]
    fn json_is_one_line_with_exact_keys() {
        let mut r = Report::default();
        r.answer(true);
        r.add("solve_s", 0.5, "s", "median of 1 sample");
        r.add("setup_s", 1.0 / 3.0, "s", "");
        let j = r.json();
        assert!(!j.contains('\n'));
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\"solve_s\": {\"value\": 0.5, \"unit\": \"s\"}, \"setup_s\": {\"value\": 0.3333333333333333, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn non_finite_values_make_the_run_incorrect() {
        let mut r = Report::default();
        r.answer(true);
        r.add("x", f64::NAN, "s", "");
        assert!(r.json().starts_with("{\"correct\": false"));
        assert!(r.json().contains("null"));
    }
}
