//! Correctness bookkeeping and the metric sheet.

use std::collections::BTreeMap;

/// Counts correctness checks; every failure is reported on stderr.
#[derive(Debug, Default, Clone, Copy)]
pub struct Checks {
    /// Checks made.
    pub attempted: u64,
    /// Checks that failed.
    pub failed: u64,
}

impl Checks {
    /// Records one check; `what` describes the failure.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("rsebench: check FAILED: {}", what());
        }
    }

    /// Share of checks that passed, in percent.
    pub fn passed_pct(&self) -> f64 {
        100.0 * (self.attempted - self.failed) as f64 / self.attempted.max(1) as f64
    }
}

/// Named metrics with units, kept in name order.
#[derive(Debug, Default, Clone)]
pub struct Sheet(BTreeMap<String, (f64, &'static str)>);

impl Sheet {
    /// Sets `name` to `value` in `unit`.
    pub fn set(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.insert(name.into(), (value, unit));
    }

    /// Adds `value` to `name` (starting from zero).
    pub fn add(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.0.entry(name.into()).or_insert((0.0, unit)).0 += value;
    }

    /// The value of `name`, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).map(|v| v.0)
    }

    /// Iterates `(name, value, unit)` in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, f64, &'static str)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v.0, v.1))
    }

    /// The sheet as a JSON object of `{"value": v, "unit": u}` entries.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .iter()
            .map(|(k, v, u)| format!("\"{k}\":{{\"value\":{},\"unit\":\"{u}\"}}", json_num(v)))
            .collect();
        format!("{{{}}}", body.join(","))
    }
}

/// A finite JSON number with all its digits (`NaN`/infinity become 0).
pub fn json_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".into()
    }
}

/// Escapes a string for a JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Median of `v` (0 for an empty slice).
pub fn median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}
