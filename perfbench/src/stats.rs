//! Small numeric and reporting helpers: quantiles, a seeded RNG, a
//! named-metric list and the host fingerprint.

use std::fmt::Write as _;
use std::time::Instant;

/// Linear-interpolated quantile of `values` (sorted in place), `q` in
/// `[0, 1]`. `NaN` for an empty slice.
pub fn quantile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    values.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (values.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    values[lo] + (values[hi] - values[lo]) * (pos - lo as f64)
}

/// Median of `values`.
pub fn median(values: &mut [f64]) -> f64 {
    quantile(values, 0.5)
}

/// Seconds elapsed since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Deterministic splitmix64 stream: every seeded choice in the
/// benchmark comes from one of these.
pub struct SplitMix(pub u64);

impl SplitMix {
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

/// Ordered `(name, value, unit)` metrics as the result line reports
/// them.
#[derive(Default)]
pub struct Metrics(pub Vec<(String, f64, &'static str)>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_owned(), value, unit));
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|(_, v, _)| *v)
    }

    /// `{"name": {"value": v, "unit": "u"}, ...}`; non-finite values
    /// are written as `null`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

/// A JSON number with every digit Rust prints, or `null`.
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".into()
    }
}

/// JSON string literal (the fingerprint fields are plain text).
pub fn string(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Cores the process may use.
pub fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Peak resident set size of this process, MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host fingerprint as a JSON object: core count, CPU model, compiler
/// and source revision. Results from fewer than two cores say so, since
/// they cannot support a claim about shard scaling.
pub fn host_json() -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".into());
    let run = |cmd: &str, args: &[&str]| {
        std::process::Command::new(cmd)
            .args(args)
            .stderr(std::process::Stdio::null())
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
            .filter(|s| !s.is_empty())
            .unwrap_or_else(|| "unknown".into())
    };
    let cores = cores();
    let scaling = if cores >= 2 {
        "meaningful"
    } else {
        "not meaningful: fewer than 2 cores (core.fleet.scaling_eff, core.fleet.shard_skew)"
    };
    format!(
        "{{\"available_parallelism\": {cores}, \"cpu\": {}, \"rustc\": {}, \"git_sha\": {}, \"scaling\": {}}}",
        string(&cpu),
        string(&run("rustc", &["-V"])),
        string(&run("git", &["rev-parse", "HEAD"])),
        string(scaling),
    )
}
