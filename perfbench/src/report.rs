//! The run record and the result line, rendered as JSON.

use std::fmt::Write as _;

/// The median of `v` (mean of the middle two for even lengths).
pub fn median(v: &[f64]) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The nearest-rank `q`-percentile of sorted `v`; 0 when empty.
pub fn percentile(sorted: &[u64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1] as f64
}

/// Peak resident memory of this process (`VmHWM`), in MB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("reading /proc/self/status: {e}"))?;
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// One metric: its raw per-repetition values; the reported value is
/// their median.
pub struct Metric {
    name: &'static str,
    unit: &'static str,
    raw: Vec<f64>,
}

impl Metric {
    pub fn new(name: &'static str, unit: &'static str, raw: Vec<f64>) -> Self {
        Metric { name, unit, raw }
    }
}

/// Everything one invocation measured, plus where it ran.
pub struct Record {
    workload: &'static str,
    seed: u64,
    seconds: f64,
    trace: bool,
    pub fingerprint: u64,
    pub attempted: u64,
    pub late: u64,
    pub reps: usize,
    metrics: Vec<Metric>,
    notes: Vec<(&'static str, f64)>,
    failure: Option<String>,
}

fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "null".into()
    }
}

fn string(s: &str) -> String {
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

fn env_or_unknown(key: &str) -> String {
    std::env::var(key).unwrap_or_else(|_| "unknown".into())
}

impl Record {
    pub fn new(workload: &'static str, seed: u64, seconds: f64, trace: bool) -> Self {
        Record {
            workload,
            seed,
            seconds,
            trace,
            fingerprint: 0,
            attempted: 0,
            late: 0,
            reps: 0,
            metrics: Vec::new(),
            notes: Vec::new(),
            failure: None,
        }
    }

    pub fn seed(&self) -> u64 {
        self.seed
    }

    pub fn push(&mut self, m: Metric) {
        self.metrics.push(m);
    }

    /// A value recorded beside the metrics but not reported as one.
    pub fn note(&mut self, name: &'static str, value: f64) {
        self.notes.push((name, value));
    }

    /// Marks the run as failed: it then reports no numbers.
    pub fn failure(&mut self, why: &str) {
        self.failure = Some(why.to_owned());
    }

    /// The run record: host, toolchain, inputs, and every raw value
    /// beside its median.
    pub fn render_record(&self) -> String {
        let host = std::fs::read_to_string("/proc/sys/kernel/hostname")
            .map(|h| h.trim().to_owned())
            .unwrap_or_else(|_| "unknown".into());
        let nproc = std::thread::available_parallelism().map_or(0, usize::from);
        let mut o = String::new();
        let _ = write!(
            o,
            "{{\"record\": {{\"workload\": {}, \"seed\": {}, \"seconds\": {}, \"trace\": {}, \
             \"host\": {}, \"nproc\": {nproc}, \"git_rev\": {}, \"rustc\": {}, \
             \"fingerprint\": \"{:016x}\", \"reps\": {}, \"late_arrivals\": {}, \"failure\": {}",
            string(self.workload),
            self.seed,
            num(self.seconds),
            u8::from(self.trace),
            string(&host),
            string(&env_or_unknown("PERFBENCH_GIT_REV")),
            string(&env_or_unknown("PERFBENCH_RUSTC")),
            self.fingerprint,
            self.reps,
            self.late,
            self.failure.as_deref().map_or("null".into(), string),
        );
        o.push_str(", \"notes\": {");
        for (i, (name, v)) in self.notes.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(o, "{sep}{}: {}", string(name), num(*v));
        }
        o.push_str("}, \"metrics\": {");
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let raw: Vec<String> = m.raw.iter().map(|&v| num(v)).collect();
            let _ = write!(
                o,
                "{sep}{}: {{\"unit\": {}, \"median\": {}, \"raw\": [{}]}}",
                string(m.name),
                string(m.unit),
                num(median(&m.raw)),
                raw.join(", ")
            );
        }
        o.push_str("}}}");
        o
    }

    /// The result line: medians with units, or a failure with none.
    pub fn render_result(&self) -> String {
        let attempted = self.attempted.max(1);
        if self.failure.is_some() {
            return format!(
                "{{\"correct\": false, \"attempted\": {attempted}, \"failed\": {attempted}, \
                 \"metrics\": {{}}}}"
            );
        }
        let mut o = format!(
            "{{\"correct\": true, \"attempted\": {attempted}, \"failed\": 0, \"metrics\": {{"
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                o,
                "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
                string(m.name),
                num(median(&m.raw)),
                string(m.unit)
            );
        }
        o.push_str("}}");
        o
    }
}
