//! Metrics, output checks, order statistics, the environment block and the
//! hand-written JSON the benchmark prints (the workspace has no
//! serialization crate).

/// One named measurement with its unit.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    Metric { name, value, unit }
}

/// Failure accounting: every engine call and every output check is one
/// attempted operation. A failed one is reported on standard error and
/// counted, never aborts the run.
#[derive(Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation; `what` describes it if it failed.
    pub fn op(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("rmbench: check failed: {}", what());
        }
    }
}

/// A JSON number with every digit Rust's shortest round-trip printing
/// gives; non-finite values (which JSON cannot carry) become `null`.
pub fn num(x: f64) -> String {
    if x.is_finite() {
        let s = format!("{x}");
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

pub fn quote(s: &str) -> String {
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

pub fn metrics_json(ms: &[Metric]) -> String {
    let body: Vec<String> = ms
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                quote(m.name),
                num(m.value),
                quote(m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// Median (mean of the middle pair for even counts); NaN when empty.
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => 0.5 * (v[n / 2 - 1] + v[n / 2]),
    }
}

/// The tail of a latency sample: the highest percentile that still has at
/// least ten samples beyond it. Returns `(value, percentile)`; `None` when
/// there are fewer than eleven samples.
pub fn tail(xs: &[f64]) -> Option<(f64, f64)> {
    let n = xs.len();
    if n < 11 {
        return None;
    }
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    // The (n-10)-th smallest value has exactly ten samples above it.
    let rank = n - 10;
    let pct = 100.0 * rank as f64 / n as f64;
    Some((v[rank - 1], pct))
}

/// FNV-1a over a string: a short fingerprint of the deterministic counters,
/// comparable across processes.
pub fn fingerprint(s: &str) -> String {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    format!("{h:016x}")
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    let line = info.lines().find(|l| l.starts_with("model name"))?;
    Some(line.split_once(':')?.1.trim().to_string())
}

fn opt_str(s: Option<String>) -> String {
    s.filter(|s| !s.is_empty())
        .map_or("null".to_string(), |s| quote(&s))
}

/// The environment block: every probe that cannot be read is `null`.
pub fn env_json(seed: u64, threads: usize) -> String {
    let nproc = std::thread::available_parallelism()
        .ok()
        .map_or("null".to_string(), |n| n.get().to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu_model\": {}, \"rustc\": {}, \"profile\": {}, \
         \"sampler_threads\": {threads}, \"selection_threads\": {threads}, \"seed\": {seed}}}",
        opt_str(cpu_model()),
        opt_str(option_env!("RMBENCH_RUSTC_VERSION").map(str::to_string)),
        opt_str(option_env!("RMBENCH_PROFILE").map(str::to_string)),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_leaves_ten_samples_beyond() {
        let xs: Vec<f64> = (1..=40).map(f64::from).collect();
        assert_eq!(tail(&xs), Some((30.0, 75.0)));
        assert!(tail(&xs[..10]).is_none());
    }

    #[test]
    fn numbers_keep_their_digits() {
        assert_eq!(num(1.0), "1.0");
        assert_eq!(num(0.123456789012), "0.123456789012");
        assert_eq!(num(f64::NAN), "null");
        assert_eq!(median(&[3.0, 1.0, 2.0, 10.0]), 2.5);
    }
}
