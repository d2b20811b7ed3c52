//! Sample statistics and the JSON the benchmark prints.

use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The `q`-quantile (`0 ≤ q ≤ 1`) of `samples`, linearly interpolated
/// between closest ranks (Hyndman–Fan type 7). `None` when empty.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (xs.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    Some(xs[lo] + (xs[hi] - xs[lo]) * (pos - lo as f64))
}

/// The median, 0 for no samples.
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5).unwrap_or(0.0)
}

/// The mean of the middle half of `samples`: ⌊n/4⌋ dropped from each
/// end. Less noisy than the median, and as blind to a few slow outliers.
/// 0 for no samples.
pub fn middle_mean(samples: &[f64]) -> f64 {
    let mut xs = samples.to_vec();
    xs.sort_by(f64::total_cmp);
    let cut = xs.len() / 4;
    let mid = &xs[cut..xs.len() - cut];
    ratio(mid.iter().sum(), mid.len() as f64)
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Run `f`, adding its wall time to `acc`.
pub fn timed<T>(acc: &mut Duration, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed();
    out
}

/// A named sample set of one operation kind (latencies in one unit).
#[derive(Clone, Debug, Default)]
pub struct Samples {
    /// The samples, in arrival order.
    pub values: Vec<f64>,
}

impl Samples {
    /// Record one sample.
    pub fn push(&mut self, v: f64) {
        self.values.push(v);
    }

    /// `{"n":…,"min":…,"p10":…,"p25":…,"p50":…,"p75":…,"p90":…}` for the
    /// run record.
    pub fn summary_json(&self) -> String {
        let q = |p| quantile(&self.values, p).unwrap_or(0.0);
        format!(
            "{{\"n\":{},\"min\":{},\"p10\":{},\"p25\":{},\"p50\":{},\"p75\":{},\"p90\":{}}}",
            self.values.len(),
            num(q(0.0)),
            num(q(0.1)),
            num(q(0.25)),
            num(q(0.5)),
            num(q(0.75)),
            num(q(0.9))
        )
    }
}

/// A finite JSON number (non-finite values print as 0).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_owned()
    }
}

/// Metrics in print order: name, value, unit.
#[derive(Default)]
pub struct Metrics(pub Vec<(&'static str, f64, &'static str)>);

impl Metrics {
    /// Add one metric.
    pub fn put(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.0.push((name, value, unit));
    }

    /// The value of `name`, if present.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.0 == name).map(|m| m.1)
    }

    /// `{"name":{"value":…,"unit":"…"},…}`.
    pub fn to_json(&self) -> String {
        let mut out = String::from("{");
        for (i, (name, value, unit)) in self.0.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\"{name}\":{{\"value\":{},\"unit\":\"{unit}\"}}",
                num(*value)
            );
        }
        out.push('}');
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let xs = [4.0, 1.0, 3.0, 2.0, 5.0];
        assert_eq!(quantile(&xs, 0.0), Some(1.0));
        assert_eq!(quantile(&xs, 0.5), Some(3.0));
        assert_eq!(quantile(&xs, 1.0), Some(5.0));
        assert_eq!(quantile(&xs, 0.25), Some(2.0));
        // 10 samples 1..=10: p90 sits between the 9th and 10th values.
        let ten: Vec<f64> = (1..=10).map(f64::from).collect();
        let p90 = quantile(&ten, 0.9).unwrap();
        assert!((p90 - 9.1).abs() < 1e-12, "{p90}");
        assert_eq!(median(&[2.0, 1.0]), 1.5);
        assert_eq!(quantile(&[], 0.5), None);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(middle_mean(&[100.0, 2.0, 4.0, 3.0, 1.0]), 3.0);
        assert_eq!(middle_mean(&[7.0, 1.0, 3.0]), 11.0 / 3.0);
        assert_eq!(middle_mean(&[]), 0.0);
    }

    #[test]
    fn summaries_and_metrics_are_valid_json_numbers() {
        let mut s = Samples::default();
        for v in [1.0, 2.0, 3.0, 4.0] {
            s.push(v);
        }
        assert_eq!(
            s.summary_json(),
            "{\"n\":4,\"min\":1,\"p10\":1.3,\"p25\":1.75,\"p50\":2.5,\"p75\":3.25,\"p90\":3.7}"
        );
        let mut m = Metrics::default();
        m.put("a_ms", 1.5, "ms");
        m.put("b", f64::NAN, "count");
        assert_eq!(
            m.to_json(),
            "{\"a_ms\":{\"value\":1.5,\"unit\":\"ms\"},\"b\":{\"value\":0,\"unit\":\"count\"}}"
        );
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }
}
