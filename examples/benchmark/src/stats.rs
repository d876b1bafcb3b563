//! Pure helpers: nearest-rank percentiles, protocol-line fields and the
//! JSON the harness prints.

/// The 1-based nearest rank of percentile `pct` among `n` samples.
fn nearest_rank(n: usize, pct: usize) -> usize {
    (pct * n).div_ceil(100).max(1)
}

/// Nearest-rank percentile of ascending `sorted` samples: the smallest
/// sample with at least `pct` % of all samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], pct: usize) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[nearest_rank(sorted.len(), pct) - 1]
}

/// Samples ranked strictly above percentile `pct` of `n` samples. A
/// percentile is reported as a tail latency only when at least ten
/// samples lie beyond it.
pub fn beyond(n: usize, pct: usize) -> usize {
    n - nearest_rank(n, pct).min(n)
}

/// The median of `values` (the mean of the middle two for an even count).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

pub fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len().max(1) as f64
}

/// `a / b`, or 0 when nothing was counted.
pub fn ratio(a: f64, b: f64) -> f64 {
    if b == 0.0 {
        0.0
    } else {
        a / b
    }
}

/// The value of `key=` in a space-separated protocol line.
fn field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    line.split_whitespace()
        .find_map(|tok| tok.strip_prefix(key)?.strip_prefix('='))
}

/// A numeric `key=` field.
pub fn field_f64(line: &str, key: &str) -> Option<f64> {
    field(line, key)?.parse().ok()
}

/// The modeled numbers of an `ok` response that verification compares:
/// `device_ms`, `e2e_ms` and `kernels`, exactly as printed.
pub fn modeled_fields(line: &str) -> Option<(&str, &str, &str)> {
    Some((
        field(line, "device_ms")?,
        field(line, "e2e_ms")?,
        field(line, "kernels")?,
    ))
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// The result line: `{"correct":…,"attempted":…,"failed":…,"metrics":{…}}`.
/// Values print with every digit Rust's shortest round-trip form keeps.
pub fn result_json(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                json_number(m.value),
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// A finite float as a JSON number (non-finite values, which no metric
/// should produce, become `null` so the document stays valid).
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(percentile(&v, 50), 100.0);
        assert_eq!(percentile(&v, 95), 190.0);
        assert_eq!(percentile(&[7.0], 95), 7.0);
        // 0.28 × 25 is one ulp off 7 in floating point; integer ranks are exact.
        let w: Vec<f64> = (1..=25).map(f64::from).collect();
        assert_eq!(percentile(&w, 28), 7.0);
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond_them() {
        assert_eq!(beyond(100, 90), 10);
        assert_eq!(beyond(99, 90), 9);
        assert_eq!(beyond(0, 90), 0);
        let smallest = |pct| (1..1000).find(|&n| beyond(n, pct) >= 10);
        // p90 is supported from 100 samples, p95 only from 200.
        assert_eq!(smallest(90), Some(100));
        assert_eq!(smallest(95), Some(200));
    }

    #[test]
    fn medians_and_ratios() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(mean(&[1.0, 2.0, 6.0]), 3.0);
        assert_eq!(ratio(1.0, 4.0), 0.25);
        assert_eq!(ratio(1.0, 0.0), 0.0);
    }

    #[test]
    fn response_lines_parse() {
        let ok = "ok id=3 cache=hit queue_ms=0.0118 service_ms=29.8494 latency_ms=29.8612 \
                  device_ms=0.0649 e2e_ms=150.1099 kernels=9";
        assert_eq!(field(ok, "cache"), Some("hit"));
        assert_eq!(field_f64(ok, "latency_ms"), Some(29.8612));
        assert_eq!(field_f64(ok, "ms"), None, "keys match whole tokens");
        assert_eq!(modeled_fields(ok), Some(("0.0649", "150.1099", "9")));
        let err = "err id=- msg=\"unsupported\" code=queue_full";
        assert_eq!(modeled_fields(err), None);
    }

    #[test]
    fn stats_lines_parse() {
        let line = "stats workers=2 queue=0 submitted=21 completed=21 coalesced=1 rejected=0 \
                    cache_hits=10 cache_misses=11 cache_insertions=5 cache_evictions=2 \
                    cache_rejected=6 tpl_hits=4 tpl_misses=7";
        let s = gsuite_serve::ServerStats::parse_line(line).expect("a stats line");
        assert_eq!((s.completed, s.coalesced), (21, 1));
        assert_eq!(
            (s.cache.hits, s.cache.misses, s.cache.evictions),
            (10, 11, 2)
        );
        assert_eq!((s.cache.rejected, s.tpl_hits, s.tpl_misses), (6, 4, 7));
        assert!(gsuite_serve::ServerStats::parse_line("ok id=1").is_none());
    }

    #[test]
    fn result_json_is_valid_and_keeps_every_digit() {
        let json = result_json(
            true,
            10,
            0,
            &[
                Metric::new("latency_p50_ms", 41.123456789, "ms"),
                Metric::new("setup_s", 1.0, "s"),
            ],
        );
        gsuite_telemetry::json::validate(&json).expect("valid JSON");
        assert!(json.contains("41.123456789"));
        assert!(json.contains("\"setup_s\": {\"value\": 1.0, \"unit\": \"s\"}"));
        assert!(json.starts_with("{\"correct\": true, \"attempted\": 10, \"failed\": 0"));
    }
}
