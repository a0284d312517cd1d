//! The result line: one JSON object with `correct`, `attempted`,
//! `failed` and every metric by name with its unit.

/// One named measurement.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The value, as measured.
    pub value: f64,
    /// Unit, e.g. `s` or `count`.
    pub unit: &'static str,
}

impl Metric {
    /// A metric; non-finite values (an empty ratio) become 0.
    pub fn new(name: impl Into<String>, value: f64, unit: &'static str) -> Self {
        Self {
            name: name.into(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        }
    }
}

/// The benchmark's last stdout line. Values print in Rust's shortest
/// round-trip form, so every digit measured survives.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                netcache_core::json::escape(&m.name),
                m.value,
                m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use netcache_core::json::{parse, Value};

    #[test]
    fn result_line_round_trips_through_the_core_reader() {
        let metrics = [
            Metric::new("wall_s", 1.234_567_890_123, "s"),
            Metric::new("machine.events", 2_490_123.0, "count"),
            Metric::new("ring.hit_rate", 1e-7, "fraction"),
            Metric::new("empty", f64::NAN, "ratio"),
        ];
        let line = result_line(true, 240, 3, &metrics);
        let doc = parse(&line).expect("valid JSON");
        assert_eq!(doc.get("correct"), Some(&Value::Bool(true)));
        assert_eq!(doc.get("attempted").and_then(Value::as_u64), Some(240));
        assert_eq!(doc.get("failed").and_then(Value::as_u64), Some(3));
        let m = doc.get("metrics").unwrap();
        for want in &metrics {
            let got = m.get(&want.name).expect("metric present");
            assert_eq!(got.get("value").and_then(Value::as_f64), Some(want.value));
            assert_eq!(got.get("unit").and_then(Value::as_str), Some(want.unit));
        }
        assert_eq!(
            m.get("empty").unwrap().get("value").and_then(Value::as_f64),
            Some(0.0)
        );
    }
}
