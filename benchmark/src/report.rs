//! Result records, percentiles, and the little JSON this crate reads and
//! writes (no serde offline: results are written by hand and `compare` reads
//! them back with the small parser at the bottom).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// One named number with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

pub fn metric(name: &'static str, value: f64, unit: &'static str) -> Metric {
    // JSON has no NaN or infinity; an empty ratio reads as 0.
    let value = if value.is_finite() { value } else { 0.0 };
    Metric { name, value, unit }
}

/// The value of `name` in `metrics` (0 when absent).
pub fn value_of(metrics: &[Metric], name: &str) -> f64 {
    metrics
        .iter()
        .find(|m| m.name == name)
        .map_or(0.0, |m| m.value)
}

/// Everything one run of one workload produced.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: &'static str,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    /// Rows of the table that differ from the shadow table.
    pub mismatched_rows: u64,
    /// The gated metrics (`BENCHMARK.json` `end_to_end`), untraced runs only.
    pub end_to_end: Vec<Metric>,
    /// Measured and printed, not gated.
    pub printed: Vec<Metric>,
    /// The per-layer table (`BENCHMARK.json` `per_layer`), traced runs only.
    pub per_layer: Vec<Metric>,
    /// Counts after a fixed number of steps, which must repeat exactly for
    /// the same seed on single-caller workloads (empty elsewhere).
    pub exact_counts: Vec<Metric>,
}

impl RunResult {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.mismatched_rows == 0
    }
}

/// Nearest-rank percentile of unsorted samples (0 for none).
pub fn percentile(samples: &[u64], q: f64) -> u64 {
    if samples.is_empty() {
        return 0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_unstable();
    sorted[((sorted.len() - 1) as f64 * q).round() as usize]
}

/// Nanoseconds as microseconds.
pub fn us(ns: u64) -> f64 {
    ns as f64 / 1e3
}

/// Nanoseconds as milliseconds.
pub fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

fn metrics_json(metrics: &[Metric]) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    out.push('}');
    out
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed` and
/// `metrics` (end-to-end metrics untraced, per-layer metrics traced).
pub fn driver_line(r: &RunResult) -> String {
    let metrics = if r.traced {
        &r.per_layer
    } else {
        &r.end_to_end
    };
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        r.correct(),
        r.attempted,
        r.failed,
        metrics_json(metrics)
    )
}

/// Everything about a run as one JSON object on one line: what `compare`
/// reads and what a person greps.
pub fn detail_line(r: &RunResult, stamp: &str) -> String {
    format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"correct\": {}, \
         \"attempted\": {}, \"failed\": {}, \"failed_share\": {}, \"mismatched_rows\": {}, \
         \"end_to_end\": {}, \"printed\": {}, \"per_layer\": {}, \"exact_counts\": {}, \"stamp\": {}}}",
        r.workload,
        r.seed,
        r.seconds,
        r.traced as u8,
        r.correct(),
        r.attempted,
        r.failed,
        r.failed as f64 / r.attempted.max(1) as f64,
        r.mismatched_rows,
        metrics_json(&r.end_to_end),
        metrics_json(&r.printed),
        metrics_json(&r.per_layer),
        metrics_json(&r.exact_counts),
        stamp
    )
}

/// A parsed JSON value.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    pub fn parse(text: &str) -> Result<Json, String> {
        let mut p = Parser {
            bytes: text.as_bytes(),
            at: 0,
        };
        let value = p.value()?;
        p.space();
        if p.at != p.bytes.len() {
            return Err(format!("trailing text at byte {}", p.at));
        }
        Ok(value)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(map) => map.get(key),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }

    pub fn as_obj(&self) -> Option<&BTreeMap<String, Json>> {
        match self {
            Json::Obj(m) => Some(m),
            _ => None,
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn space(&mut self) {
        while self.at < self.bytes.len() && self.bytes[self.at].is_ascii_whitespace() {
            self.at += 1;
        }
    }

    fn eat(&mut self, word: &str) -> bool {
        if self.bytes[self.at..].starts_with(word.as_bytes()) {
            self.at += word.len();
            true
        } else {
            false
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.space();
        let Some(&b) = self.bytes.get(self.at) else {
            return Err("unexpected end of text".into());
        };
        match b {
            b'{' => {
                self.at += 1;
                let mut map = BTreeMap::new();
                loop {
                    self.space();
                    if self.eat("}") {
                        return Ok(Json::Obj(map));
                    }
                    if !map.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    self.space();
                    let key = self.string()?;
                    self.space();
                    if !self.eat(":") {
                        return Err(format!("expected ':' at byte {}", self.at));
                    }
                    map.insert(key, self.value()?);
                }
            }
            b'[' => {
                self.at += 1;
                let mut items = Vec::new();
                loop {
                    self.space();
                    if self.eat("]") {
                        return Ok(Json::Arr(items));
                    }
                    if !items.is_empty() && !self.eat(",") {
                        return Err(format!("expected ',' at byte {}", self.at));
                    }
                    items.push(self.value()?);
                }
            }
            b'"' => Ok(Json::Str(self.string()?)),
            _ if self.eat("true") => Ok(Json::Bool(true)),
            _ if self.eat("false") => Ok(Json::Bool(false)),
            _ if self.eat("null") => Ok(Json::Null),
            _ => {
                let start = self.at;
                while self.at < self.bytes.len()
                    && matches!(
                        self.bytes[self.at],
                        b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'
                    )
                {
                    self.at += 1;
                }
                std::str::from_utf8(&self.bytes[start..self.at])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("unexpected text at byte {start}"))
            }
        }
    }

    /// A string without escapes other than `\"` and `\\` (all this crate writes).
    fn string(&mut self) -> Result<String, String> {
        if !self.eat("\"") {
            return Err(format!("expected '\"' at byte {}", self.at));
        }
        let mut out = Vec::new();
        while let Some(&b) = self.bytes.get(self.at) {
            self.at += 1;
            match b {
                b'"' => return String::from_utf8(out).map_err(|e| e.to_string()),
                b'\\' => {
                    let Some(&next) = self.bytes.get(self.at) else {
                        break;
                    };
                    self.at += 1;
                    out.push(next);
                }
                _ => out.push(b),
            }
        }
        Err("unterminated string".into())
    }
}
