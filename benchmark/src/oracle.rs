//! The correctness oracle: every answer the benchmark receives is compared
//! with an expected bound before it counts as a completed operation.

use soap_sdg::ProgramAnalysis;
use std::collections::HashMap;

/// The expected answer for one program: the symbolic bound and, per
/// computed array in report order, its name, ρ and σ.
#[derive(Clone, Debug, PartialEq)]
pub struct Expected {
    pub bound: String,
    pub arrays: Vec<(String, String, String)>,
}

impl Expected {
    pub fn of(analysis: &ProgramAnalysis) -> Expected {
        Expected {
            bound: analysis.bound.to_string(),
            arrays: analysis
                .per_array
                .iter()
                .map(|a| (a.array.clone(), a.rho.to_string(), a.sigma.to_string()))
                .collect(),
        }
    }

    /// Corrupt this expectation (the oracle self-test: a run with a
    /// tampered expectation must fail).
    pub fn tamper(&mut self) {
        self.bound.push_str(" + 1");
    }

    /// Compare an in-process analysis.
    pub fn check(&self, analysis: &ProgramAnalysis) -> Result<(), String> {
        if analysis.degraded {
            return Err(format!("{}: degraded result", analysis.name));
        }
        let got = Expected::of(analysis);
        if got == *self {
            Ok(())
        } else {
            Err(format!(
                "{}: bound {:?} per_array {:?}, expected {:?} per_array {:?}",
                analysis.name, got.bound, got.arrays, self.bound, self.arrays
            ))
        }
    }

    /// Compare a daemon response for the program sent under `name`: status
    /// 200, `ok`, the echoed name, the bound and every per-array entry.  The
    /// per-array names come from the program that was sent, so an answer for
    /// another program's identity fails here.
    pub fn check_response(&self, status: u16, body: &[u8], name: &str) -> Result<(), String> {
        if status != 200 {
            return Err(format!("{name}: HTTP {status}"));
        }
        let text = std::str::from_utf8(body).map_err(|_| format!("{name}: non-UTF-8 body"))?;
        let v: serde_json::Value =
            serde_json::from_str(text).map_err(|e| format!("{name}: bad JSON {e:?}"))?;
        let field = |k: &str| v.get(k).and_then(|x| x.as_str()).unwrap_or("");
        if field("program") != name || v.get("ok") != Some(&serde_json::Value::Bool(true)) {
            return Err(format!("{name}: wrong program or not ok: {text}"));
        }
        if v.get("degraded").is_some() {
            return Err(format!("{name}: degraded answer"));
        }
        let arrays: Vec<(String, String, String)> = v
            .get("per_array")
            .and_then(|a| a.as_array())
            .unwrap_or(&[])
            .iter()
            .map(|a| {
                let s = |k: &str| a.get(k).and_then(|x| x.as_str()).unwrap_or("").to_string();
                (s("array"), s("rho"), s("sigma"))
            })
            .collect();
        if field("bound") == self.bound && arrays == self.arrays {
            Ok(())
        } else {
            Err(format!(
                "{name}: got bound {:?} per_array {arrays:?}, expected {:?} per_array {:?}",
                field("bound"),
                self.bound,
                self.arrays
            ))
        }
    }
}

/// Parse the committed golden registry bounds (`kernel` / `bound` / `array
/// NAME sigma=.. rho=..` lines) into expectations by kernel name.
pub fn parse_golden(text: &str) -> Result<HashMap<String, Expected>, String> {
    let mut out: HashMap<String, Expected> = HashMap::new();
    let mut current: Option<String> = None;
    for line in text.lines() {
        let line = line.trim();
        if let Some(name) = line.strip_prefix("kernel ") {
            current = Some(name.to_string());
            out.insert(
                name.to_string(),
                Expected {
                    bound: String::new(),
                    arrays: Vec::new(),
                },
            );
            continue;
        }
        let Some(entry) = current.as_ref().and_then(|k| out.get_mut(k)) else {
            continue;
        };
        if let Some(bound) = line.strip_prefix("bound ") {
            entry.bound = bound.to_string();
        } else if let Some(rest) = line.strip_prefix("array ") {
            let (array, rest) = rest
                .split_once(" sigma=")
                .ok_or_else(|| format!("golden: bad array line {line:?}"))?;
            let (sigma, rho) = rest
                .split_once(" rho=")
                .ok_or_else(|| format!("golden: bad array line {line:?}"))?;
            entry
                .arrays
                .push((array.to_string(), rho.to_string(), sigma.to_string()));
        }
    }
    if out.is_empty() {
        return Err("golden: no kernels found".into());
    }
    Ok(out)
}

/// Per-sender memo of response bodies that already passed the full check,
/// keyed by expectation index: a byte-identical body for the same request
/// identity is the same verified answer, so the hot path compares bytes
/// instead of re-parsing JSON.
#[derive(Default)]
pub struct Verified(HashMap<usize, Vec<u8>>);

impl Verified {
    pub fn check(
        &mut self,
        key: usize,
        expected: &Expected,
        status: u16,
        body: &[u8],
        name: &str,
    ) -> Result<(), String> {
        if status == 200 && self.0.get(&key).is_some_and(|b| b.as_slice() == body) {
            return Ok(());
        }
        expected.check_response(status, body, name)?;
        self.0.insert(key, body.to_vec());
        Ok(())
    }
}
