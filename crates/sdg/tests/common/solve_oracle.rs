//! The `Value`-tree solve-record codec: the reference the store's direct
//! record writer and reader must match.  The encoder builds the payload as a
//! `serde::Value` tree (rationals as `[num, den]` pairs, floats as raw
//! `f64::to_bits` integers, `ρ`/`X₀` through `Expr`'s `Serialize` impl) and
//! prints it with `serde_json::to_string`, prefixed by the payload's
//! FNV-1a-64 digest; the decoder parses the line into a `Value` tree and
//! reads the key and solution out of it, rejecting a key whose matrices
//! disagree with its `n` or whose terms name a missing atom.
//!
//! Included by path from the store's unit tests, next to `report_oracle`
//! (whose digest it shares); the canonical key and solution types are
//! crate-private, so no integration test can include it.

use super::report_oracle::fnv1a64;
use super::{
    AnalysisError, CanonicalAtom, CanonicalDominator, CanonicalKey, CanonicalRow,
    CanonicalSolution, Expr, Rational, StoreEntry,
};
use serde::{DeError, Deserialize, Serialize, Value};

/// Encode one record line (without the trailing newline).
pub fn encode_record(key: &CanonicalKey, sol: &Result<CanonicalSolution, AnalysisError>) -> String {
    let payload = Value::Object(vec![
        ("key".to_string(), key_to_value(key)),
        ("sol".to_string(), solution_to_value(sol)),
    ]);
    let json = serde_json::to_string(&payload).expect("record serializes");
    record_line(&json)
}

/// The record line (without the trailing newline) of a JSON payload: the
/// payload behind its digest.
fn record_line(json: &str) -> String {
    format!("{:016x} {json}", fnv1a64(json.as_bytes()))
}

/// The JSON payload of one record line of either family, after its digest
/// check; `None` when the line fails it.
fn checked_json(line: &str) -> Option<&str> {
    let (digest, json) = line.split_once(' ')?;
    let expected = u64::from_str_radix(digest, 16).ok()?;
    if digest.len() != 16 || fnv1a64(json.as_bytes()) != expected {
        return None;
    }
    Some(json)
}

/// Decode a solve record line; `None` on a digest or shape failure.
pub fn decode_record(line: &str) -> Option<StoreEntry> {
    solve_record_from_payload(&serde_json::from_str(checked_json(line)?).ok()?)
}

/// Decode a solve record's payload; `None` on any shape failure.
fn solve_record_from_payload(payload: &Value) -> Option<StoreEntry> {
    let key = key_from_value(payload.get("key")?).ok()?;
    let sol = solution_from_value(payload.get("sol")?).ok()?;
    Some((key, sol))
}

fn rational_to_value(r: Rational) -> Value {
    Value::Array(vec![Value::Int(r.numer()), Value::Int(r.denom())])
}

fn rational_from_value(v: &Value) -> Result<Rational, DeError> {
    let [num, den] = v
        .as_array()
        .and_then(|a| <&[Value; 2]>::try_from(a).ok())
        .ok_or_else(|| DeError::msg("rational: expected [num, den]"))?;
    let num = num
        .as_i128()
        .ok_or_else(|| DeError::msg("rational: non-integer numerator"))?;
    let den = den
        .as_i128()
        .filter(|&d| d != 0)
        .ok_or_else(|| DeError::msg("rational: bad denominator"))?;
    Ok(Rational::new(num, den))
}

/// `f64` as its raw bit pattern: the only representation that survives the
/// text round trip bit-exactly for every value, including NaN payloads and
/// signed zeros (the JSON layer would flatten non-finite floats to `null`).
fn f64_to_value(x: f64) -> Value {
    Value::Int(i128::from(x.to_bits()))
}

fn f64_from_value(v: &Value) -> Result<f64, DeError> {
    let bits = v
        .as_i128()
        .and_then(|n| u64::try_from(n).ok())
        .ok_or_else(|| DeError::msg("float: expected u64 bit pattern"))?;
    Ok(f64::from_bits(bits))
}

fn rows_to_value(rows: &[CanonicalRow]) -> Value {
    Value::Array(
        rows.iter()
            .map(|(exps, coeff)| Value::Array(vec![exps.to_value(), rational_to_value(*coeff)]))
            .collect(),
    )
}

fn rows_from_value(v: &Value) -> Result<Vec<CanonicalRow>, DeError> {
    v.as_array()
        .ok_or_else(|| DeError::msg("rows: expected array"))?
        .iter()
        .map(|row| {
            let [exps, coeff] = row
                .as_array()
                .and_then(|a| <&[Value; 2]>::try_from(a).ok())
                .ok_or_else(|| DeError::msg("row: expected [exps, rational]"))?;
            Ok((Vec::<i16>::from_value(exps)?, rational_from_value(coeff)?))
        })
        .collect()
}

fn key_to_value(key: &CanonicalKey) -> Value {
    let dominator = match &key.dominator {
        CanonicalDominator::Pure(rows) => {
            Value::Object(vec![("Pure".to_string(), rows_to_value(rows))])
        }
        CanonicalDominator::Max { terms, atoms } => {
            let terms = Value::Array(
                terms
                    .iter()
                    .map(|(exps, coeff, atom_ids)| {
                        Value::Array(vec![
                            exps.to_value(),
                            rational_to_value(*coeff),
                            atom_ids.to_value(),
                        ])
                    })
                    .collect(),
            );
            let atoms = Value::Array(
                atoms
                    .iter()
                    .map(|a| {
                        Value::Object(vec![
                            ("min".to_string(), Value::Bool(a.is_min)),
                            (
                                "branches".to_string(),
                                Value::Array(a.branches.iter().map(|b| rows_to_value(b)).collect()),
                            ),
                        ])
                    })
                    .collect(),
            );
            Value::Object(vec![(
                "Max".to_string(),
                Value::Object(vec![
                    ("terms".to_string(), terms),
                    ("atoms".to_string(), atoms),
                ]),
            )])
        }
    };
    Value::Object(vec![
        ("n".to_string(), key.n_vars.to_value()),
        ("obj".to_string(), rows_to_value(&key.objective)),
        ("dom".to_string(), dominator),
    ])
}

fn key_from_value(v: &Value) -> Result<CanonicalKey, DeError> {
    let n_vars = usize::from_value(v.get("n").ok_or_else(|| DeError::msg("key: missing 'n'"))?)?;
    let objective = rows_from_value(
        v.get("obj")
            .ok_or_else(|| DeError::msg("key: missing 'obj'"))?,
    )?;
    let dom = v
        .get("dom")
        .ok_or_else(|| DeError::msg("key: missing 'dom'"))?;
    let dominator = if let Some(rows) = dom.get("Pure") {
        CanonicalDominator::Pure(rows_from_value(rows)?)
    } else if let Some(max) = dom.get("Max") {
        let terms = max
            .get("terms")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::msg("key: Max missing 'terms'"))?
            .iter()
            .map(|t| {
                let [exps, coeff, atom_ids] = t
                    .as_array()
                    .and_then(|a| <&[Value; 3]>::try_from(a).ok())
                    .ok_or_else(|| DeError::msg("key: Max term shape"))?;
                Ok((
                    Vec::<i16>::from_value(exps)?,
                    rational_from_value(coeff)?,
                    Vec::<u32>::from_value(atom_ids)?,
                ))
            })
            .collect::<Result<Vec<_>, DeError>>()?;
        let atoms = max
            .get("atoms")
            .and_then(Value::as_array)
            .ok_or_else(|| DeError::msg("key: Max missing 'atoms'"))?
            .iter()
            .map(|a| {
                let is_min = bool::from_value(
                    a.get("min")
                        .ok_or_else(|| DeError::msg("key: atom missing 'min'"))?,
                )?;
                let branches = a
                    .get("branches")
                    .and_then(Value::as_array)
                    .ok_or_else(|| DeError::msg("key: atom missing 'branches'"))?
                    .iter()
                    .map(rows_from_value)
                    .collect::<Result<Vec<_>, DeError>>()?;
                Ok(CanonicalAtom { is_min, branches })
            })
            .collect::<Result<Vec<_>, DeError>>()?;
        CanonicalDominator::Max { terms, atoms }
    } else {
        return Err(DeError::msg("key: dominator is neither Pure nor Max"));
    };
    let key = CanonicalKey {
        n_vars,
        objective,
        dominator,
    };
    // Shape validation: a record whose matrices disagree with `n` would
    // poison the cache with a key no live model can produce.
    let row_ok = |rows: &[CanonicalRow]| rows.iter().all(|(e, _)| e.len() == n_vars);
    let shape_ok = row_ok(&key.objective)
        && match &key.dominator {
            CanonicalDominator::Pure(rows) => row_ok(rows),
            CanonicalDominator::Max { terms, atoms } => {
                terms.iter().all(|(e, _, ids)| {
                    e.len() == n_vars && ids.iter().all(|&j| (j as usize) < atoms.len())
                }) && atoms.iter().all(|a| a.branches.iter().all(|b| row_ok(b)))
            }
        };
    if !shape_ok {
        return Err(DeError::msg("key: matrix shape disagrees with 'n'"));
    }
    Ok(key)
}

fn error_to_value(e: &AnalysisError) -> Value {
    let (tag, msg) = match e {
        AnalysisError::InvalidStatement(m) => ("InvalidStatement", m),
        AnalysisError::NoInputs(m) => ("NoInputs", m),
        AnalysisError::NumericalFailure(m) => ("NumericalFailure", m),
        AnalysisError::Internal(m) => ("Internal", m),
        // Kept total for codec symmetry, but never reached from `flush_store`:
        // cancelled results carry the transient scope and are filtered out.
        AnalysisError::Cancelled(m) => ("Cancelled", m),
    };
    Value::Object(vec![(tag.to_string(), Value::Str(msg.clone()))])
}

fn error_from_value(v: &Value) -> Result<AnalysisError, DeError> {
    let Value::Object(fields) = v else {
        return Err(DeError::msg("error: expected single-key object"));
    };
    let [(tag, payload)] = fields.as_slice() else {
        return Err(DeError::msg("error: expected exactly one variant"));
    };
    let msg = String::from_value(payload)?;
    match tag.as_str() {
        "InvalidStatement" => Ok(AnalysisError::InvalidStatement(msg)),
        "NoInputs" => Ok(AnalysisError::NoInputs(msg)),
        "NumericalFailure" => Ok(AnalysisError::NumericalFailure(msg)),
        "Internal" => Ok(AnalysisError::Internal(msg)),
        "Cancelled" => Ok(AnalysisError::Cancelled(msg)),
        other => Err(DeError::msg(format!("error: unknown variant '{other}'"))),
    }
}

fn solution_to_value(sol: &Result<CanonicalSolution, AnalysisError>) -> Value {
    match sol {
        Ok(s) => Value::Object(vec![(
            "Ok".to_string(),
            Value::Object(vec![
                ("sigma".to_string(), rational_to_value(s.sigma)),
                ("chi".to_string(), f64_to_value(s.chi_coeff)),
                ("rho".to_string(), s.rho.to_value()),
                ("x0".to_string(), s.x0.to_value()),
                (
                    "exps".to_string(),
                    Value::Array(
                        s.tile_exponents
                            .iter()
                            .map(|r| rational_to_value(*r))
                            .collect(),
                    ),
                ),
                (
                    "coeffs".to_string(),
                    Value::Array(s.tile_coeffs.iter().map(|c| f64_to_value(*c)).collect()),
                ),
            ]),
        )]),
        Err(e) => Value::Object(vec![("Err".to_string(), error_to_value(e))]),
    }
}

fn solution_from_value(v: &Value) -> Result<Result<CanonicalSolution, AnalysisError>, DeError> {
    if let Some(err) = v.get("Err") {
        return Ok(Err(error_from_value(err)?));
    }
    let s = v
        .get("Ok")
        .ok_or_else(|| DeError::msg("solution: expected Ok or Err"))?;
    let field = |name: &str| {
        s.get(name)
            .ok_or_else(|| DeError::msg(format!("solution: missing '{name}'")))
    };
    let tile_exponents = field("exps")?
        .as_array()
        .ok_or_else(|| DeError::msg("solution: 'exps' not an array"))?
        .iter()
        .map(rational_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    let tile_coeffs = field("coeffs")?
        .as_array()
        .ok_or_else(|| DeError::msg("solution: 'coeffs' not an array"))?
        .iter()
        .map(f64_from_value)
        .collect::<Result<Vec<_>, DeError>>()?;
    if tile_exponents.len() != tile_coeffs.len() {
        return Err(DeError::msg("solution: exps/coeffs length mismatch"));
    }
    Ok(Ok(CanonicalSolution {
        sigma: rational_from_value(field("sigma")?)?,
        chi_coeff: f64_from_value(field("chi")?)?,
        rho: Expr::from_value(field("rho")?)?,
        x0: Option::<Expr>::from_value(field("x0")?)?,
        tile_exponents,
        tile_coeffs,
    }))
}
