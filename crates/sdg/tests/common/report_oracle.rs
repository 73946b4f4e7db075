//! The `Value`-tree report-record encoder: the reference the store's direct
//! record writer must match byte for byte.  It builds the payload as a
//! `serde::Value` tree (`Expr` through its `Serialize` impl, rationals as
//! `[num, den]` pairs, floats as raw `f64::to_bits` integers) and prints it
//! with `serde_json::to_string`, prefixed by the payload's FNV-1a-64 digest.
//!
//! Included by path both from the store's unit tests and from the
//! integration tests; the including module must have `ArrayBound`, `Expr`,
//! `IntensityResult`, `Polynomial`, `Rational` and `SubgraphIntensity` in
//! scope.

use super::{ArrayBound, Expr, IntensityResult, Polynomial, Rational, SubgraphIntensity};
use serde::{Serialize, Value};

/// FNV-1a-64, the store's line digest.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

fn rational_to_value(r: Rational) -> Value {
    Value::Array(vec![Value::Int(r.numer()), Value::Int(r.denom())])
}

fn f64_to_value(x: f64) -> Value {
    Value::Int(i128::from(x.to_bits()))
}

fn poly_to_value(p: &Polynomial) -> Value {
    Value::Array(
        p.terms()
            .map(|(mono, coeff)| {
                let vars = Value::Array(
                    mono.0
                        .iter()
                        .map(|(v, e)| {
                            Value::Array(vec![Value::Str(v.clone()), Value::Int(i128::from(*e))])
                        })
                        .collect(),
                );
                Value::Array(vec![vars, rational_to_value(*coeff)])
            })
            .collect(),
    )
}

fn intensity_to_value(r: &IntensityResult) -> Value {
    Value::Object(vec![
        ("name".to_string(), Value::Str(r.name.clone())),
        ("sigma".to_string(), rational_to_value(r.sigma)),
        ("chi".to_string(), f64_to_value(r.chi_coeff)),
        ("rho".to_string(), r.rho.to_value()),
        ("x0".to_string(), r.x0.to_value()),
        (
            "exps".to_string(),
            Value::Array(
                r.tile_exponents
                    .iter()
                    .map(|(v, e)| Value::Array(vec![Value::Str(v.clone()), rational_to_value(*e)]))
                    .collect(),
            ),
        ),
        (
            "coeffs".to_string(),
            Value::Array(
                r.tile_coeffs
                    .iter()
                    .map(|(v, c)| Value::Array(vec![Value::Str(v.clone()), f64_to_value(*c)]))
                    .collect(),
            ),
        ),
    ])
}

fn array_bound_to_value(b: &ArrayBound) -> Value {
    Value::Object(vec![
        ("array".to_string(), Value::Str(b.array.clone())),
        ("vertices".to_string(), poly_to_value(&b.vertex_count)),
        ("rho".to_string(), b.rho.to_value()),
        ("sigma".to_string(), rational_to_value(b.sigma)),
        ("best".to_string(), b.best_subgraph.to_value()),
        ("bound".to_string(), b.bound.to_value()),
    ])
}

fn subgraph_to_value(s: &SubgraphIntensity) -> Value {
    Value::Object(vec![
        ("arrays".to_string(), s.arrays.to_value()),
        ("intensity".to_string(), intensity_to_value(&s.intensity)),
        ("rho_ref".to_string(), f64_to_value(s.rho_ref)),
    ])
}

/// The report-record line (without the trailing newline) of a finished
/// analysis' parts under `key`.
pub fn oracle_report_line(
    key: u64,
    per_array: &[ArrayBound],
    subgraphs: &[SubgraphIntensity],
    bound: &Expr,
    notes: &[String],
) -> String {
    let report = Value::Object(vec![
        (
            "per_array".to_string(),
            Value::Array(per_array.iter().map(array_bound_to_value).collect()),
        ),
        (
            "subgraphs".to_string(),
            Value::Array(subgraphs.iter().map(subgraph_to_value).collect()),
        ),
        ("bound".to_string(), bound.to_value()),
        ("notes".to_string(), notes.to_value()),
    ]);
    let payload = Value::Object(vec![
        ("key".to_string(), Value::Int(i128::from(key))),
        ("report".to_string(), report),
    ]);
    let json = serde_json::to_string(&payload).expect("report record serializes");
    format!("{:016x} {json}", fnv1a64(json.as_bytes()))
}
