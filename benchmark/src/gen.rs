//! Seeded program generation: a printer from `Program` to both source
//! dialects, loop-variable and array renamings, and random small loop nests
//! for brand-new structures.

use crate::util::Rng;
use soap_ir::{Program, ProgramBuilder, Statement};
use std::collections::BTreeMap;

/// A source dialect the daemon accepts on `POST /analyze?lang=`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dialect {
    Python,
    C,
}

impl Dialect {
    pub fn lang(self) -> &'static str {
        match self {
            Dialect::Python => "python",
            Dialect::C => "c",
        }
    }

    pub fn parse(self, name: &str, source: &str) -> Result<Program, String> {
        match self {
            Dialect::Python => soap_frontend::parse_python(name, source),
            Dialect::C => soap_frontend::parse_c(name, source),
        }
        .map_err(|e| e.to_string())
    }

    pub fn pick(rng: &mut Rng) -> Dialect {
        if rng.chance(0.5) {
            Dialect::Python
        } else {
            Dialect::C
        }
    }
}

/// Print `p` in `dialect`: one loop nest per statement, every component of
/// every input access as its own array reference (the parsers regroup them).
pub fn print(p: &Program, dialect: Dialect) -> String {
    let c = dialect == Dialect::C;
    let indent = if c { "  " } else { "    " };
    let mut out = String::new();
    for st in &p.statements {
        for (level, lv) in st.domain.loops.iter().enumerate() {
            out.push_str(&indent.repeat(level));
            if c {
                out.push_str(&format!(
                    "for ({v} = {lo}; {v} < {hi}; {v}++) {{\n",
                    v = lv.name,
                    lo = lv.lower,
                    hi = lv.upper
                ));
            } else {
                out.push_str(&format!(
                    "for {} in range({}, {}):\n",
                    lv.name, lv.lower, lv.upper
                ));
            }
        }
        let depth = st.domain.loops.len();
        out.push_str(&indent.repeat(depth));
        out.push_str(&assignment(st, c));
        out.push_str(if c { ";\n" } else { "\n" });
        if c {
            for level in (0..depth).rev() {
                out.push_str(&indent.repeat(level));
                out.push_str("}\n");
            }
        }
    }
    out
}

fn assignment(st: &Statement, c: bool) -> String {
    let subscript = |indices: &[soap_ir::LinIndex]| -> String {
        let parts: Vec<String> = indices.iter().map(|ix| ix.to_string()).collect();
        if c {
            parts.iter().map(|p| format!("[{p}]")).collect()
        } else {
            format!("[{}]", parts.join(", "))
        }
    };
    let lhs = format!(
        "{}{}",
        st.output.array,
        subscript(&st.output.components[0].indices)
    );
    let rhs: Vec<String> = st
        .inputs
        .iter()
        .flat_map(|acc| {
            acc.components
                .iter()
                .map(move |comp| format!("{}{}", acc.array, subscript(&comp.indices)))
        })
        .collect();
    let op = if st.is_update { "+=" } else { "=" };
    format!("{lhs} {op} {}", rhs.join(" + "))
}

/// `p` with every statement's loop variables renamed to fresh seeded names.
/// The daemon's memo key is invariant under this renaming.
pub fn rename_loops(p: &Program, rng: &mut Rng) -> Program {
    let mut out = p.clone();
    for st in &mut out.statements {
        let mut map: BTreeMap<String, String> = BTreeMap::new();
        for lv in &st.domain.loops {
            loop {
                let fresh = format!("lv{}", rng.below(10_000));
                if !map.values().any(|v| *v == fresh) {
                    map.insert(lv.name.clone(), fresh);
                    break;
                }
            }
        }
        let rename = |terms: &mut BTreeMap<String, i64>| {
            *terms = terms
                .iter()
                .map(|(k, v)| (map.get(k).cloned().unwrap_or_else(|| k.clone()), *v))
                .collect();
        };
        for lv in &mut st.domain.loops {
            lv.name = map[&lv.name].clone();
            rename(&mut lv.lower.terms);
            rename(&mut lv.upper.terms);
        }
        for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
            for comp in &mut acc.components {
                for ix in &mut comp.indices {
                    rename(&mut ix.coeffs);
                }
            }
        }
    }
    out
}

/// `p` with every array name prefixed: a fresh program identity over the
/// same structure (the daemon's memo and report keys include array names).
pub fn prefix_arrays(p: &Program, prefix: &str) -> Program {
    let mut out = p.clone();
    for st in &mut out.statements {
        for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
            acc.array = format!("{prefix}{}", acc.array);
        }
    }
    out
}

/// True when `source` parses in `dialect` back to `p` (statement names
/// aside, which the dialects do not carry).
pub fn round_trips(p: &Program, dialect: Dialect, source: &str) -> bool {
    let Ok(mut parsed) = dialect.parse(&p.name, source) else {
        return false;
    };
    if parsed.statements.len() != p.statements.len() {
        return false;
    }
    for (a, b) in parsed.statements.iter_mut().zip(&p.statements) {
        a.name = b.name.clone();
    }
    parsed == *p
}

const LOOP_VARS: [&str; 4] = ["i", "j", "k", "t"];
const PARAMS: [&str; 3] = ["N", "M", "P"];

/// A random small loop nest (1–3 statements, depth 1–3, affine subscripts
/// with small coefficients and offsets) whose arrays all carry `prefix`, so
/// it is a brand-new program identity.  `None` when the draw does not build.
pub fn random_program(rng: &mut Rng, name: &str, prefix: &str) -> Option<Program> {
    let n_statements = 1 + rng.below(3);
    let mut b = ProgramBuilder::new(name);
    for s in 0..n_statements {
        let depth = 1 + rng.below(3);
        let vars = &LOOP_VARS[..depth];
        let loops: Vec<(String, String, String)> = vars
            .iter()
            .enumerate()
            .map(|(level, v)| {
                let lower = if level > 0 && rng.chance(0.25) {
                    format!("{} + 1", vars[level - 1])
                } else {
                    format!("{}", rng.below(2))
                };
                let param = PARAMS[rng.below(PARAMS.len())];
                let upper = if rng.chance(0.25) {
                    format!("{param} - 1")
                } else {
                    param.to_string()
                };
                (v.to_string(), lower, upper)
            })
            .collect();
        let out_ix = vars[..1 + rng.below(depth)].join(",");
        let is_update = rng.chance(0.5);
        // Later statements read earlier outputs now and then, so some
        // programs have multi-array subgraphs to merge.
        let mut reads: Vec<(String, String)> = Vec::new();
        if s > 0 && rng.chance(0.6) {
            let arity = 1 + rng.below(depth);
            reads.push((
                format!("{prefix}Out{}", rng.below(s)),
                subscripts(rng, vars, arity),
            ));
        }
        for r in 0..1 + rng.below(3) {
            let arity = 1 + rng.below(2);
            reads.push((format!("{prefix}In{s}_{r}"), subscripts(rng, vars, arity)));
        }
        let output = format!("{prefix}Out{s}");
        b = b.statement(move |mut st| {
            let specs: Vec<(&str, &str, &str)> = loops
                .iter()
                .map(|(v, lo, hi)| (v.as_str(), lo.as_str(), hi.as_str()))
                .collect();
            st = st.loops(&specs);
            st = if is_update {
                st.update(&output, &out_ix)
            } else {
                st.write(&output, &out_ix)
            };
            for (array, ix) in &reads {
                st = st.read(array, ix);
            }
            st
        });
    }
    b.build().ok()
}

fn subscripts(rng: &mut Rng, vars: &[&str], arity: usize) -> String {
    (0..arity)
        .map(|_| {
            let v = vars[rng.below(vars.len())];
            let base = if rng.chance(0.2) {
                format!("2*{v}")
            } else {
                v.to_string()
            };
            match rng.below(5) {
                0 => format!("{base} + {}", 1 + rng.below(2)),
                1 => format!("{base} - {}", 1 + rng.below(2)),
                _ => base,
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}
