//! Seeded random programs shared by the store-record tests: small loop nests
//! whose statements read fresh inputs and earlier outputs, drawn by a fixed
//! xorshift64* stream so every run sees the same programs.

use soap_ir::{Program, ProgramBuilder};

/// Deterministic xorshift64* generator.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// A small random program: 1–3 statements over 2–3 loops, reading fresh
/// inputs and earlier outputs.  `None` when the drawn shape does not
/// validate.
fn random_program(rng: &mut Rng, case: usize) -> Option<Program> {
    const VARS: [&str; 3] = ["i", "j", "k"];
    const PARAMS: [&str; 2] = ["N", "M"];
    let mut builder = ProgramBuilder::new(format!("rand{case}"));
    // Arrays written so far, with their arity.
    let mut produced: Vec<(String, usize)> = Vec::new();
    for s in 0..1 + rng.below(3) {
        let depth = 2 + rng.below(2);
        let loops: Vec<(&str, &str, &str)> = VARS[..depth]
            .iter()
            .map(|v| (*v, "0", PARAMS[rng.below(PARAMS.len())]))
            .collect();
        let output = format!("W{s}");
        let out_arity = 1 + rng.below(depth);
        let out_ix = VARS[..out_arity].join(",");
        let reads: Vec<(String, String)> = (0..1 + rng.below(2))
            .map(|r| {
                let (name, arity) = if !produced.is_empty() && rng.below(2) == 0 {
                    produced[rng.below(produced.len())].clone()
                } else {
                    (format!("R{s}x{r}"), 1 + rng.below(2))
                };
                let ix: Vec<&str> = (0..arity).map(|_| VARS[rng.below(depth)]).collect();
                (name, ix.join(","))
            })
            .collect();
        let update = rng.below(2) == 0;
        builder = builder.statement(|st| {
            let st = st.loops(&loops);
            let mut st = if update {
                st.update(&output, &out_ix)
            } else {
                st.write(&output, &out_ix)
            };
            for (name, ix) in &reads {
                st = st.read(name, ix);
            }
            st
        });
        produced.push((output, out_arity));
    }
    builder.build().ok()
}

/// The programs of 60 draws from the fixed seed, skipping draws whose shape
/// does not validate.
pub fn seeded_random_programs() -> Vec<Program> {
    let mut rng = Rng(0x5eed_2e90_2026_1019);
    (0..60)
        .filter_map(|case| random_program(&mut rng, case))
        .collect()
}

/// One subscript drawn from the shapes the merge treats differently: a
/// plain variable, a variable plus an offset, a constant, and two-variable
/// combinations (non-injective unless the analysis assumes otherwise).
fn rich_subscript(rng: &mut Rng, vars: &[&str]) -> String {
    let v = vars[rng.below(vars.len())];
    let w = vars[rng.below(vars.len())];
    match rng.below(8) {
        0..=2 => v.to_string(),
        3 => format!("{v}+1"),
        4 => format!("{v}-1"),
        5 => rng.below(2).to_string(),
        6 => format!("{v}+{w}"),
        _ => format!("{v}+2*{w}"),
    }
}

/// Up to three components of one read that translate a drawn subscript
/// tuple by small offsets (stencil reads), or a single component.
fn rich_components(rng: &mut Rng, vars: &[&str], arity: usize) -> Vec<String> {
    let base: Vec<String> = (0..arity).map(|_| rich_subscript(rng, vars)).collect();
    let mut comps = vec![base.join(",")];
    for _ in 0..rng.below(3) {
        let d = rng.below(arity);
        let shifted: Vec<String> = base
            .iter()
            .enumerate()
            .map(|(i, s)| {
                if i == d {
                    format!("{s}+{}", 1 + rng.below(2))
                } else {
                    s.clone()
                }
            })
            .collect();
        comps.push(shifted.join(","));
    }
    comps
}

/// A small random program exercising every branch of the subgraph merge:
/// offsets and multi-component stencil reads (Lemma 3), non-update
/// statements reading their own output (Corollary 1), multi-variable
/// subscripts (the non-injective `max` and the injective product, an atom
/// squared when two dimensions share one, a `max` nested in a union), reads
/// of earlier outputs with mismatched arities, and repeated subscripts that
/// unify two loops of one statement.  `None` when the drawn shape does not
/// validate.
fn rich_program(rng: &mut Rng, case: usize) -> Option<Program> {
    const VARS: [&str; 3] = ["i", "j", "k"];
    let mut builder = ProgramBuilder::new(format!("rich{case}"));
    let mut produced: Vec<(String, usize)> = Vec::new();
    for s in 0..1 + rng.below(3) {
        let depth = 2 + rng.below(2);
        let vars = &VARS[..depth];
        let loops: Vec<(&str, &str, &str)> = vars.iter().map(|v| (*v, "0", "N")).collect();
        let output = format!("W{s}");
        let out_arity = 1 + rng.below(depth);
        let out_ix: Vec<&str> = (0..out_arity).map(|_| vars[rng.below(depth)]).collect();
        let out_ix = out_ix.join(",");
        let mut reads: Vec<(String, Vec<String>)> = Vec::new();
        for r in 0..1 + rng.below(3) {
            let (name, arity) = match rng.below(4) {
                0 if !produced.is_empty() => produced[rng.below(produced.len())].clone(),
                1 => (format!("R{s}x{}", rng.below(2)), 1 + rng.below(2)),
                _ => (format!("R{s}y{r}"), 1 + rng.below(3)),
            };
            reads.push((name, rich_components(rng, vars, arity)));
        }
        let update = rng.below(2) == 0;
        if !update && rng.below(3) == 0 {
            // An in/out overlap: the output read back at an offset.
            let first = out_ix.split(',').next().unwrap_or("i").to_string();
            let rest: Vec<&str> = out_ix.split(',').skip(1).collect();
            let shifted = std::iter::once(format!("{first}-1"))
                .chain(rest.iter().map(|r| r.to_string()))
                .collect::<Vec<_>>()
                .join(",");
            reads.push((output.clone(), vec![shifted]));
        }
        builder = builder.statement(|st| {
            let st = st.loops(&loops);
            let mut st = if update {
                st.update(&output, &out_ix)
            } else {
                st.write(&output, &out_ix)
            };
            for (name, comps) in &reads {
                let comps: Vec<&str> = comps.iter().map(String::as_str).collect();
                st = st.read_multi(name, &comps);
            }
            st
        });
        produced.push((output, out_arity));
    }
    builder.build().ok()
}

/// The programs of 120 draws of [`rich_program`] from a fixed seed,
/// skipping draws whose shape does not validate.
#[allow(dead_code)] // not every includer draws these
pub fn seeded_rich_programs() -> Vec<Program> {
    let mut rng = Rng(0x51c4_0f5e_2026_1021);
    (0..120)
        .filter_map(|case| rich_program(&mut rng, case))
        .collect()
}
