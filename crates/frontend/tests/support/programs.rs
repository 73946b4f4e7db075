//! Inputs shared by the frontend's integration tests: a seeded generator,
//! random small programs built through `ProgramBuilder`, a printer to both
//! dialects, and the adversarial corpus (mutated templates, raw garbage,
//! historical panics).  Each test file includes this by path and uses a
//! subset of it.
#![allow(dead_code)]

use soap_ir::{Program, ProgramBuilder, Statement};

/// Deterministic xorshift64* generator — no external crates in this
/// workspace, and reproducible failures beat exotic randomness here.
pub struct Rng(pub u64);

impl Rng {
    pub fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545F4914F6CDD1D)
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }

    /// True with probability `percent`/100.
    pub fn chance(&mut self, percent: u64) -> bool {
        self.next() % 100 < percent
    }
}

const LOOP_VARS: [&str; 4] = ["i", "j", "k", "t"];
const PARAMS: [&str; 3] = ["N", "M", "P"];

/// One random affine subscript over the visible loop variables, rendered as
/// builder/parser syntax (`i`, `2*j`, `k + 1`, `t - 2`, `3`).
fn gen_subscript(rng: &mut Rng, vars: &[&str]) -> String {
    if rng.chance(8) {
        // Constant subscript.
        return format!("{}", rng.below(3));
    }
    let v = vars[rng.below(vars.len())];
    let coeff = if rng.chance(20) { 2 } else { 1 };
    let base = if coeff == 1 {
        v.to_string()
    } else {
        format!("{coeff}*{v}")
    };
    match rng.below(5) {
        0 => format!("{base} + {}", 1 + rng.below(2)),
        1 => format!("{base} - {}", 1 + rng.below(2)),
        _ => base,
    }
}

/// A comma-joined subscript tuple of the given arity.
fn gen_indices(rng: &mut Rng, vars: &[&str], arity: usize) -> String {
    (0..arity)
        .map(|_| gen_subscript(rng, vars))
        .collect::<Vec<_>>()
        .join(",")
}

/// Generate a random small program through the builder.
fn gen_program(rng: &mut Rng, case: usize) -> Program {
    let n_statements = 1 + rng.below(3);
    let mut b = ProgramBuilder::new(format!("prop{case}"));
    for s in 0..n_statements {
        let depth = 1 + rng.below(3);
        let vars: Vec<&str> = LOOP_VARS[..depth].to_vec();
        // Loop specs: occasionally a dependent lower bound on an inner loop.
        let loops: Vec<(String, String, String)> = vars
            .iter()
            .enumerate()
            .map(|(level, v)| {
                let lower = if level > 0 && rng.chance(25) {
                    format!("{} + 1", vars[level - 1])
                } else {
                    format!("{}", rng.below(2))
                };
                let param = PARAMS[rng.below(PARAMS.len())];
                let upper = if rng.chance(25) {
                    format!("{param} - 1")
                } else {
                    param.to_string()
                };
                (v.to_string(), lower, upper)
            })
            .collect();
        // Output: a unique array, subscripted by a non-empty prefix of the
        // loop variables (so update statements get reduction dimensions).
        let out_arity = 1 + rng.below(depth);
        let out_ix = vars[..out_arity].join(",");
        let is_update = rng.chance(50);
        // Reads: 1–3 unique arrays; one may get extra stencil-style
        // components (same linear part, shifted offsets).
        let n_reads = 1 + rng.below(3);
        let reads: Vec<(String, Vec<String>)> = (0..n_reads)
            .map(|r| {
                let arity = 1 + rng.below(2);
                let mut comps = vec![gen_indices(rng, &vars, arity)];
                if r == 0 && rng.chance(30) {
                    // Offset copies of a plain subscript tuple (the Example-1
                    // stencil shape); keep them distinct.
                    let base: Vec<&str> = vars[..arity.min(vars.len())].to_vec();
                    comps = vec![
                        base.join(","),
                        base.iter()
                            .map(|v| format!("{v} + 1"))
                            .collect::<Vec<_>>()
                            .join(","),
                    ];
                    if rng.chance(50) {
                        comps.push(
                            base.iter()
                                .map(|v| format!("{v} - 1"))
                                .collect::<Vec<_>>()
                                .join(","),
                        );
                    }
                }
                (format!("In{s}_{r}"), comps)
            })
            .collect();
        b = b.statement(move |mut st| {
            let specs: Vec<(&str, &str, &str)> = loops
                .iter()
                .map(|(v, lo, hi)| (v.as_str(), lo.as_str(), hi.as_str()))
                .collect();
            st = st.loops(&specs);
            st = if is_update {
                st.update(&format!("Out{s}"), &out_ix)
            } else {
                st.write(&format!("Out{s}"), &out_ix)
            };
            for (array, comps) in &reads {
                st = if comps.len() == 1 {
                    st.read(array, &comps[0])
                } else {
                    let refs: Vec<&str> = comps.iter().map(String::as_str).collect();
                    st.read_multi(array, &refs)
                };
            }
            st
        });
    }
    b.build().expect("generated program builds")
}

/// Render one statement's assignment line: every component of every input
/// access becomes a separate array reference (the parsers re-group them).
fn assignment_line(st: &Statement, c_style: bool) -> String {
    let subscript = |indices: &[soap_ir::LinIndex]| -> String {
        if c_style {
            indices
                .iter()
                .map(|ix| format!("[{ix}]"))
                .collect::<String>()
        } else {
            format!(
                "[{}]",
                indices
                    .iter()
                    .map(|ix| format!("{ix}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            )
        }
    };
    let lhs = format!(
        "{}{}",
        st.output.array,
        subscript(&st.output.components[0].indices)
    );
    let op = if st.is_update { "+=" } else { "=" };
    let rhs: Vec<String> = st
        .inputs
        .iter()
        .flat_map(|acc| {
            acc.components
                .iter()
                .map(move |c| format!("{}{}", acc.array, subscript(&c.indices)))
        })
        .collect();
    format!("{lhs} {op} {}", rhs.join(" + "))
}

/// Pretty-print to the Python-like dialect.
pub fn to_python(p: &Program) -> String {
    let mut out = String::new();
    for st in &p.statements {
        for (level, lv) in st.domain.loops.iter().enumerate() {
            out.push_str(&"    ".repeat(level));
            out.push_str(&format!(
                "for {} in range({}, {}):\n",
                lv.name, lv.lower, lv.upper
            ));
        }
        out.push_str(&"    ".repeat(st.domain.loops.len()));
        out.push_str(&assignment_line(st, false));
        out.push('\n');
    }
    out
}

/// Pretty-print to the C-like dialect.
pub fn to_c(p: &Program) -> String {
    let mut out = String::new();
    for st in &p.statements {
        for (level, lv) in st.domain.loops.iter().enumerate() {
            out.push_str(&"  ".repeat(level));
            out.push_str(&format!(
                "for ({v} = {lo}; {v} < {hi}; {v}++) {{\n",
                v = lv.name,
                lo = lv.lower,
                hi = lv.upper
            ));
        }
        out.push_str(&"  ".repeat(st.domain.loops.len()));
        out.push_str(&assignment_line(st, true));
        out.push_str(";\n");
        for level in (0..st.domain.loops.len()).rev() {
            out.push_str(&"  ".repeat(level));
            out.push_str("}\n");
        }
    }
    out
}

/// A valid-ish program in both dialects: a small random loop nest around a
/// random assignment.  This is deliberately simpler than the round-trip
/// generator — the mutations below do the damage; the template only needs to
/// land the mutated input *near* the grammar so it reaches deep parser paths.
fn gen_template(rng: &mut Rng, c_style: bool) -> String {
    let depth = 1 + rng.below(3);
    let vars: Vec<&str> = LOOP_VARS[..depth].to_vec();
    let mut out = String::new();
    for (level, v) in vars.iter().enumerate() {
        let lo = rng.below(2);
        let hi = PARAMS[rng.below(PARAMS.len())];
        if c_style {
            out.push_str(&"  ".repeat(level));
            out.push_str(&format!("for ({v} = {lo}; {v} < {hi}; {v}++) {{\n"));
        } else {
            out.push_str(&"    ".repeat(level));
            out.push_str(&format!("for {v} in range({lo}, {hi}):\n"));
        }
    }
    let indent = if c_style {
        "  ".repeat(depth)
    } else {
        "    ".repeat(depth)
    };
    let sub = |rng: &mut Rng, vars: &[&str]| -> String {
        let v = vars[rng.below(vars.len())];
        match rng.below(4) {
            0 => format!("{v} + 1"),
            1 => format!("{v} - 1"),
            _ => v.to_string(),
        }
    };
    let lhs_ix = sub(rng, &vars);
    let rhs_ix = sub(rng, &vars);
    let op = if rng.chance(50) { "+=" } else { "=" };
    if c_style {
        out.push_str(&format!(
            "{indent}Out[{lhs_ix}] {op} In[{rhs_ix}] * W[{rhs_ix}];\n"
        ));
        for level in (0..depth).rev() {
            out.push_str(&"  ".repeat(level));
            out.push_str("}\n");
        }
    } else {
        out.push_str(&format!(
            "{indent}Out[{lhs_ix}] {op} In[{rhs_ix}] * W[{rhs_ix}]\n"
        ));
    }
    out
}

/// Characters the mutators splice in: grammar-significant punctuation plus a
/// couple of multi-byte UTF-8 sequences (they used to panic byte-indexed
/// scans).
const SPLICE: [&str; 14] = [
    "[", "]", "(", ")", "{", "}", ";", ":", "=", ",", "<", "*", "β", "∑",
];

/// Apply one random mutation to the source.
fn mutate(rng: &mut Rng, src: &mut String) {
    if src.is_empty() {
        src.push_str(SPLICE[rng.below(SPLICE.len())]);
        return;
    }
    match rng.below(5) {
        // Truncate at a random (char-boundary) position.
        0 => {
            let mut cut = rng.below(src.len() + 1);
            while !src.is_char_boundary(cut) {
                cut -= 1;
            }
            src.truncate(cut);
        }
        // Insert a grammar character at a random boundary.
        1 => {
            let mut at = rng.below(src.len() + 1);
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            src.insert_str(at, SPLICE[rng.below(SPLICE.len())]);
        }
        // Delete one random character.
        2 => {
            let mut at = rng.below(src.len());
            while !src.is_char_boundary(at) {
                at -= 1;
            }
            src.remove(at);
        }
        // Swap two bracket-ish characters (turns `A[i]` into `A]i[` etc.).
        3 => {
            let swapped: String = src
                .chars()
                .map(|c| match c {
                    '[' => ']',
                    ']' => '[',
                    '(' => ')',
                    ')' => '(',
                    '{' => '}',
                    '}' => '{',
                    other => other,
                })
                .collect();
            *src = swapped;
        }
        // Duplicate a random line (stresses the dedent/brace stacks).
        _ => {
            let lines: Vec<&str> = src.lines().collect();
            if !lines.is_empty() {
                let line = lines[rng.below(lines.len())].to_string();
                src.push_str(&line);
                src.push('\n');
            }
        }
    }
}

/// Raw garbage: random bytes forced into UTF-8 (lossy), so the parsers see
/// arbitrary character soup rather than anything grammar-shaped.
fn gen_garbage(rng: &mut Rng) -> String {
    let len = rng.below(200);
    let bytes: Vec<u8> = (0..len).map(|_| (rng.next() & 0xFF) as u8).collect();
    String::from_utf8_lossy(&bytes).into_owned()
}

/// The 300 programs of the round-trip property, in generation order.
pub fn generated_programs() -> Vec<Program> {
    let mut rng = Rng(0x5eed_50a9_2026_0730);
    (0..300).map(|case| gen_program(&mut rng, case)).collect()
}

/// The 600 mutated templates of the adversarial fuzz, alternating C-like
/// (even cases) and Python-like (odd cases) templates.
pub fn mutated_sources() -> Vec<String> {
    let mut rng = Rng(0x5eed_5afe_2026_0808);
    (0..600)
        .map(|case| {
            let mut src = gen_template(&mut rng, case % 2 == 0);
            let n_mutations = 1 + rng.below(4);
            for _ in 0..n_mutations {
                mutate(&mut rng, &mut src);
            }
            src
        })
        .collect()
}

/// The 400 raw-garbage inputs of the adversarial fuzz.
pub fn garbage_sources() -> Vec<String> {
    let mut rng = Rng(0x6a55_ba6e_2026_0808);
    (0..400).map(|_| gen_garbage(&mut rng)).collect()
}

/// Regression corpus: each of these used to panic a parser before the
/// hardening pass (inverted slices, mid-character str indexing).
pub const HISTORICAL_PANICS: [&str; 5] = [
    "for ) ( { A[i] = B[i]; }",
    "for (i = 0; i < N; i++) { A[i]]x[ = B[i]; }",
    "for (i = 0; i < N; i++) { βA[i] = B[i]; }",
    "for i in range(N):\n    A[i]]x[ = B[i]\n",
    "for i in range(N):\n    ∑[i] = B[i]\n",
];
