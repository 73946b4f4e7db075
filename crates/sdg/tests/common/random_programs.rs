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
