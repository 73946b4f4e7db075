//! Property test for the two frontend dialects: random small loop nests are
//! generated through `ProgramBuilder`, pretty-printed to both the
//! Python-like and the C-like dialect, and parsed back — `parse_python` and
//! `parse_c` must both reproduce the *same IR* the builder produced
//! (`Program` equality: domains, access components, update flags, statement
//! order).  The hand-written snippets in `tests/frontend_to_bound.rs` cover a
//! handful of shapes; this sweeps a few hundred.

use soap_frontend::{parse_c, parse_python};

#[path = "support/programs.rs"]
mod programs;
use programs::{generated_programs, to_c, to_python};

#[test]
fn random_programs_round_trip_through_both_dialects() {
    for (case, built) in generated_programs().into_iter().enumerate() {
        let py_src = to_python(&built);
        let c_src = to_c(&built);
        let from_py = parse_python(&built.name, &py_src)
            .unwrap_or_else(|e| panic!("case {case}: python parse failed: {e}\nsource:\n{py_src}"));
        assert_eq!(
            built, from_py,
            "case {case}: python round-trip diverged\nsource:\n{py_src}"
        );
        let from_c = parse_c(&built.name, &c_src)
            .unwrap_or_else(|e| panic!("case {case}: C parse failed: {e}\nsource:\n{c_src}"));
        assert_eq!(
            built, from_c,
            "case {case}: C round-trip diverged\nsource:\n{c_src}"
        );
    }
}
