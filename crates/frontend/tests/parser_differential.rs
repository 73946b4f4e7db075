//! Differential test of the single-pass parsers against the parsers they
//! replaced (`support/reference_parser.rs`): on every input below,
//! `parse_python` and `parse_c` must return exactly what the reference
//! returns — equal programs, or equal errors down to line, column and
//! message.  The inputs are the 38 registry programs printed in both
//! dialects, the round-trip property's generated programs, the adversarial
//! fuzz corpus, and hand-picked edge cases of subscript groups and
//! operators.

use soap_frontend::{parse_c, parse_python};

#[path = "support/programs.rs"]
mod programs;
#[path = "support/reference_parser.rs"]
mod reference_parser;

use programs::{
    garbage_sources, generated_programs, mutated_sources, to_c, to_python, HISTORICAL_PANICS,
};

/// Assert both dialects agree with the reference on `src`; returns how many
/// of the two parses succeeded.
fn assert_same(label: &str, src: &str) -> usize {
    let py = parse_python("diff", src);
    assert_eq!(
        py,
        reference_parser::parse_python("diff", src),
        "{label}: parse_python diverged on\n---8<---\n{src}\n--->8---"
    );
    let c = parse_c("diff", src);
    assert_eq!(
        c,
        reference_parser::parse_c("diff", src),
        "{label}: parse_c diverged on\n---8<---\n{src}\n--->8---"
    );
    usize::from(py.is_ok()) + usize::from(c.is_ok())
}

#[test]
fn registry_programs_parse_as_before_in_both_dialects() {
    let registry = soap_kernels::registry();
    assert_eq!(registry.len(), 38);
    for entry in &registry {
        let label = format!("kernel {}", entry.name);
        // Each printed source goes through both parsers: the other dialect's
        // rejection paths are compared too.
        let parsed = assert_same(&label, &to_python(&entry.program))
            + assert_same(&label, &to_c(&entry.program));
        assert!(parsed >= 2, "{label}: its own dialects must parse");
    }
}

#[test]
fn generated_programs_parse_as_before() {
    for (case, program) in generated_programs().iter().enumerate() {
        let label = format!("generated case {case}");
        assert_same(&label, &to_python(program));
        assert_same(&label, &to_c(program));
    }
}

#[test]
fn adversarial_inputs_parse_as_before() {
    for (case, src) in mutated_sources().iter().enumerate() {
        assert_same(&format!("mutated case {case}"), src);
    }
    for (case, src) in garbage_sources().iter().enumerate() {
        assert_same(&format!("garbage case {case}"), src);
    }
    for (case, src) in HISTORICAL_PANICS.iter().enumerate() {
        assert_same(&format!("historical case {case}"), src);
    }
}

/// Statements whose meaning rests on details of the old subscript
/// concatenation, operator scan and read grouping.
const EDGE_STATEMENTS: &[&str] = &[
    // Empty groups: leading ones vanish, later ones are the subscript 0.
    "A[i] = B[][i]",
    "A[i] = B[i][]",
    "A[i] = B[][]",
    "A[i] = B[]",
    "A[i] = B[][][i]",
    "A[i][] = B[i][][i]",
    "A[][i] = B[i]",
    "A[i] = B[,][i]",
    "A[i] = B[i,]",
    "A[i] = B[i] + B[][i] + B[i][]",
    // Text between and after groups, spaces before and between groups.
    "A[i] = B [i] [i] + C[i]x[i]",
    "A[i]x[i] = B[i]",
    // Nested and unbalanced brackets; a parse error before an unbalanced
    // bracket reports the bracket.
    "A[i] = B[C[i]]",
    "A[i] = B[i + C[i]",
    "A[i] = B[i",
    "A[i = B[i]",
    "A[i]] = B[i]",
    "A[2*] = B[i]",
    "A[i] = B[2 ** i][i",
    "A[i] = B[q*2]",
    "A[i] = B[3N] + C[j]",
    // Operators: compound, relational, doubled.
    "A[i] == B[i]",
    "A[i] <= B[i]",
    "A[i] != B[i] = C[i]",
    "A[i] -= B[i]",
    "A[i] *= B[i]",
    "A[B[i] = 1] = C[i]",
    "alpha = B[i]",
    "A = B[i]",
    "1A[i] = B[i]",
    "A[i] = 2B[i] + _C[i] + βy[i]",
    // Validation: unknown variables (the alphabetically first is named),
    // arity conflicts, duplicate components, cancelling terms.
    "A[i] = B[z, y] + B[x, i]",
    "A[i] = B[i] + B[i, i]",
    "A[i, i - i] = B[i + 1 - 1] + B[i] + B[i - 0]",
    "A[i] = B[0*q] + B[i + j - j]",
    "A[i] = B[9223372036854775807*i] + B[-9223372036854775807*i]",
    "A[i] = B[99999999999999999999]",
];

#[test]
fn edge_cases_parse_as_before() {
    for stmt in EDGE_STATEMENTS {
        let py = format!("for i in range(N):\n    for j in range(i, M):\n        {stmt}\n");
        assert_same(stmt, &py);
        let c = format!(
            "for (i = 0; i < N; i++) {{\n  for (j = i; j <= M; j++) {{\n    {stmt};\n  }}\n}}\n"
        );
        assert_same(stmt, &c);
    }
    let sources = [
        // Loop headers: ranges, duplicate and shadowed variables, bounds.
        "for i in range(N):\n    for i in range(N):\n        A[i] = B[i]\n",
        "for i in range(N, ):\n    A[i] = B[i]\n",
        "for i in range(0, N, 2):\n    A[i] = B[i]\n",
        "for i in range(2*N - 1 + k):\n    A[i] = B[i]\n",
        "for i in  range(N):\n    A[i] = B[i]\n",
        "for i in range(N)\n    A[i] = B[i]\n",
        "for (int i = 0; i <= N - 1; ++i) A[i] = B[i];",
        "for (integer = 0; integer < N; integer++) { A[eger] = B[eger]; }",
        "for (i = 0; i > N; i++) { A[i] = B[i]; }",
        "for (i = 0; i < N; i++; j++) { A[i] = B[i]; }",
        "for (i = 0; i < N; i++) { for (i = 0; i < N; i++) { A[i] = B[i]; } }",
        "{ for (i = 0; i < N; i++) { A[i] = B[i]; } } A[i] = B[i];",
        "for (i = 0; i < N; i++) { x = 1; A[i] = B[i]; y[i]; } }}} A[i] = B[i];",
        "format[i] = B[i];",
        // Several statements per nest, at several depths: each loop is
        // shared by some statements and left open at the end by others.
        "for i in range(N):\n    A[i] = B[i]\n    for j in range(M):\n        C[i, j] = A[i]\n        D[j] = C[i, j]\n    E[i] = D[i]\nfor k in range(N):\n    F[k] = E[k]\n",
        "for i in range(N):\n    for j in range(M):\n        C[i, j] = A[i]\n    for k in range(M):\n        for t in range(k):\n            D[k, t] = C[i, k]\n        E[k] = D[k, i]\n",
        "for (i = 0; i < N; i++) { A[i] = B[i]; for (j = 0; j < M; j++) { C[i][j] = A[i]; D[j] = C[i][j]; } E[i] = D[i]; } for (k = 0; k < N; k++) F[k] = E[k];",
        "for (i = 0; i < N; i++) {\n  for (j = 0; j < i; j++) {\n    A[i][j] = B[j];\n  }\n  C[i] = A[i][i];\n  for (k = i; k < N; k++) { D[k] = C[i]; }\n",
        // Dedent and comments.
        "for i in range(N):  # outer\n    A[i] = B[i]  # body\n  C[i] = A[i]\n",
        "for i in range(N):\r\n    A[i] = B[i]\r\n",
        "",
        "# only a comment\n",
    ];
    for src in sources {
        assert_same(src, src);
    }
}

/// Statements reading more arrays, and more components of one array, than
/// grouping scans before it switches to hashing, with repeats in between.
#[test]
fn wide_statements_group_as_before() {
    let mut rng = programs::Rng(0x9e37_79b9_7f4a_7c15);
    for (arrays, refs) in [(3, 40), (16, 40), (17, 60), (40, 200), (2, 300)] {
        let terms: Vec<String> = (0..refs)
            .map(|_| {
                let array = rng.below(arrays);
                let offset = rng.below(24);
                format!("X{array}[i + {offset}]")
            })
            .collect();
        let stmt = format!("Y[i] = {}", terms.join(" + "));
        let label = format!("{arrays} arrays, {refs} references");
        assert_eq!(
            assert_same(&label, &format!("for i in range(N):\n    {stmt}\n")),
            1
        );
        assert_eq!(
            assert_same(&label, &format!("for (i = 0; i < N; i++) {{ {stmt}; }}")),
            1
        );
    }
}
