//! Pebbling validation: compare analytic lower bounds against simulated
//! schedules on small concrete instances.

use serde::Serialize;
use soap_core::{analyze_statement, AnalysisOptions};
use soap_pebbling::{simulate_program_order, simulate_tiled, Cdag};
use soap_sdg::{analyze_program, SdgOptions, SolveCache};
use std::collections::BTreeMap;
use std::fmt;

/// One validation configuration.
#[derive(Clone, Copy, Debug)]
pub struct ValidationCase {
    /// Kernel name from the registry.
    pub kernel: &'static str,
    /// Value bound to every size parameter.
    pub size: i64,
    /// Red-pebble budget (fast-memory size in words).
    pub s: usize,
}

/// The outcome of one validation case.
#[derive(Clone, Debug)]
pub struct ValidationReport {
    /// Kernel name.
    pub kernel: String,
    /// Size parameter value.
    pub size: i64,
    /// Fast-memory size.
    pub s: usize,
    /// The analytic leading-order lower bound evaluated at (size, S).
    pub lower_bound: f64,
    /// I/O of the program-order schedule.
    pub naive_io: usize,
    /// I/O of the tiled schedule (equals `naive_io` when no tiling applies).
    pub tiled_io: usize,
    /// Number of CDAG compute vertices.
    pub vertices: usize,
}

impl Serialize for ValidationReport {
    fn to_value(&self) -> serde::Value {
        serde::Value::Object(vec![
            ("kernel".to_string(), self.kernel.to_value()),
            ("size".to_string(), self.size.to_value()),
            ("s".to_string(), self.s.to_value()),
            ("lower_bound".to_string(), self.lower_bound.to_value()),
            ("naive_io".to_string(), self.naive_io.to_value()),
            ("tiled_io".to_string(), self.tiled_io.to_value()),
            ("vertices".to_string(), self.vertices.to_value()),
        ])
    }
}

impl fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:<12} size={:<4} S={:<4}  bound={:<10.1} naive={:<8} tiled={:<8} tiled/bound={:.2}",
            self.kernel,
            self.size,
            self.s,
            self.lower_bound,
            self.naive_io,
            self.tiled_io,
            self.tiled_io as f64 / self.lower_bound
        )
    }
}

/// Run one validation case: analytic bound, program-order simulation, and a
/// tiled simulation using the analysis' optimal tile shape when the kernel is
/// a single statement.
pub fn validate_kernel(case: &ValidationCase) -> Option<ValidationReport> {
    let entry = soap_kernels::by_name(case.kernel)?;
    let params: BTreeMap<String, i64> = entry
        .program
        .parameters()
        .into_iter()
        .map(|p| (p, case.size))
        .collect();
    let mut bindings: BTreeMap<String, f64> =
        params.iter().map(|(k, v)| (k.clone(), *v as f64)).collect();
    bindings.insert("S".to_string(), case.s as f64);

    // The bound under validation is the kernel's Table-2 bound, so the
    // analysis honours the kernel's injectivity assumption like the
    // statement analysis below.
    let sdg_opts = SdgOptions {
        assume_injective: entry.assume_injective,
        ..SdgOptions::default()
    };
    let analysis = analyze_program(&entry.program, &sdg_opts, &SolveCache::new(), None).ok()?;
    let lower_bound = analysis.bound.eval(&bindings)?;

    let cdag = Cdag::from_program(&entry.program, &params);
    let naive = simulate_program_order(&cdag, case.s).ok()?;

    // Tile the first statement with the analysis' optimal shape, if available.
    let tiled_io = if entry.program.statements.len() == 1 {
        let st = &entry.program.statements[0];
        let opts = AnalysisOptions {
            assume_injective: entry.assume_injective,
        };
        match analyze_statement(st, &opts) {
            Ok(res) => match res.intensity.tiles_at(case.s as f64) {
                Some(tiles) => {
                    let by_var: BTreeMap<String, f64> = tiles.into_iter().collect();
                    let tile_vec: Vec<i64> = st
                        .loop_variables()
                        .iter()
                        .map(|v| {
                            by_var
                                .get(&format!("D_{v}"))
                                .map(|t| (t.round() as i64).max(1))
                                .unwrap_or(1)
                        })
                        .collect();
                    let mut tiles_per_stmt = BTreeMap::new();
                    tiles_per_stmt.insert(0usize, tile_vec);
                    simulate_tiled(&cdag, &tiles_per_stmt, case.s)
                        .map(|t| t.io())
                        .unwrap_or(naive.io())
                }
                None => naive.io(),
            },
            Err(_) => naive.io(),
        }
    } else {
        naive.io()
    };

    Some(ValidationReport {
        kernel: case.kernel.to_string(),
        size: case.size,
        s: case.s,
        lower_bound,
        naive_io: naive.io(),
        tiled_io,
        vertices: cdag.compute_vertices().len(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_simulation_respects_the_bound() {
        let report = validate_kernel(&ValidationCase {
            kernel: "gemm",
            size: 8,
            s: 24,
        })
        .unwrap();
        assert!(report.naive_io as f64 >= report.lower_bound);
        assert!(report.tiled_io as f64 >= report.lower_bound);
        assert!(report.tiled_io <= report.naive_io);
    }

    #[test]
    fn stencil_simulation_respects_the_bound() {
        let report = validate_kernel(&ValidationCase {
            kernel: "jacobi-1d",
            size: 24,
            s: 12,
        })
        .unwrap();
        assert!(report.naive_io as f64 >= report.lower_bound, "{report}");
    }

    #[test]
    fn injective_kernels_validate_their_injective_bound() {
        // direct-conv is reported under the §5.3 injectivity assumption: the
        // bound its schedules are checked against is the injective one.
        let case = ValidationCase {
            kernel: "direct-conv",
            size: 2,
            s: 16,
        };
        let entry = soap_kernels::by_name(case.kernel).unwrap();
        assert!(entry.assume_injective);
        let report = validate_kernel(&case).unwrap();
        let mut bindings: BTreeMap<String, f64> = entry
            .program
            .parameters()
            .into_iter()
            .map(|p| (p, case.size as f64))
            .collect();
        bindings.insert("S".to_string(), case.s as f64);
        let bound = |assume_injective: bool| {
            let opts = SdgOptions {
                assume_injective,
                ..SdgOptions::default()
            };
            analyze_program(&entry.program, &opts, &SolveCache::new(), None)
                .unwrap()
                .bound
                .eval(&bindings)
                .unwrap()
        };
        let (injective, conservative) = (bound(true), bound(false));
        assert_ne!(injective.to_bits(), conservative.to_bits());
        assert_eq!(report.lower_bound.to_bits(), injective.to_bits());
    }

    #[test]
    fn unknown_kernel_returns_none() {
        assert!(validate_kernel(&ValidationCase {
            kernel: "nope",
            size: 4,
            s: 8
        })
        .is_none());
    }
}
