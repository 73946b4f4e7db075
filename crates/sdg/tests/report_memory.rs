//! What a store-backed cache keeps per finished report: live heap growth
//! over many fresh analyses, measured with a counting global allocator,
//! stays close to the report bytes the next flush writes — a cache holds
//! each report as its record line, not as decoded `Expr` trees and
//! polynomials.
//!
//! This file holds a single test, so no other test allocates while it
//! measures.

use soap_ir::Program;
use soap_kernels::registry;
use soap_sdg::{analyze_program, SdgOptions, SolveCache, SolveStore};
use std::alloc::{GlobalAlloc, Layout, System};
use std::collections::BTreeSet;
use std::path::PathBuf;
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live bytes.
struct Counting;

static LIVE: AtomicIsize = AtomicIsize::new(0);

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Registry structures cheap enough to analyze hundreds of times.
const STRUCTURES: [&str; 10] = [
    "gemm", "2mm", "3mm", "mvt", "atax", "bicg", "gesummv", "syrk", "syr2k", "doitgen",
];

/// `program` with every array renamed by `suffix`: a fresh program identity
/// (and report key) over the same structure, so its solves all hit.
fn fresh_identity(program: &Program, suffix: usize) -> Program {
    let mut renamed = program.clone();
    renamed.name = format!("{}_{suffix}", program.name);
    for st in &mut renamed.statements {
        for acc in std::iter::once(&mut st.output).chain(st.inputs.iter_mut()) {
            acc.array = format!("{}_{suffix}", acc.array);
        }
    }
    renamed
}

fn report_files(store: &SolveStore) -> BTreeSet<PathBuf> {
    store
        .report_files()
        .expect("report files listed")
        .into_iter()
        .collect()
}

#[test]
fn retained_reports_cost_about_their_line_length() {
    const ANALYSES: usize = 200;
    let dir = std::env::temp_dir().join(format!("soap-report-memory-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let programs: Vec<(Program, SdgOptions)> = registry()
        .into_iter()
        .filter(|e| STRUCTURES.contains(&e.program.name.as_str()))
        .map(|e| {
            let opts = SdgOptions {
                assume_injective: e.assume_injective,
                ..SdgOptions::default()
            };
            (e.program, opts)
        })
        .collect();
    assert_eq!(programs.len(), STRUCTURES.len());
    let cache = SolveCache::with_store(&dir).expect("store opens");
    // Warm up: solve every structure, start the worker pool, and persist
    // the warm-up reports, so what follows only adds reports.
    for (program, opts) in &programs {
        analyze_program(&fresh_identity(program, 0), opts, &cache, None).expect("analyzes");
    }
    cache.flush_store().expect("flush succeeds");
    let store = SolveStore::open_existing(&dir).expect("store exists");
    let before_files = report_files(&store);
    let fresh: Vec<Program> = (1..=ANALYSES)
        .map(|i| fresh_identity(&programs[i % programs.len()].0, i))
        .collect();

    let live_before = LIVE.load(Ordering::Relaxed);
    for (i, program) in fresh.iter().enumerate() {
        let opts = &programs[(i + 1) % programs.len()].1;
        let analysis = analyze_program(program, opts, &cache, None).expect("analyzes");
        assert_eq!(analysis.solver.cache_misses, 0, "{}", program.name);
        assert!(!analysis.degraded);
    }
    let growth = LIVE.load(Ordering::Relaxed) - live_before;

    let flush = cache.flush_store().expect("flush succeeds");
    assert_eq!(flush.reports_appended, ANALYSES);
    let written: u64 = report_files(&store)
        .difference(&before_files)
        .map(|path| std::fs::metadata(path).expect("segment stat").len())
        .sum();
    let ratio = growth as f64 / written as f64;
    eprintln!(
        "live heap growth {growth} B over {ANALYSES} analyses; flush wrote {written} B of reports; ratio {ratio:.2}"
    );
    assert!(
        ratio <= 1.3,
        "retained {growth} B for {written} B of report lines ({ratio:.2}x)"
    );
    drop(cache);
    let _ = std::fs::remove_dir_all(&dir);
}
