//! Whole-network analysis: I/O lower bounds for the deep-learning workloads
//! of Table 2 (direct convolution, Softmax, MLP, LeNet-5, BERT encoder),
//! including the conditional convolution bound of Section 5.3.
//!
//! ```text
//! cargo run --release --example neural_network
//! ```

use soap::core::analyze_conditional;
use soap::prelude::*;
use std::collections::BTreeMap;

fn main() {
    // One solve cache shared by every analysis below (the networks' matmul
    // and softmax structures recur); no deadline.
    let cache = SolveCache::new();
    // Full networks through the SDG (inter-layer reuse is captured).
    for name in ["softmax", "mlp", "lenet-5", "bert-encoder"] {
        let entry = soap::kernels::by_name(name).expect("kernel exists");
        let analysis = analyze_program(
            &entry.program,
            &SdgOptions {
                assume_injective: entry.assume_injective,
                ..SdgOptions::default()
            },
            &cache,
            None,
        )
        .expect("analysis succeeds");
        println!("{name:<14} Q ≥ {}", analysis.bound);
    }

    // The direct convolution has a *conditional* intensity (Section 5.3):
    // the reuse achievable depends on the stride/kernel relationship.
    let conv = soap::kernels::by_name("direct-conv").unwrap();
    let st = &conv.program.statements[0];
    let (overlapping, injective) = analyze_conditional(st).expect("conditional analysis");
    println!("\ndirect convolution (Example 6)");
    println!(
        "  case 1 (large stride, injective) : ρ_min = {}",
        injective.intensity.rho
    );
    println!(
        "  case 2 (unit stride, overlapping) : ρ_max = {}",
        overlapping.intensity.rho
    );

    // Evaluate the BERT-encoder bound for a BERT-base-like shape.
    let bert = soap::kernels::by_name("bert-encoder").unwrap();
    let analysis = analyze_program(&bert.program, &SdgOptions::default(), &cache, None).unwrap();
    let mut b = BTreeMap::new();
    for (k, v) in [
        ("B", 8.0),
        ("L", 512.0),
        ("H", 12.0),
        ("P", 64.0),
        ("E", 768.0),
        ("F", 3072.0),
        ("S", 128.0 * 1024.0),
    ] {
        b.insert(k.to_string(), v);
    }
    let q = analysis.bound.eval(&b).unwrap();
    println!("\nBERT encoder (B=8, L=512, H=12, P=64, S=128Ki words):");
    println!("  Q ≥ {:.3e} words moved per layer", q);
}
