//! Pins the two program digests the daemon and the disk store key on.
//! `canonical_program_hash` keys the serve memo and feeds
//! `structural_program_key`, which names every persisted report, so a
//! change to either digest silently orphans every report already on disk.
//! The literals below were computed by the digest as it stood when the
//! hashing was made allocation-free; both must reproduce them bit for bit.

use soap_ir::{AffineExpr, ArrayAccess, IterationDomain, LinIndex, LoopVar, Program, Statement};
use soap_sdg::service::{canonical_program_hash, structural_program_key};
use soap_sdg::SdgOptions;

/// `(kernel, canonical_program_hash, structural_program_key)` under
/// `SdgOptions::default()`, for the whole registry in registry order.
const REGISTRY_DIGESTS: [(&str, u64, u64); 38] = [
    ("adi", 0x4522b66c76e41af4, 0x85cf5a398a90aefb),
    ("atax", 0xd0e000b001ac0f02, 0x7dc767aa8f825b0e),
    ("bicg", 0xb191dd561bd357df, 0xddf0e9b0d0ea35d7),
    ("cholesky", 0xb508869763342c44, 0x34abc7f2f0efa905),
    ("correlation", 0x7b4de5e74ccb1f44, 0x02a4b33af5e16e6b),
    ("covariance", 0xe3682fd7d59027b8, 0xfd60ab3511cd8152),
    ("deriche", 0x711f0de9ab946df1, 0xcfcebde449012804),
    ("doitgen", 0xc6ce09991bc43907, 0x8f6723b5c7f871f2),
    ("durbin", 0x6d796e8fcce19170, 0xebb38fa547dda73d),
    ("fdtd-2d", 0xdd456ee0e8549429, 0xa5e1bf41f5c2c344),
    ("floyd-warshall", 0x8ed74ad8ffdfaabb, 0x0433be4a4f7d9a4c),
    ("gemm", 0x89684069929e7748, 0x27139b6fa3583f9d),
    ("gemver", 0x8c4ae1b8ae8b32fa, 0x2810238e31996487),
    ("gesummv", 0x28f19bf712fa7924, 0x5b1c36d90d0f5817),
    ("gramschmidt", 0x52b059f40cdd7c05, 0x095dfe9e10151b2d),
    ("heat-3d", 0x078da212d177c638, 0x90e6935b883dc370),
    ("jacobi-1d", 0xb03996576aa4b0f6, 0x074d15eeeda671ad),
    ("jacobi-2d", 0x0cc10afe658c270f, 0x5e2044c774268ad3),
    ("2mm", 0x9d84b9b52e08f6d6, 0x70c1724b55e3152c),
    ("3mm", 0x50c6af1772522b15, 0x493d25a02c3295e4),
    ("lu", 0xab54d53e1fd12e83, 0x93593b7339c96bcb),
    ("ludcmp", 0xf66e53cb941b3288, 0x6ddc9cc6fe24f655),
    ("mvt", 0x73827950ed2c4165, 0x6373266cd9f3ec39),
    ("nussinov", 0x5de335ff7308c0ec, 0x371dcfec6a6caef3),
    ("seidel-2d", 0xfe5b7d8340aa3143, 0x7586e12e19f3339a),
    ("symm", 0xecbda0779a13bd1e, 0x39471cc20934ecda),
    ("syr2k", 0xfa89513d89520f5f, 0x0ff9bbbc5ebc274a),
    ("syrk", 0xac8495e091a57104, 0xbd9f09ab8fd6b516),
    ("trisolv", 0x1a181c4112b213b4, 0x90465cb0959ffd29),
    ("trmm", 0x5c96e7ad43ecc40d, 0xd03d9c58a6acf182),
    ("softmax", 0x226b84dc0adb4054, 0xca8392f4cbe3e3ee),
    ("mlp", 0x9b3078d94cb99d9c, 0x878cf06fe424f8ca),
    ("lenet-5", 0x9c4b5667388ee82d, 0xe1bbd7a610a8d0a3),
    ("bert-encoder", 0x6284647bb916f4fb, 0xee725dde97c59a13),
    ("lulesh", 0x366e512304ec5d54, 0xc7f38fef950834de),
    (
        "horizontal-diffusion",
        0x3103ebd12e152f71,
        0xf5283aa8be4e7737,
    ),
    ("vertical-advection", 0x897f83f23eb7f921, 0x08be93dc86d8b984),
    ("direct-conv", 0x3f7338bdcfd35b01, 0x80340f37ec3d4653),
];

#[test]
fn registry_digests_are_unchanged() {
    let opts = SdgOptions::default();
    let registry = soap_kernels::registry();
    assert_eq!(registry.len(), REGISTRY_DIGESTS.len());
    for (entry, &(name, hash, key)) in registry.iter().zip(&REGISTRY_DIGESTS) {
        assert_eq!(entry.name, name);
        assert_eq!(
            canonical_program_hash(&entry.program),
            hash,
            "{name}: canonical_program_hash changed"
        );
        assert_eq!(
            structural_program_key(&entry.program, &opts),
            key,
            "{name}: structural_program_key changed"
        );
    }
}

/// A statement no parser accepts: loop `i` shadows an outer `i`, and bounds
/// and subscripts mix loop variables with a parameter.  The digest still
/// names each loop variable by the position of its last loop.
#[test]
fn digest_of_a_shadowing_nest_is_unchanged() {
    let affine = |terms: &[(&str, i64)], constant: i64| AffineExpr {
        terms: terms.iter().map(|&(n, c)| (n.to_string(), c)).collect(),
        constant,
    };
    let index = |terms: &[(&str, i64)], offset: i64| LinIndex {
        coeffs: terms.iter().map(|&(n, c)| (n.to_string(), c)).collect(),
        offset,
    };
    let st = Statement {
        name: "St1".into(),
        domain: IterationDomain::new(vec![
            LoopVar::new("i", affine(&[], 0), affine(&[("N", 1)], 0)),
            LoopVar::new("j", affine(&[("i", 1)], 1), affine(&[("N", 2)], -1)),
            LoopVar::new(
                "i",
                affine(&[("j", -1)], 0),
                affine(&[("M", 1), ("j", 3)], 0),
            ),
        ]),
        output: ArrayAccess::single("C", vec![index(&[("i", 1), ("j", 2)], 0)]),
        inputs: vec![ArrayAccess::single(
            "A",
            vec![index(&[("j", 1)], -1), index(&[("K", 4), ("i", 1)], 2)],
        )],
        is_update: true,
    };
    let program = Program::new("shadow", vec![st]);
    assert_eq!(canonical_program_hash(&program), 0xaea83b0792bd99a0);
    assert_eq!(
        structural_program_key(&program, &SdgOptions::default()),
        0x1e775d9a0d7f0436
    );
}
