//! Bit pins for the matrix-free (Lanczos) truncation path.
//!
//! The golden traces only reach the dense Jacobi path: every graph
//! component in them has at most 200 nodes. These cases pin the other
//! path — `lanczos_smallest`'s Krylov loop, the `tqli` rotations and the
//! per-component embedding — by fingerprinting the exact bit patterns
//! (`f64::to_bits`) of `Laplacian::truncate`'s kept eigenvalues and
//! eigenvectors. A kernel change that moves a single bit fails here.
//!
//! The expected fingerprints were captured before the truncation kernels
//! were rewritten (per-component index map, row-per-vector QL
//! accumulator); rewriting them must not move a bit. Print the current
//! values with `cargo test --test truncation_bits -- --ignored --nocapture`.

use distenc::datagen::netflix_like;
use distenc::graph::builders::tridiagonal_chain;
use distenc::graph::{Laplacian, TruncatedLaplacian};

/// FNV-1a over the bit patterns of `values`, then `vectors` (row-major).
fn fingerprint(t: &TruncatedLaplacian) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for v in t.values.iter().chain(t.vectors.as_slice()) {
        for byte in v.to_bits().to_le_bytes() {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    h
}

/// The `complete-netflix` movie graph: one 500-node component, so the
/// truncation runs Lanczos (k = 60, 480 Krylov steps). The graph is
/// drawn before the ratings, so it does not depend on `nnz`.
fn movie_graph() -> Laplacian {
    let data = netflix_like(1_200, 500, 40, 2_000, 1);
    let sim = data.similarities[1].clone().expect("netflix analog has a movie graph");
    Laplacian::from_similarity(sim)
}

fn chain_300() -> Laplacian {
    Laplacian::from_similarity(tridiagonal_chain(300))
}

struct Case {
    name: &'static str,
    lap: fn() -> Laplacian,
    k: usize,
    seed: u64,
    shape: (usize, usize),
    first_value: u64,
    fingerprint: u64,
}

const CASES: [Case; 2] = [
    Case {
        name: "netflix movie graph, k=60",
        lap: movie_graph,
        k: 60,
        seed: 1,
        shape: (500, 60),
        first_value: 0x3d15_c07f_fffd_dd62,
        fingerprint: 0x9a12_782d_7f24_9f04,
    },
    Case {
        name: "300-node chain, k=20",
        lap: chain_300,
        k: 20,
        seed: 1,
        shape: (300, 20),
        first_value: 0x3f0b_ebe9_4db5_18b4,
        fingerprint: 0x773c_9e4b_7a4a_0efe,
    },
];

#[test]
fn lanczos_truncation_bits_are_pinned() {
    for case in &CASES {
        let t = (case.lap)().truncate(case.k, case.seed).unwrap();
        assert_eq!(t.vectors.shape(), case.shape, "{}", case.name);
        assert_eq!(t.values[0].to_bits(), case.first_value, "{}: smallest eigenvalue", case.name);
        assert_eq!(fingerprint(&t), case.fingerprint, "{}: eigenpair bits", case.name);
    }
}

#[test]
#[ignore]
fn print_truncation_fingerprints() {
    for case in &CASES {
        let t = (case.lap)().truncate(case.k, case.seed).unwrap();
        println!(
            "{}: shape {:?}, first value {:#018x}, fingerprint {:#018x}",
            case.name,
            t.vectors.shape(),
            t.values[0].to_bits(),
            fingerprint(&t)
        );
    }
}
