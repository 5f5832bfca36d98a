//! The paper's quantitative claims, each pinned as a test:
//! eq. 9 (batch correctness), eq. 10/12/14 (uncheatability), Fig. 4 anchors,
//! Theorem 3 (optimal sampling), Table II orderings, and Definition 2
//! (privacy preserving).

use seccloud::cloudsim::montecarlo::{run, Experiment};
use seccloud::core::analysis::costmodel::{CostParams, SchemeCosts, VerificationCostModel};
use seccloud::core::analysis::sampling::{
    cheat_probability, fcs_probability, pcs_probability, required_sample_size, CheatParams,
};
use seccloud::hash::HmacDrbg;
use seccloud::ibs::{designate, sign, simulate, BatchItem, BatchVerifier, MasterKey};

#[test]
fn equation_9_batch_correctness_across_users_and_blocks() {
    // Σ_A = Π ê(V_ij, Q_CS) must equal ê(Σ(U_ij + h_ij·Q_IDi), sk_CS) for
    // any mix of k users with n_i blocks each.
    let sio = MasterKey::from_seed(b"eq9");
    let server = sio.extract_verifier("cs");
    let mut batch = BatchVerifier::new();
    for (i, n_i) in [(0, 1usize), (1, 3), (2, 2)] {
        let user = sio.extract_user(&format!("user-{i}"));
        for j in 0..n_i {
            let msg = format!("m-{i}-{j}").into_bytes();
            let sig = designate(&sign(&user, &msg, b"n"), server.public());
            batch.push(user.public().clone(), msg, sig);
        }
    }
    assert_eq!(batch.len(), 6);
    assert!(batch.verify(&server));
}

#[test]
fn equation_10_fcs_probability() {
    // Pr[FCS] = (CSC + (1−CSC)/R)^t
    let p = CheatParams::new(0.6, 1.0).with_range(5.0);
    let base: f64 = 0.6 + 0.4 / 5.0;
    for t in [1u32, 3, 10] {
        assert!((fcs_probability(&p, t) - base.powi(t as i32)).abs() < 1e-12);
    }
}

#[test]
fn equation_12_pcs_probability() {
    // Pr[PCS] = (SSC + (1−SSC)·Pr[SigForge])^t
    let p = CheatParams::new(1.0, 0.7).with_sig_forge(1e-3);
    let base: f64 = 0.7 + 0.3 * 1e-3;
    for t in [1u32, 5, 20] {
        assert!((pcs_probability(&p, t) - base.powi(t as i32)).abs() < 1e-12);
    }
}

#[test]
fn equation_14_union_bound_clamped() {
    let p = CheatParams::new(0.5, 0.5).with_range(2.0);
    let total = cheat_probability(&p, 4);
    assert!((total - (fcs_probability(&p, 4) + pcs_probability(&p, 4))).abs() < 1e-12);
    assert_eq!(cheat_probability(&CheatParams::new(1.0, 1.0), 5), 1.0);
}

#[test]
fn figure_4_anchors() {
    assert_eq!(
        required_sample_size(&CheatParams::new(0.5, 0.5).with_range(2.0), 1e-4),
        Some(33),
        "paper: R = 2 needs 33 samples"
    );
    assert_eq!(
        required_sample_size(&CheatParams::new(0.5, 0.5), 1e-4),
        Some(15),
        "paper: R → ∞ needs 15 samples"
    );
}

#[test]
fn figure_4_grid_is_monotone_in_confidence() {
    // More honest work on the cheated fraction ⇒ more samples needed.
    let mut last = 0;
    for conf in [0.1, 0.3, 0.5, 0.7, 0.9] {
        let t = required_sample_size(&CheatParams::new(conf, conf).with_range(2.0), 1e-4)
            .expect("detectable");
        assert!(t >= last, "t must grow with confidence");
        last = t;
    }
}

#[test]
fn theorem_3_optimal_t_is_globally_minimal() {
    let params = CostParams::new(1.0, 2.0, 1e7);
    for q in [0.3, 0.5, 0.8] {
        let t_star = params.optimal_sample_size(q).unwrap();
        let c_star = params.total_cost(t_star, q);
        for t in 0..2_000u32 {
            assert!(c_star <= params.total_cost(t, q) + 1e-9, "q={q} t={t}");
        }
    }
}

#[test]
fn montecarlo_matches_closed_form() {
    let params = CheatParams::new(0.8, 0.9).with_range(2.0);
    let result = run(
        &Experiment {
            params,
            n: 300,
            t: 8,
            trials: 5_000,
        },
        b"paper-claims",
    );
    assert!(
        result.abs_error() <= result.three_sigma().max(0.015),
        "simulated {} vs analytic {}",
        result.escape_rate,
        result.analytic
    );
}

#[test]
fn table_2_cost_model_orderings() {
    // The analytic orderings the paper's Table II implies, using its own
    // Table I numbers.
    let m = VerificationCostModel::new(SchemeCosts::paper_table_1());
    for n in 3..=60 {
        // batch(ours) = 2 pairings < batch(BGLS) = n+1 pairings
        assert!(m.ours_ms(n) < m.bgls_ms(n) + n as f64 * m.costs.t_pmul_ms);
        // batch(ours) < individual(ours) = n pairings
        assert!(m.ours_ms(n) < m.individual_ms(n));
    }
}

#[test]
fn definition_2_privacy_preserving() {
    // A designated signature leaks nothing a third party can verify, and
    // the designee can simulate it — both halves of the paper's argument.
    let sio = MasterKey::from_seed(b"def2");
    let user = sio.extract_user("alice");
    let cs = sio.extract_verifier("cs");
    let real = designate(&sign(&user, b"secret", b"n"), cs.public());
    // Third party check never authenticates.
    assert!(!real.third_party_check_is_useless(cs.public(), user.public(), b"secret"));
    // Simulation: the verifier forges an equally-valid signature.
    let mut drbg = HmacDrbg::new(b"def2-sim");
    let fake = simulate(&cs, user.public(), b"secret", &mut drbg);
    assert!(real.verify(&cs, user.public(), b"secret"));
    assert!(fake.verify(&cs, user.public(), b"secret"));
}

#[test]
fn batch_saves_pairings_in_practice() {
    // Ground-truth timing sanity (loose 2x bound, not a microbenchmark):
    // batching 8 signatures must be at least 2× faster than individual.
    // One trial is at the mercy of host load, so the bound applies to the
    // medians of TRIALS alternating batch/individual trials.
    use std::time::{Duration, Instant};
    const TRIALS: usize = 7;
    let sio = MasterKey::from_seed(b"speed");
    let server = sio.extract_verifier("cs");
    let items: Vec<BatchItem> = (0..8)
        .map(|i| {
            let user = sio.extract_user(&format!("u{i}"));
            let msg = format!("m{i}").into_bytes();
            let sig = designate(&sign(&user, &msg, b"n"), server.public());
            BatchItem {
                signer: user.public().clone(),
                message: msg,
                signature: sig,
            }
        })
        .collect();

    let mut individual = Vec::with_capacity(TRIALS);
    let mut batched = Vec::with_capacity(TRIALS);
    for _ in 0..TRIALS {
        let start = Instant::now();
        assert!(seccloud::ibs::verify_individually(&items, &server).is_none());
        individual.push(start.elapsed());

        let start = Instant::now();
        let mut batch = BatchVerifier::new();
        for item in &items {
            batch.push_item(item);
        }
        assert!(batch.verify(&server));
        batched.push(start.elapsed());
    }
    let median = |v: &mut Vec<Duration>| {
        v.sort_unstable();
        v[v.len() / 2]
    };
    let (batched, individual) = (median(&mut batched), median(&mut individual));
    assert!(
        batched * 2 < individual,
        "median batch {batched:?} vs median individual {individual:?} over {TRIALS} trials"
    );
}
