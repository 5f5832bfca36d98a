//! Writes `BENCH_pairing.json` — the machine-readable pairing-performance
//! trajectory. Future PRs rerun this bin and diff the numbers to track
//! regressions/improvements of the hot path:
//!
//! * single pairing (unprepared ate) vs prepared pairing against a fixed
//!   G2 argument (ops/sec + speedup);
//! * G1 scalar multiplication: GLV endomorphism split vs plain wNAF;
//! * designated batch verification at ℓ ∈ {16, 64, 256} vs ℓ individual
//!   verifications, serial and parallel.
//!
//! Schema v4 keeps every v3 field: v1's fields plus v2's `arch_backend`
//! and scalar-mul rates. It adds a `host` record, and each batch row is
//! now timed over [`TRIALS`] interleaved trials: every row field is the
//! median, with its 25th and 75th percentiles beside it (`_p25`, `_p75`;
//! a speedup's quartiles are over per-trial ratios).
//!
//! Run with `cargo run --release -p seccloud-bench --bin bench_pairing`.
//! The file lands in the current working directory.
#![forbid(unsafe_code)]

use seccloud_bench::{interleaved_trials_ms, measure_ms, Trials, TRIALS};
use seccloud_ibs::{designate, sign, BatchItem, BatchVerifier, MasterKey};
use seccloud_pairing::arch;
use seccloud_pairing::{hash_to_g1, hash_to_g2, pairing, pairing_prepared, Fr, G2Prepared, G1};

fn ops_per_sec(ms_per_op: f64) -> f64 {
    1_000.0 / ms_per_op
}

/// `"name": median, "name_p25": …, "name_p75": …`.
fn quartile_fields(name: &str, t: &Trials, decimals: usize) -> String {
    let [p25, median, p75] = t.quartiles();
    format!(
        "\"{name}\": {median:.decimals$}, \"{name}_p25\": {p25:.decimals$}, \
         \"{name}_p75\": {p75:.decimals$}"
    )
}

/// The host the numbers were taken on: CPU model and core count.
fn host_json() -> String {
    let cores = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().replace('"', "'"))
        })
        .unwrap_or_else(|| "unknown".into());
    format!("{{ \"cpu_model\": \"{cpu}\", \"cores\": {cores} }}")
}

fn make_items(n: usize) -> (seccloud_ibs::VerifierKey, Vec<BatchItem>) {
    let sio = MasterKey::from_seed(b"bench-pairing-json");
    let server = sio.extract_verifier("cs");
    let items = (0..n)
        .map(|i| {
            let user = sio.extract_user(&format!("user-{}", i % 4));
            let msg = format!("block-{i}").into_bytes();
            let sig = designate(&sign(&user, &msg, b"n"), server.public());
            BatchItem {
                signer: user.public().clone(),
                message: msg,
                signature: sig,
            }
        })
        .collect();
    (server, items)
}

fn main() {
    let p = hash_to_g1(b"bench-p").to_affine();
    let q = hash_to_g2(b"bench-q").to_affine();
    let prepared = G2Prepared::from(&q);

    // Headline single-pairing rates. The prepared case models the
    // protocol's real shape: the G2 argument (a verifier key) is fixed, so
    // preparation is amortized across many calls and excluded from the
    // per-op time.
    let plain_ms = measure_ms(3, 30, || pairing(&p, &q));
    let prepared_ms = measure_ms(3, 30, || pairing_prepared(&p, &prepared));
    let prep_cost_ms = measure_ms(1, 10, || G2Prepared::from(&q));

    // G1 scalar multiplication: the GLV endomorphism split (mul_fr) vs the
    // plain full-width wNAF walk it replaced on the audit path.
    let g = G1::generator();
    let k = Fr::hash(b"bench-scalar");
    let limbs = *k.to_u256().limbs();
    let glv_ms = measure_ms(10, 200, || g.mul_fr(&k));
    let wnaf_ms = measure_ms(10, 200, || g.mul_limbs_wnaf(&limbs));
    println!(
        "g1 scalar mul: glv {:.1} µs, wnaf {:.1} µs → {:.2}x",
        glv_ms * 1_000.0,
        wnaf_ms * 1_000.0,
        wnaf_ms / glv_ms
    );

    let mut batch_rows = String::new();
    for (i, &ell) in [16usize, 64, 256].iter().enumerate() {
        let (server, items) = make_items(ell);
        let iters = (512 / ell).max(2);
        let [batch, singles, singles_par] = interleaved_trials_ms(
            iters,
            [
                &mut || {
                    let mut batch = BatchVerifier::new();
                    for item in &items {
                        batch.push_item(item);
                    }
                    assert!(batch.verify(&server));
                },
                &mut || {
                    assert!(seccloud_ibs::verify_individually(&items, &server).is_none());
                },
                &mut || {
                    assert!(seccloud_ibs::verify_individually_parallel(&items, &server).is_none());
                },
            ],
        );
        if i > 0 {
            batch_rows.push_str(",\n");
        }
        batch_rows.push_str(&format!(
            "    {{ \"ell\": {ell}, {}, {}, {}, {}, {} }}",
            quartile_fields("batch_ops_per_sec", &batch.each(ops_per_sec), 3),
            quartile_fields("singles_ops_per_sec", &singles.each(ops_per_sec), 3),
            quartile_fields(
                "parallel_singles_ops_per_sec",
                &singles_par.each(ops_per_sec),
                3
            ),
            quartile_fields("batch_speedup_vs_singles", &singles.ratio(&batch), 2),
            quartile_fields(
                "batch_speedup_vs_parallel_singles",
                &singles_par.ratio(&batch),
                2
            ),
        ));
        let [_, batch_ms, _] = batch.quartiles();
        let [_, singles_ms, _] = singles.quartiles();
        let [_, singles_par_ms, _] = singles_par.quartiles();
        println!(
            "batch ℓ={ell:>3} (median of {TRIALS}): batch {batch_ms:.2} ms, singles \
             {singles_ms:.2} ms (serial), {singles_par_ms:.2} ms (parallel) — batch speedup \
             {:.2}x",
            singles_ms / batch_ms
        );
    }

    let json = format!(
        "{{\n  \"schema\": \"seccloud-bench-pairing/v4\",\n  \"host\": {},\n  \
         \"threads\": {},\n  \"trials\": {TRIALS},\n  \
         \"arch_backend\": \"{}\",\n  \
         \"pairing_ops_per_sec\": {:.3},\n  \"prepared_pairing_ops_per_sec\": {:.3},\n  \
         \"prepared_speedup\": {:.3},\n  \"g2_preparation_ms\": {:.4},\n  \
         \"g1_mul_glv_ops_per_sec\": {:.3},\n  \"g1_mul_wnaf_ops_per_sec\": {:.3},\n  \
         \"glv_speedup_vs_wnaf\": {:.3},\n  \
         \"batch_verify\": [\n{}\n  ]\n}}\n",
        host_json(),
        seccloud_parallel::num_threads(),
        arch::active().name(),
        ops_per_sec(plain_ms),
        ops_per_sec(prepared_ms),
        plain_ms / prepared_ms,
        prep_cost_ms,
        ops_per_sec(glv_ms),
        ops_per_sec(wnaf_ms),
        wnaf_ms / glv_ms,
        batch_rows,
    );
    std::fs::write("BENCH_pairing.json", &json).expect("write BENCH_pairing.json");
    println!(
        "\npairing {:.2} ms, prepared {:.2} ms → {:.2}x; wrote BENCH_pairing.json",
        plain_ms,
        prepared_ms,
        plain_ms / prepared_ms
    );
}
