//! Best-effort process entropy for verifier-side randomness.
//!
//! Small-exponent batch verification needs weights the *prover cannot
//! predict* — they must be drawn by the verifier after the batch is
//! submitted, so a deterministic seed (or one an adversary can replay)
//! would let coordinated corruptions be ground against the weights.
//!
//! [`entropy_seed`] gathers what the platform offers without any
//! dependency or `unsafe`: the OS CSPRNG via `/dev/urandom` where
//! readable, mixed with the wall clock and a process-local counter so
//! repeated calls never collide even if the OS source is unavailable
//! (then the seed is merely unpredictable to *remote* parties, which is
//! the batch-verification threat model). Everything funnels through
//! SHA-256, so any contributing entropy survives into the output.
//!
//! Tests that need reproducibility never call this — they seed
//! [`crate::HmacDrbg`] directly from a fixed test seed.

use std::io::Read;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{SystemTime, UNIX_EPOCH};

use crate::sha256::Sha256;

/// Process-local uniqueness counter, consumed once per [`entropy_seed`]
/// call.
static COUNTER: AtomicU64 = AtomicU64::new(0);

/// A 32-byte seed mixing the OS CSPRNG (when readable), the wall clock,
/// and a process-unique counter. Never blocks, never panics; each call
/// returns a distinct value.
pub fn entropy_seed() -> [u8; 32] {
    seed_with(&COUNTER)
}

/// [`entropy_seed`] drawing its uniqueness from `counter`, which advances
/// exactly once per call. Tests pass a counter of their own so that
/// concurrent seeders elsewhere in the process cannot move it.
fn seed_with(counter: &AtomicU64) -> [u8; 32] {
    let mut hasher = Sha256::new();
    hasher.update(b"seccloud-entropy-v1");

    let mut os = [0u8; 32];
    if let Ok(mut f) = std::fs::File::open("/dev/urandom") {
        if f.read_exact(&mut os).is_ok() {
            hasher.update(&os);
        }
    }
    crate::wipe(&mut os);

    let nanos = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0u128, |d| d.as_nanos());
    hasher.update(&nanos.to_be_bytes());
    // The counter is the only uniqueness guarantee when OS entropy and the
    // clock are both unavailable, so concurrent seeders must observe a
    // single total order of increments.
    // lint: ordering(counter is the sole uniqueness guarantee; increments need a single total order)
    hasher.update(&counter.fetch_add(1, Ordering::SeqCst).to_be_bytes());
    hasher.finalize()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seeds_are_distinct_across_calls() {
        // The counter alone guarantees this even with no OS entropy and a
        // frozen clock.
        let a = entropy_seed();
        let b = entropy_seed();
        assert_ne!(a, b);
    }

    #[test]
    fn seed_is_well_formed() {
        let s = entropy_seed();
        assert_eq!(s.len(), 32);
        assert_ne!(s, [0u8; 32], "an all-zero seed is vanishingly unlikely");
    }

    #[test]
    fn concurrent_seeders_stay_distinct_and_advance_the_counter() {
        const THREADS: usize = 4;
        const CALLS: usize = 16;
        // A counter of this test's own: sibling tests seeding through the
        // global one in parallel cannot move it.
        let counter = AtomicU64::new(0);
        // lint: ordering(SeqCst: the assertion below compares against concurrent SeqCst increments, so the snapshots must sit in the same total order)
        let before = counter.load(Ordering::SeqCst);
        let mut seeds: Vec<[u8; 32]> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    scope.spawn(|| (0..CALLS).map(|_| seed_with(&counter)).collect::<Vec<_>>())
                })
                .collect();
            handles
                .into_iter()
                .flat_map(|h| h.join().expect("seeder thread panicked"))
                .collect()
        });
        // lint: ordering(SeqCst: the assertion below compares against concurrent SeqCst increments, so the snapshots must sit in the same total order)
        let after = counter.load(Ordering::SeqCst);
        assert_eq!(
            after - before,
            (THREADS * CALLS) as u64,
            "the counter must advance exactly once per call, never skip or repeat"
        );
        // Even if OS entropy were unavailable and the clock frozen, the
        // counter alone must keep every concurrent seed distinct.
        seeds.sort_unstable();
        let total = seeds.len();
        seeds.dedup();
        assert_eq!(seeds.len(), total, "concurrent seeds must never collide");
    }
}
