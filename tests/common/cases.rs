//! The one source of test randomness: a fixed range of seeded cases.

use std::ops::Range;
use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::rngs::StdRng;
use rand::SeedableRng;

/// Runs `case` once per seed in `seeds`, each time with a fresh
/// `StdRng::seed_from_u64(seed)` to draw every input from. A failing
/// case panics again with the test's name (libtest names the thread
/// after it) and the case's seed in front of its message; narrowing
/// `seeds` to that one seed replays it.
pub fn cases(seeds: Range<u64>, mut case: impl FnMut(&mut StdRng)) {
    let test = std::thread::current().name().unwrap_or("test").to_owned();
    for seed in seeds {
        let mut rng = StdRng::seed_from_u64(seed);
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| case(&mut rng))) {
            let msg = payload
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| payload.downcast_ref::<&str>().copied())
                .unwrap_or("(a panic without a message)");
            panic!("{test}: case seed {seed}: {msg}");
        }
    }
}
