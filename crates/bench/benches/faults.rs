//! Fault-injection overhead: the chaos proxy vs. the bare simulator.
//!
//! Measures what resilience costs on the transformation hot path:
//!
//! * `nct/bare` — the plain `run_nct` driver, no service layer;
//! * `nct/rate0` / `nct/rate5` / `nct/rate20` — the node-cached
//!   resilient driver `try_build` runs (`run_nct_resilient_cached`)
//!   under the recoverable profile at 0%, 5%, and 20% fault rates
//!   (rate 0 isolates the proxy's bookkeeping and validation overhead;
//!   the higher rates add real retry + validation + re-transform
//!   work). Each iteration starts from a fresh parse of the seed and a
//!   cold node cache, as one pipeline stream does;
//! * `ct/...` — the same sweep for the chaining protocol.
//!
//! Feeds `BENCH_faults.json` via `scripts/bench.sh` (the harness
//! prints one JSON line per benchmark on stdout).

use synthattr_bench::harness::Group;
use synthattr_bench::sample_sources;
use synthattr_faults::drivers::{run_ct_resilient_cached, run_nct_resilient_cached};
use synthattr_faults::{FaultProfile, FaultyTransformer};
use synthattr_gen::corpus::Origin;
use synthattr_gpt::chain::{run_ct, run_nct};
use synthattr_gpt::incr::FrontendCache;
use synthattr_gpt::pool::YearPool;
use synthattr_gpt::transform::Transformer;
use synthattr_lang::parse;
use synthattr_util::Pcg64;

const STEPS: usize = 10;

fn main() {
    let sources = sample_sources(4);
    let seed = &sources[0];
    let pool = YearPool::calibrated(2018, 1);
    let bare = Transformer::new(&pool);

    let mut group = Group::new("faults");

    group.bench("nct/bare", || {
        let mut rng = Pcg64::new(11);
        std::hint::black_box(run_nct(&bare, seed, STEPS, Origin::ChatGpt, &mut rng));
    });
    group.bench("ct/bare", || {
        let mut rng = Pcg64::new(12);
        std::hint::black_box(run_ct(&bare, seed, STEPS, Origin::ChatGpt, &mut rng));
    });

    for (label, rate) in [("rate0", 0.0), ("rate5", 0.05), ("rate20", 0.20)] {
        let profile = FaultProfile::recoverable(0xC4A05, rate);
        let svc = FaultyTransformer::new(&pool, profile.plan(), profile.policy.clone());
        for (protocol, chaining, rng_seed) in [("nct", false, 11), ("ct", true, 12)] {
            group.bench(&format!("{protocol}/{label}"), || {
                let seed_unit = parse(seed).unwrap();
                let mut rng = Pcg64::new(rng_seed);
                let mut cx = profile.stream_cx(1);
                let mut fc = FrontendCache::new();
                let driver = if chaining {
                    run_ct_resilient_cached
                } else {
                    run_nct_resilient_cached
                };
                std::hint::black_box(
                    driver(
                        &svc,
                        seed,
                        &seed_unit,
                        STEPS,
                        Origin::ChatGpt,
                        &mut rng,
                        "bench",
                        &mut cx,
                        &mut fc,
                    )
                    .unwrap(),
                );
            });
        }
    }
}
