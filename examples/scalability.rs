//! Scalability comparison at paper scale: MobiEyes (eager and lazy) vs the
//! naive and central-optimal reporting schemes, plus the parallel tick
//! engine on multiple cores — the headline claims of the paper in one
//! program.
//!
//! Run with: `cargo run --example scalability --release`

use mobieyes::prelude::*;
use mobieyes::sim::{MessagingKind, MessagingModel};

fn main() {
    // A mid-size workload (quarter of Table 1's defaults) so the example
    // finishes in seconds.
    let base = SimConfig {
        num_objects: 2500,
        num_queries: 250,
        objects_changing_velocity: 250,
        ticks: 20,
        warmup_ticks: 4,
        ..SimConfig::default()
    };

    println!(
        "workload: {} objects, {} queries, {} velocity changes/step, {:.0} sq-mi\n",
        base.num_objects, base.num_queries, base.objects_changing_velocity, base.area
    );

    let naive = MessagingModel::new(base.clone(), MessagingKind::Naive).run();
    let optimal = MessagingModel::new(base.clone(), MessagingKind::CentralOptimal).run();
    // Sequential engine; the parallel run below must match it exactly.
    let eager = MobiEyesSim::new(base.clone().with_threads(1)).run();
    let lazy = MobiEyesSim::new(base.clone().with_propagation(Propagation::Lazy)).run();

    println!(
        "{:<18} {:>10} {:>10} {:>10} {:>9} {:>8}",
        "approach", "msgs/s", "uplink/s", "down/s", "power mW", "error"
    );
    for m in [&naive, &optimal, &eager, &lazy] {
        println!(
            "{:<18} {:>10.1} {:>10.1} {:>10.1} {:>9.2} {:>8.4}",
            m.label,
            m.msgs_per_second,
            m.uplink_msgs_per_second,
            m.downlink_msgs_per_second,
            m.avg_power_mw,
            m.avg_result_error
        );
    }

    println!(
        "\nMobiEyes object-side load: LQT size {:.2}, {:.2} evals/object/step",
        eager.avg_lqt_size, eager.avg_evals_per_object_tick
    );

    // The same run on the parallel tick engine: agents sharded across
    // worker threads, byte-identical to the sequential engine.
    let threads = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4)
        .min(8);
    println!("\nrunning the identical scenario on {threads} tick-engine threads...");
    let start = std::time::Instant::now();
    let parallel = MobiEyesSim::new(base.with_threads(threads)).run();
    println!(
        "parallel engine: {:.1} msgs/s, avg LQT {:.2}, wall time {:.1}s",
        parallel.msgs_per_second,
        parallel.avg_lqt_size,
        start.elapsed().as_secs_f64()
    );
    assert_eq!(parallel.msgs_per_second, eager.msgs_per_second);
    println!("(identical to the sequential run; tests/parallel_equivalence.rs checks it per tick)");
}
