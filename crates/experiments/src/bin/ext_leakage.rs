//! Regenerates the traffic-leakage granularity sweep (extension X11):
//! the d × i grid of PoI / His_bin / Deg_anonymity as coordinates leak
//! at reduced decimal precision and reporting rate.

use backwatch_experiments::{ext_leakage, obs, small_from_args, ExperimentConfig};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let result = ext_leakage::run(&cfg);
    print!("{}", ext_leakage::render(&result));
    print!("\n{}", obs::snapshot_text());

    assert_eq!(
        result.cells.len(),
        ext_leakage::LEAK_INTERVALS.len() * ext_leakage::PRECISIONS.len(),
        "the d x i grid must be complete"
    );
    assert!(
        ext_leakage::containment_grid_is_monotone(&result),
        "containment Deg_anonymity must be monotone in precision and interval"
    );
}
