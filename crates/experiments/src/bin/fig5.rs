//! Regenerates Figure 5: the entropy (degree of anonymity) comparison.

use backwatch_experiments::{fig5, obs, prepare, small_from_args, ExperimentConfig};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let users = prepare::prepare_users(&cfg);
    let result = fig5::run(&cfg, &users);
    print!("{}", fig5::render(&result));
    print!("\n{}", obs::snapshot_text());
}
