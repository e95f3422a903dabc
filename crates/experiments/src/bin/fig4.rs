//! Regenerates Figure 4: detection speed of His_bin under both patterns.

use backwatch_experiments::{fig4, obs, prepare, small_from_args, ExperimentConfig};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let users = prepare::prepare_users(&cfg);
    let result = fig4::run(&cfg, &users);
    print!("{}", fig4::render(&result));
    print!("\n{}", obs::snapshot_text());
}
