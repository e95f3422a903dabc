//! Regenerates Figure 3: PoI_total and PoI_sensitive vs access frequency.

use backwatch_experiments::{fig3, obs, prepare, small_from_args, ExperimentConfig};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let users = prepare::prepare_users(&cfg);
    let result = fig3::run(&cfg, &users);
    print!("{}", fig3::render(&result));
    print!("\n{}", obs::snapshot_text());
}
