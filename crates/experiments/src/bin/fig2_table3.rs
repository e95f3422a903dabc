//! Regenerates Table III + Figure 2: PoIs extracted under the six
//! parameter sets.

use backwatch_experiments::{fig2, obs, small_from_args, ExperimentConfig};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let result = fig2::run(&cfg);
    print!("{}", fig2::render(&result));
    print!("\n{}", obs::snapshot_text());
}
