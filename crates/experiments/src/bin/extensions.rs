//! Regenerates the extension experiments: top-N re-identification
//! (Zang & Bolot) and time-to-confusion (Hoh et al.).

use backwatch_experiments::{
    ext_ablation, ext_defense, ext_fgbg, ext_reident, ext_ttc, obs, prepare, small_from_args, ExperimentConfig,
};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        ExperimentConfig::small()
    } else {
        ExperimentConfig::paper()
    };
    let users = prepare::prepare_users(&cfg);
    print!("{}", ext_reident::render(&ext_reident::run(&cfg, &users)));
    println!();
    print!("{}", ext_ttc::render(&ext_ttc::run(&cfg, 20, 60)));
    println!();
    print!("{}", ext_fgbg::render(&ext_fgbg::run(&cfg, &users, 60)));
    println!();
    print!("{}", ext_defense::render(&ext_defense::run(&cfg, &users, 30)));
    println!();
    print!("{}", ext_ablation::render(&ext_ablation::run(&cfg, &users)));
    print!("\n{}", obs::snapshot_text());
}
