//! Regenerates the §III-B headline statistics of the market study.

use backwatch_experiments::{obs, small_from_args};
use backwatch_market::{corpus::CorpusConfig, report, run_study};

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        CorpusConfig::scaled(10)
    } else {
        CorpusConfig::paper_scale()
    };
    let study = run_study(&cfg);
    print!("{}", report::render_headline(&study.headline));
    print!("\n{}", obs::snapshot_text());
}
