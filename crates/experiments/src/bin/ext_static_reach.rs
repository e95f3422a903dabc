//! Regenerates the static-reachability cross-validation (extension X7):
//! manifest triage + IR worklist reachability over the app corpus,
//! scored class-by-class against the dynamic pipeline.

use backwatch_experiments::{ext_static_reach, obs, small_from_args};
use backwatch_market::corpus::CorpusConfig;

fn main() {
    obs::register_all();
    let cfg = if small_from_args() {
        CorpusConfig::scaled(10)
    } else {
        CorpusConfig::paper_scale()
    };
    let result = ext_static_reach::run(&cfg);
    print!("{}", ext_static_reach::render(&result));
    print!("\n{}", obs::snapshot_text());
    assert_eq!(result.disagreements, 0, "static pass diverged from dynamic pipeline");
    assert_eq!(result.report.parse_failures, 0, "lowered IR failed the text round-trip");
}
