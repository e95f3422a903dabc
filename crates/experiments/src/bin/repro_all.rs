//! Regenerates every table and figure of the paper in one run — the
//! content recorded in `EXPERIMENTS.md`.

use backwatch_experiments::{
    ext_ablation, ext_defense, ext_fgbg, ext_leakage, ext_reident, ext_sdk_pool, ext_static_reach, ext_taint, ext_ttc, fig2,
    fig3, fig4, fig5, obs, prepare, ExperimentConfig,
};
use backwatch_market::{breakdown, corpus::CorpusConfig, reach, report, run_study};
use std::time::Instant;

fn main() {
    obs::register_all();
    let args = parse_args();
    let (market_cfg, mut exp_cfg) = if args.small {
        (CorpusConfig::scaled(10), ExperimentConfig::small())
    } else {
        (CorpusConfig::paper_scale(), ExperimentConfig::paper())
    };
    if let Some(t) = args.threads {
        exp_cfg.threads = t.max(1);
    }
    let csv_dir = args.csv_dir;
    if let Some(dir) = &csv_dir {
        std::fs::create_dir_all(dir).expect("can create the csv output directory");
    }

    println!("=== backwatch reproduction run ===");
    println!(
        "corpus: 28 x {} apps; population: {} users x {} days\n",
        market_cfg.apps_per_category, exp_cfg.synth.n_users, exp_cfg.synth.days
    );

    let t0 = Instant::now();
    let study = run_study(&market_cfg);
    println!("{}", report::render_headline(&study.headline));
    println!("{}", report::render_table1(&study.provider_table));
    println!("{}", report::render_fig1(&study.interval_cdf));
    write_csv(&csv_dir, "table1.csv", &report::table1_csv(&study.provider_table));
    write_csv(&csv_dir, "fig1.csv", &report::fig1_csv(&study.interval_cdf));
    let rows = breakdown::category_breakdown(&study.corpus, &study.observations);
    println!("{}", breakdown::render_breakdown(&rows));
    let over = breakdown::overprivilege(&study.observations);
    println!(
        "over-privileged location apps: {} of {} declaring ({:.1}%) never exercise the permission\n",
        over.inert,
        over.declaring,
        over.fraction() * 100.0
    );
    eprintln!("[market study: {:?}]", t0.elapsed());

    let ts = Instant::now();
    let static_reach = ext_static_reach::compare(&study.corpus, reach::analyze(&study.corpus), &study.observations);
    println!("{}", ext_static_reach::render(&static_reach));
    eprintln!("[ext_static_reach: {:?}]", ts.elapsed());

    let t1 = Instant::now();
    let f2 = fig2::run(&exp_cfg);
    println!("{}", fig2::render(&f2));
    write_csv(&csv_dir, "fig2.csv", &fig2::to_csv(&f2));
    eprintln!("[fig2: {:?}]", t1.elapsed());

    let t2 = Instant::now();
    let users = prepare::prepare_users(&exp_cfg);
    eprintln!("[prepare {} users: {:?}]", users.len(), t2.elapsed());

    let t3 = Instant::now();
    let f3 = fig3::run(&exp_cfg, &users);
    println!("{}", fig3::render(&f3));
    write_csv(&csv_dir, "fig3.csv", &fig3::to_csv(&f3));
    eprintln!("[fig3: {:?}]", t3.elapsed());

    let t4 = Instant::now();
    let f4 = fig4::run(&exp_cfg, &users);
    println!("{}", fig4::render(&f4));
    write_csv(&csv_dir, "fig4.csv", &fig4::to_csv(&f4));
    eprintln!("[fig4: {:?}]", t4.elapsed());

    let t5 = Instant::now();
    let f5 = fig5::run(&exp_cfg, &users);
    println!("{}", fig5::render(&f5));
    write_csv(&csv_dir, "fig5.csv", &fig5::to_csv(&f5));
    eprintln!("[fig5: {:?}]", t5.elapsed());

    let t6 = Instant::now();
    let reident = ext_reident::run(&exp_cfg, &users);
    println!("{}", ext_reident::render(&reident));
    eprintln!("[ext_reident: {:?}]", t6.elapsed());

    let t7 = Instant::now();
    let ttc = ext_ttc::run(&exp_cfg, 20, 60);
    println!("{}", ext_ttc::render(&ttc));
    eprintln!("[ext_ttc: {:?}]", t7.elapsed());

    let t8 = Instant::now();
    let fgbg = ext_fgbg::run(&exp_cfg, &users, 60);
    println!("{}", ext_fgbg::render(&fgbg));
    eprintln!("[ext_fgbg: {:?}]", t8.elapsed());

    let t9 = Instant::now();
    let defenses = ext_defense::run(&exp_cfg, &users, 30);
    println!("{}", ext_defense::render(&defenses));
    eprintln!("[ext_defense: {:?}]", t9.elapsed());

    let t10 = Instant::now();
    let ablation = ext_ablation::run(&exp_cfg, &users);
    println!("{}", ext_ablation::render(&ablation));
    eprintln!("[ext_ablation: {:?}]", t10.elapsed());

    let t11 = Instant::now();
    let sdk_pool = ext_sdk_pool::run(&exp_cfg, &market_cfg);
    println!("{}", ext_sdk_pool::render(&sdk_pool));
    eprintln!("[ext_sdk_pool: {:?}]", t11.elapsed());

    let t12 = Instant::now();
    let leakage = ext_leakage::run(&exp_cfg);
    println!("{}", ext_leakage::render(&leakage));
    assert!(
        ext_leakage::containment_grid_is_monotone(&leakage),
        "containment Deg_anonymity grid must be monotone"
    );
    eprintln!("[ext_leakage: {:?}]", t12.elapsed());

    let t13 = Instant::now();
    // X12 at the run's own market scale; the million-app headline lives
    // in the dedicated ext_taint binary
    let taint_cfg = ext_taint::TaintScaleConfig {
        corpus: market_cfg.with_sdk_share(90).with_churn_ppm(10_000),
        threads: exp_cfg.threads,
        stride: 9,
        leak: exp_cfg.clone(),
    };
    let taint = ext_taint::run(&taint_cfg);
    println!("{}", ext_taint::render(&taint_cfg, &taint));
    assert_eq!(taint.subset_violations, 0, "taint class contradicted reachability");
    assert_eq!(taint.slice_mismatches, 0, "cached taint diverged from the uncached oracle");
    assert_eq!(
        taint.degree_disagreements, 0,
        "static sanitizer degree disagreed with the dynamic adversary"
    );
    eprintln!("[ext_taint: {:?}]", t13.elapsed());

    print!("{}", obs::snapshot_text());

    eprintln!("[total: {:?}]", t0.elapsed());
}

/// The command line: `[--small] [--threads N] [--csv DIR]`.
struct Args {
    small: bool,
    /// Worker-pool width (1 = the sequential baseline).
    threads: Option<usize>,
    /// Where to also write plot-ready data files for every figure.
    csv_dir: Option<std::path::PathBuf>,
}

/// Parses the command line; any other flag, or a missing or malformed
/// value, prints a usage line and exits with status 2.
fn parse_args() -> Args {
    let mut args = std::env::args();
    let bin = args.next().unwrap_or_default();
    let usage = || -> ! {
        eprintln!("usage: {bin} [--small] [--threads N] [--csv DIR]");
        std::process::exit(2)
    };
    let mut parsed = Args {
        small: false,
        threads: None,
        csv_dir: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--small" => parsed.small = true,
            "--threads" => match args.next().and_then(|s| s.parse().ok()) {
                Some(n) => parsed.threads = Some(n),
                None => usage(),
            },
            "--csv" => match args.next() {
                Some(dir) => parsed.csv_dir = Some(dir.into()),
                None => usage(),
            },
            _ => usage(),
        }
    }
    parsed
}

fn write_csv(dir: &Option<std::path::PathBuf>, name: &str, content: &str) {
    if let Some(dir) = dir {
        let path = dir.join(name);
        std::fs::write(&path, content).expect("can write csv file");
        eprintln!("[wrote {}]", path.display());
    }
}
