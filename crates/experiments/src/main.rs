//! Command-line entry point: regenerate the paper's figures and tables.
//!
//! ```text
//! experiments <subcommand> [--paper] [--seed N]
//!
//! Subcommands:
//!   theorem1   §2 analytical table
//!   fig2       runtime vs sample count
//!   fig3       dataset1 biased vs uniform
//!   fig4       noise sweeps (3 panels)
//!   fig5       variable-density sweeps (3 panels)
//!   fig6       3-d noise sweep
//!   fig7       kernels sweep
//!   scaling    linear-scaling measurements
//!   scalable   full vs partitioned vs sample-fed CURE
//!   geo        NorthEast / California simulations
//!   outliers   DB(p,k) detection
//!   ablation   exponent / one-pass / kernel / backend ablations
//!   all        everything above, in order
//! ```

use dbs_experiments::{
    ablation, fig2, fig3, fig4, fig5, fig6, fig7, geo, outliers, scalable, scaling, theorem1, Scale,
};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut scale = Scale::Quick;
    let mut seed = 42u64;
    let mut command: Option<String> = None;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--paper" => scale = Scale::Paper,
            "--quick" => scale = Scale::Quick,
            "--seed" => {
                seed = it
                    .next()
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed requires an integer"));
            }
            c if command.is_none() && !c.starts_with('-') => command = Some(c.to_string()),
            other => die(&format!("unknown argument: {other}")),
        }
    }
    let command = command.unwrap_or_else(|| die("missing subcommand; see --help in module docs"));

    let run_one = |name: &str| -> String {
        let result = match name {
            "theorem1" => Ok(theorem1::render()),
            "fig2" => fig2::render(scale, seed),
            "fig3" => fig3::render(scale, seed),
            "fig4" => fig4::render(scale, seed),
            "fig5" => fig5::render(scale, seed),
            "fig6" => fig6::render(scale, seed),
            "fig7" => fig7::render(scale, seed),
            "scaling" => scaling::render(scale, seed),
            "scalable" => scalable::render(scale, seed),
            "geo" => geo::render(scale, seed),
            "outliers" => outliers::render(scale, seed),
            "ablation" => ablation::render(scale, seed),
            other => die(&format!("unknown subcommand: {other}")),
        };
        match result {
            Ok(s) => s,
            Err(e) => die(&format!("{name} failed: {e}")),
        }
    };

    if command == "all" {
        for name in [
            "theorem1", "fig2", "fig3", "fig4", "fig5", "fig6", "fig7", "scaling", "scalable",
            "geo", "outliers", "ablation",
        ] {
            println!("==================== {name} ====================");
            println!("{}", run_one(name));
        }
    } else {
        println!("{}", run_one(&command));
    }
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <theorem1|fig2|fig3|fig4|fig5|fig6|fig7|scaling|scalable|geo|outliers|ablation|all> [--paper] [--seed N]"
    );
    std::process::exit(2);
}
