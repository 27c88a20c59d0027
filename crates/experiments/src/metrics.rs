//! `metrics` subcommand: run one representative end-to-end pipeline —
//! density fit, biased sampling, hierarchical clustering, outlier
//! detection — with the [`dbs_core::obs`] recorder enabled, and report the
//! counted work per stage next to the wall-clock spans.
//!
//! The counters are deterministic for a given scale and seed (chunk-ordered
//! tally merging, see `dbs_core::par::par_scan_tallied`), so the table and
//! the `--metrics-out` JSON are reproducible artifacts, unlike the span
//! timings.

use dbs_cluster::{partitioned_cluster_obs, HierarchicalConfig};
use dbs_core::obs::{MetricsReport, Recorder};
use dbs_core::{BoundingBox, Result};
use dbs_density::EstimatorSpec;
use dbs_outlier::{approx_outliers_obs, ApproxConfig, DbOutlierParams};
use dbs_sampling::{density_biased_sample_obs, BiasedConfig};
use dbs_synth::noise::with_noise_fraction;
use dbs_synth::rect::{generate, RectConfig, SizeProfile};

use crate::report::{f, Table};
use crate::Scale;

/// Runs the instrumented pipeline and returns the recorder's snapshot.
pub fn collect(scale: Scale, seed: u64) -> Result<MetricsReport> {
    let cfg = RectConfig {
        total_points: scale.base_points(),
        ..RectConfig::paper_standard(2, seed)
    };
    // 10% noise so the outlier detector has real candidates to verify
    // (otherwise its second pass short-circuits and records nothing).
    let synth = with_noise_fraction(generate(&cfg, &SizeProfile::Equal)?, 0.1, seed ^ 0x33);
    let data = &synth.data;
    let rec = Recorder::enabled();

    let est = {
        let _span = rec.span("fit_density");
        EstimatorSpec::kde(scale.kernels())
            .with_seed(seed)
            .with_domain(BoundingBox::unit(2))
            .fit(data)?
    };

    let sample = {
        let _span = rec.span("sample");
        let cfg = BiasedConfig::new(data.len() / 50, 1.0).with_seed(seed ^ 0x5a);
        density_biased_sample_obs(data, &*est, &cfg, &rec)?.0
    };

    {
        let _span = rec.span("cluster");
        partitioned_cluster_obs(
            sample.points(),
            &HierarchicalConfig::paper_defaults(10),
            &rec,
        )?;
    }

    {
        let _span = rec.span("outliers");
        let params = DbOutlierParams::new(0.03, 3)?;
        approx_outliers_obs(
            data,
            &*est,
            &ApproxConfig {
                slack: 10.0,
                ..ApproxConfig::new(params)
            },
            &rec,
        )?;
    }

    Ok(rec.snapshot().expect("recorder is enabled"))
}

/// Renders the counter and span tables.
pub fn render(scale: Scale, seed: u64) -> Result<String> {
    let report = collect(scale, seed)?;
    let mut out = String::from(
        "Pipeline observability: operation counters (deterministic) and stage timings\n\n",
    );

    let mut t = Table::new(&["counter", "value"]);
    for &(name, value) in &report.counters {
        t.row(vec![name.to_string(), value.to_string()]);
    }
    out.push_str(&format!(
        "Counted work (sample + cluster + outliers):\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["stage", "secs"]);
    for s in &report.spans {
        t.row(vec![
            format!("{}{}", "  ".repeat(s.depth), s.name),
            f(s.secs, 3),
        ]);
    }
    out.push_str(&format!(
        "Stage timings (wall-clock, machine-dependent):\n{}",
        t.render()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use dbs_core::obs::Counter;

    #[test]
    fn pipeline_metrics_are_deterministic_and_complete() {
        let a = collect(Scale::Quick, 91).unwrap();
        let b = collect(Scale::Quick, 91).unwrap();
        assert_eq!(a.counters, b.counters, "counters must be reproducible");
        // Every stage contributed: 3 sampler/outlier passes over the data
        // plus the detector's verification pass.
        assert_eq!(a.counter(Counter::DatasetPasses), 4);
        assert!(a.counter(Counter::KdeKernelEvals) > 0);
        assert!(a.counter(Counter::ClusterMerges) > 0);
        assert!(a.counter(Counter::BallSamples) > 0);
        let names: Vec<&str> = a.spans.iter().map(|s| s.name).collect();
        for stage in ["fit_density", "sample", "cluster", "outliers"] {
            assert!(names.contains(&stage), "{names:?}");
        }
    }
}
