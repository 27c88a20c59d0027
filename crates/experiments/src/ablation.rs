//! Ablations of the design choices DESIGN.md calls out: the exponent `a`,
//! the one-pass normalizer approximation, the kernel function, the
//! bandwidth rule, and the estimator backend.

use dbs_core::obs::Recorder;
use dbs_core::{BoundingBox, Result};
use dbs_density::{Bandwidth, DensityEstimator, EstimatorKind, EstimatorSpec, Kernel};
use dbs_sampling::onepass::estimate_normalizer;
use dbs_sampling::{density_biased_sample, BiasedConfig};
use dbs_synth::noise::with_noise_fraction;
use dbs_synth::rect::{generate, RectConfig, SizeProfile};
use dbs_synth::SyntheticDataset;

use crate::pipeline::{run_sampled_clustering, PipelineConfig, Sampler};
use crate::report::{f, pct, Table};
use crate::Scale;

/// Exponent sweep: found clusters vs `a` on a noisy workload and on a
/// variable-density workload — the practitioner's-guide trade-off (§4.4).
pub fn exponent_sweep(scale: Scale, seed: u64) -> Result<Vec<(f64, usize, usize)>> {
    let n = scale.base_points();
    let noisy = {
        let cfg = RectConfig {
            total_points: n,
            ..RectConfig::paper_standard(2, seed)
        };
        with_noise_fraction(generate(&cfg, &SizeProfile::Equal)?, 0.5, seed ^ 0xe1)
    };
    let variable = {
        let cfg = RectConfig {
            total_points: n,
            ..RectConfig::paper_standard(2, seed ^ 1)
        };
        with_noise_fraction(
            generate(&cfg, &SizeProfile::VariableDensity { ratio: 10.0 })?,
            0.1,
            seed ^ 0xe2,
        )
    };
    let b = n / 50; // 2%
    let mut rows = Vec::new();
    for &a in &[-1.0, -0.5, -0.25, 0.0, 0.5, 1.0, 1.5] {
        let on_noisy = run_sampled_clustering(
            &noisy,
            &PipelineConfig {
                kernels: scale.kernels(),
                ..PipelineConfig::new(Sampler::Biased { a }, b, 10, seed ^ 0xaa)
            },
        )?
        .found;
        let on_variable = run_sampled_clustering(
            &variable,
            &PipelineConfig {
                kernels: scale.kernels(),
                ..PipelineConfig::new(Sampler::Biased { a }, b, 10, seed ^ 0xbb)
            },
        )?
        .found;
        rows.push((a, on_noisy, on_variable));
    }
    Ok(rows)
}

/// One-pass vs two-pass: relative error of the approximated normalizer and
/// of the resulting sample size, across exponents.
pub fn one_pass_accuracy(scale: Scale, seed: u64) -> Result<Vec<(f64, f64, f64)>> {
    let n = scale.base_points();
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(2, seed)
    };
    let synth = generate(&cfg, &SizeProfile::VariableDensity { ratio: 10.0 })?;
    let est = EstimatorSpec::kde(scale.kernels())
        .with_seed(seed)
        .with_domain(BoundingBox::unit(2))
        .fit(&synth.data)?;
    let mut rows = Vec::new();
    for &a in &[-0.5, 0.5, 1.0] {
        let threads = dbs_core::par::available_parallelism();
        let approx_k = estimate_normalizer(&*est, a, threads, &Recorder::disabled())?;
        let (_, stats) = density_biased_sample(
            &synth.data,
            &*est,
            &BiasedConfig::new(n / 100, a).with_seed(seed),
        )?;
        let exact_k = stats.normalizer_k;
        let k_err = (approx_k - exact_k).abs() / exact_k;
        let (sample, _) = dbs_sampling::one_pass_biased_sample(
            &synth.data,
            &*est,
            &BiasedConfig::new(n / 100, a).with_seed(seed ^ 2),
        )?;
        let size_err = (sample.len() as f64 - (n / 100) as f64).abs() / (n / 100) as f64;
        rows.push((a, k_err, size_err));
    }
    Ok(rows)
}

/// Kernel-function and bandwidth-rule ablation: found clusters on the
/// noisy workload per (kernel, bandwidth) combination.
pub fn kernel_bandwidth_ablation(scale: Scale, seed: u64) -> Result<Vec<(String, String, usize)>> {
    let n = scale.base_points();
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(2, seed)
    };
    let synth = with_noise_fraction(generate(&cfg, &SizeProfile::Equal)?, 0.4, seed ^ 0xab);
    run_kernel_bandwidth(&synth, scale, seed)
}

fn run_kernel_bandwidth(
    synth: &SyntheticDataset,
    scale: Scale,
    seed: u64,
) -> Result<Vec<(String, String, usize)>> {
    let b = synth.len() / 50;
    let mut rows = Vec::new();
    for kernel in [Kernel::Epanechnikov, Kernel::Gaussian, Kernel::Biweight] {
        for (bw_name, bw) in [
            ("scott", Bandwidth::Scott),
            ("silverman", Bandwidth::Silverman),
            ("fixed-0.05", Bandwidth::Fixed(0.05)),
        ] {
            let spec = EstimatorSpec {
                kind: EstimatorKind::Kde {
                    centers: scale.kernels(),
                    kernel,
                    bandwidth: bw.clone(),
                },
                seed,
                domain: Some(BoundingBox::unit(synth.data.dim())),
            };
            let est = spec.fit(&synth.data)?;
            let (sample, _) = density_biased_sample(
                &synth.data,
                &*est,
                &BiasedConfig::new(b, 1.0).with_seed(seed ^ 3),
            )?;
            let clustering = dbs_cluster::partitioned_cluster(
                sample.points(),
                &dbs_cluster::HierarchicalConfig::paper_defaults(10),
            )?;
            let found = dbs_cluster::clusters_found(
                &clustering.clusters,
                &synth.regions,
                &dbs_cluster::EvalConfig {
                    margin: 0.01,
                    ..Default::default()
                },
            );
            rows.push((kernel.name().to_string(), bw_name.to_string(), found));
        }
    }
    Ok(rows)
}

/// Estimator-backend ablation: the same biased sampler driven by every
/// density substrate — KDE, exact grid histogram, collision-prone hash
/// grid, compressed wavelet histogram, and the averaged-grid ensemble —
/// each built through the [`EstimatorSpec`] factory the CLI uses.
pub fn backend_ablation(scale: Scale, seed: u64) -> Result<Vec<(String, usize)>> {
    let n = scale.base_points();
    let cfg = RectConfig {
        total_points: n,
        ..RectConfig::paper_standard(2, seed)
    };
    let synth = with_noise_fraction(generate(&cfg, &SizeProfile::Equal)?, 0.4, seed ^ 0xba);
    let b = synth.len() / 50;

    let evaluate = |est: &(dyn DensityEstimator + Sync), tag: &str| -> Result<(String, usize)> {
        let (sample, _) = density_biased_sample(
            &synth.data,
            est,
            &BiasedConfig::new(b, 1.0).with_seed(seed ^ 4),
        )?;
        let clustering = dbs_cluster::partitioned_cluster(
            sample.points(),
            &dbs_cluster::HierarchicalConfig::paper_defaults(10),
        )?;
        let found = dbs_cluster::clusters_found(
            &clustering.clusters,
            &synth.regions,
            &dbs_cluster::EvalConfig {
                margin: 0.01,
                ..Default::default()
            },
        );
        Ok((tag.to_string(), found))
    };

    let substrates: [(String, &str); 6] = [
        (format!("kde:{}", scale.kernels()), "kde-1000"),
        ("grid:32".into(), "grid-32"),
        ("hashgrid:32:64".into(), "hashgrid-32/64-slots"), // tiny table
        // Wavelet summary with a budget comparable to the kernel count.
        (
            format!("wavelet:5:{}", scale.kernels()),
            "wavelet-32/m=kernels",
        ),
        ("agrid:8".into(), "agrid-8"),
        // The mergeable streaming summary: agrid's ensemble behind
        // Count-Min hashed counter rows.
        ("sketch:4:65536".into(), "sketch-4/64k-slots"),
    ];
    let mut rows = Vec::new();
    for (spec, tag) in &substrates {
        let est = EstimatorSpec::parse(spec)?
            .with_seed(seed)
            .with_domain(BoundingBox::unit(2))
            .fit(&synth.data)?;
        rows.push(evaluate(&*est, tag)?);
    }
    Ok(rows)
}

/// Renders all ablations.
pub fn render(scale: Scale, seed: u64) -> Result<String> {
    let mut out = String::from("Ablations\n\n");

    let mut t = Table::new(&["a", "noisy 50% (of 10)", "variable-density 10% (of 10)"]);
    for (a, noisy, variable) in exponent_sweep(scale, seed)? {
        t.row(vec![f(a, 2), noisy.to_string(), variable.to_string()]);
    }
    out.push_str(&format!(
        "Exponent sweep (§4.4 trade-off):\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["a", "normalizer rel err", "sample-size rel err"]);
    for (a, k_err, size_err) in one_pass_accuracy(scale, seed)? {
        t.row(vec![f(a, 2), pct(k_err), pct(size_err)]);
    }
    out.push_str(&format!(
        "One-pass normalizer approximation (§2.2):\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["kernel", "bandwidth", "found (of 10)"]);
    for (k, b, found) in kernel_bandwidth_ablation(scale, seed)? {
        t.row(vec![k, b, found.to_string()]);
    }
    out.push_str(&format!(
        "Kernel / bandwidth ablation (40% noise, a=1):\n{}\n",
        t.render()
    ));

    let mut t = Table::new(&["estimator backend", "found (of 10)"]);
    for (tag, found) in backend_ablation(scale, seed)? {
        t.row(vec![tag, found.to_string()]);
    }
    out.push_str(&format!(
        "Estimator backend ablation (40% noise, a=1):\n{}",
        t.render()
    ));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exponent_extremes_behave_as_documented() {
        let rows = exponent_sweep(Scale::Quick, 43).unwrap();
        // a = 1 on the noisy dataset beats a = -1 (which samples noise).
        let a_of = |target: f64| {
            rows.iter()
                .find(|(a, _, _)| (*a - target).abs() < 1e-9)
                .copied()
                .unwrap()
        };
        let (_, noisy_pos, _) = a_of(1.0);
        let (_, noisy_neg, _) = a_of(-1.0);
        assert!(noisy_pos >= noisy_neg, "{rows:?}");
        assert!(noisy_pos >= 7, "{rows:?}");
    }

    #[test]
    fn one_pass_normalizer_is_close() {
        let rows = one_pass_accuracy(Scale::Quick, 47).unwrap();
        for (a, k_err, size_err) in rows {
            assert!(k_err < 0.2, "a={a}: normalizer error {k_err}");
            assert!(size_err < 0.3, "a={a}: size error {size_err}");
        }
    }

    #[test]
    fn backends_rank_kde_at_least_as_good_as_hashgrid() {
        let rows = backend_ablation(Scale::Quick, 53).unwrap();
        let get = |tag: &str| rows.iter().find(|(t, _)| t.starts_with(tag)).unwrap().1;
        assert!(get("kde") >= get("hashgrid"), "{rows:?}");
        assert!(get("kde") >= 7, "{rows:?}");
        // The sub-linear averaged grid must keep the found-cluster
        // criterion passing wherever the KDE does.
        assert!(get("agrid") >= 7, "{rows:?}");
    }
}
