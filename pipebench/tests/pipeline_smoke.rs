//! Keeps the benchmark compiling and honest as the library API changes:
//! every workload is generated at smoke size (at most 20k points), the
//! traced mirror runs each command, and the mirror's outputs must pass the
//! same checks the benchmark applies to the CLI's.

use dbs_pipebench::mirror;
use dbs_pipebench::workload::{prepare, Scale, Workload};

#[test]
fn every_workload_runs_traced_and_passes_its_checks() {
    for w in Workload::ALL {
        let dir = std::env::temp_dir().join(format!(
            "dbs_pipebench_smoke_{}_{}",
            std::process::id(),
            w.name()
        ));
        let (p, write_s) = prepare(w, Scale::Smoke, 7, &dir).unwrap();
        assert!(p.n <= 20_000, "{}: {} points", w.name(), p.n);
        assert!(write_s > 0.0);
        let m = mirror::run(&p).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let quality = p
            .check(&m.stdout)
            .unwrap_or_else(|e| panic!("{}: {e}\n{}", w.name(), m.stdout));
        assert!(!quality.is_empty(), "{}", w.name());
        assert!(
            m.counters.iter().any(|&(_, v)| v > 0),
            "{}: empty counter map",
            w.name()
        );
        assert!(
            m.coverage() >= 0.9,
            "{}: spans cover {:.3} of the traced wall time",
            w.name(),
            m.coverage()
        );
        let attributed: f64 = m.layer_seconds().iter().map(|l| l.1).sum();
        assert!(
            attributed > 0.0 && attributed <= m.wall_s * 1.0001,
            "{}",
            w.name()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
