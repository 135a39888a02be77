//! Self-test: a tiny configuration of each workload completes correctly
//! and prints every named metric with its unit, traced and untraced; the
//! generator is byte-identical for a fixed seed and differs for another.
//!
//! ```sh
//! cargo test --release --offline --manifest-path perfbench/Cargo.toml
//! ```

use texid_perfbench::gen::Inputs;
use texid_perfbench::layers::run_traced;
use texid_perfbench::run::run_untraced;
use texid_perfbench::{Outcome, Scale, Workload, END_TO_END, PER_LAYER};

fn assert_complete(o: &Outcome, catalogue: &[(&str, &str)], what: &str) {
    assert!(o.correct, "{what}: incorrect run: {:?}", o.notes);
    assert_eq!(o.failed, 0, "{what}");
    assert!(o.attempted >= 1, "{what}");
    let names: Vec<(&str, &str)> = o.metrics.iter().map(|&(n, u, _)| (n, u)).collect();
    assert_eq!(names, catalogue, "{what}: metric names and units");
    for &(name, _, v) in &o.metrics {
        assert!(v.is_finite(), "{what}: {name} = {v}");
    }
    let line = o.result_json();
    for (name, unit) in catalogue {
        assert!(
            line.contains(&format!("\"{name}\": {{\"value\": ")),
            "{what}: {name} missing"
        );
        assert!(
            line.contains(&format!("\"unit\": \"{unit}\"")),
            "{what}: unit {unit} missing"
        );
    }
}

#[test]
fn every_workload_completes_and_reports_every_metric() {
    for w in Workload::ALL {
        let scale = Scale::tiny(w);
        let o = run_untraced(w, &scale, 7, 2.0).expect("untraced run");
        assert_complete(&o, &END_TO_END, w.name());
        let o = run_traced(w, &scale, 7, 2.0).expect("traced run");
        assert_complete(&o, &PER_LAYER, w.name());
    }
}

#[test]
fn generator_is_deterministic_per_seed() {
    for w in Workload::ALL {
        let scale = Scale::tiny(w);
        let ops = scale.measured_ops(2.0);
        let a = Inputs::generate(w, &scale, 11, ops).to_bytes();
        let b = Inputs::generate(w, &scale, 11, ops).to_bytes();
        let c = Inputs::generate(w, &scale, 12, ops).to_bytes();
        assert!(a == b, "{}: same seed, different bytes", w.name());
        assert!(a != c, "{}: different seeds, same bytes", w.name());
    }
}
