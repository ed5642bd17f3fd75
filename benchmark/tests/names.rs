//! `BENCHMARK.json` at the repo root and `src/spec.rs` must name the same
//! workloads and metrics, with the same units, directions and bounds, and
//! `BENCHMARK.json` must keep to the contract's shape.

use blink_benchmark::json::Json;
use blink_benchmark::spec::{MetricSpec, END_TO_END, PER_LAYER, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
    Json::parse(&text).expect("BENCHMARK.json parses")
}

fn text<'a>(v: &'a Json, key: &str) -> &'a str {
    v.get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("{key} missing in {}", v.encode()))
}

fn name_ok(name: &str) -> bool {
    name.len() <= 64
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
        && name
            .chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn assert_metrics_match(section: &Json, specs: &[MetricSpec], keys: &[&str]) {
    let listed = section.as_arr();
    assert_eq!(listed.len(), specs.len());
    for (j, s) in listed.iter().zip(specs) {
        let have: Vec<&str> = j.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(have, keys, "keys of {}", s.name);
        assert_eq!(text(j, "name"), s.name);
        assert_eq!(text(j, "unit"), s.unit, "unit of {}", s.name);
        assert_eq!(text(j, "better"), s.better, "direction of {}", s.name);
        assert_eq!(j.get("bound").and_then(Json::as_f64), s.bound, "{}", s.name);
        assert!(name_ok(s.name), "{}", s.name);
        assert!(
            s.unit.len() <= 16
                && s.unit
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
            "unit {}",
            s.unit
        );
        assert!(matches!(s.better, "higher" | "lower"));
    }
}

#[test]
fn benchmark_json_names_what_the_binaries_emit() {
    let b = benchmark_json();
    let keys: Vec<&str> = b.fields().iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );

    let workloads = b.get("workloads").unwrap().as_arr();
    assert_eq!(workloads.len(), WORKLOADS.len());
    assert!((2..=8).contains(&workloads.len()));
    for (j, w) in workloads.iter().zip(WORKLOADS) {
        assert_eq!(j.fields().len(), 2);
        assert_eq!(text(j, "name"), w.name);
        assert_eq!(text(j, "why"), w.why);
        assert!(name_ok(w.name) && w.why.len() <= 200 && !w.why.contains('\n'));
        let m = w.mix;
        assert_eq!(m.get + m.put + m.delete + m.scan, 100, "{}", w.name);
    }

    assert_metrics_match(
        b.get("end_to_end").unwrap(),
        END_TO_END,
        &["name", "unit", "better", "bound"],
    );
    assert_metrics_match(
        b.get("per_layer").unwrap(),
        PER_LAYER,
        &["name", "unit", "better"],
    );
    assert!(END_TO_END
        .iter()
        .all(|s| s.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
    let setup = END_TO_END.iter().find(|s| s.name == "setup_s").unwrap();
    assert_eq!((setup.unit, setup.better), ("s", "lower"));
    assert!(END_TO_END.iter().all(|s| s.bound <= setup.bound));

    // Every name is used once across workloads and metrics.
    let mut names: Vec<&str> = WORKLOADS
        .iter()
        .map(|w| w.name)
        .chain(END_TO_END.iter().chain(PER_LAYER).map(|s| s.name))
        .collect();
    names.sort_unstable();
    assert!(names.windows(2).all(|p| p[0] != p[1]));

    let seconds = b.get("run_seconds").and_then(Json::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    assert_eq!(b.get("paths").unwrap().as_arr(), [Json::from("benchmark")]);
}
