//! Toy-size smoke test of the benchmark binary: every workload, untraced
//! and traced, ends its output with a result line that carries every
//! metric `BENCHMARK.json` names for that mode, each with its unit, and
//! passes the output checks.

use std::process::Command;

const BIN: &str = env!("CARGO_BIN_EXE_rmbench");
const WORKLOADS: [&str; 3] = ["batch-private", "batch-tic-pooled", "serve-churn"];

/// `(name, unit)` of every metric listed under `section` in BENCHMARK.json.
fn listed(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json is readable");
    let start = json
        .find(&format!("\"{section}\": ["))
        .expect("section present");
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section closes")];
    let field = |entry: &str, key: &str| {
        let at = entry
            .find(&format!("\"{key}\": \""))
            .expect("field present")
            + key.len()
            + 5;
        entry[at..]
            .split('"')
            .next()
            .expect("field value")
            .to_string()
    };
    body.split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn run(args: &[&str]) -> (i32, String, String) {
    let out = Command::new(BIN).args(args).output().expect("binary runs");
    (
        out.status.code().unwrap_or(-1),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

#[test]
fn every_workload_reports_every_metric_and_passes_its_checks() {
    for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
        let expected = listed(section);
        assert!(!expected.is_empty());
        for w in WORKLOADS {
            let args = [
                "--workload",
                w,
                "--seed",
                "1",
                "--seconds",
                "1",
                "--trace",
                trace,
                "--size",
                "toy",
            ];
            let (code, stdout, stderr) = run(&args);
            assert_eq!(code, 0, "{w} trace {trace}: exit code; stderr:\n{stderr}");
            let last = stdout.lines().last().expect("a result line");
            assert!(
                last.starts_with("{\"correct\": "),
                "{w}: result line {last}"
            );
            for (name, unit) in &expected {
                let key = format!("\"{name}\": {{\"value\": ");
                let at = last
                    .find(&key)
                    .unwrap_or_else(|| panic!("{w} trace {trace}: missing {name}"));
                let rest = &last[at + key.len()..];
                let value = rest.split(',').next().unwrap_or("");
                assert!(
                    value.parse::<f64>().is_ok(),
                    "{w}: {name} value {value:?} is not a number"
                );
                assert!(
                    rest.split('}')
                        .next()
                        .unwrap_or("")
                        .ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{w}: {name} lacks unit {unit}"
                );
            }
            assert!(
                !stderr.contains("check failed"),
                "{w} trace {trace}: {stderr}"
            );
            assert!(last.contains("\"correct\": true, "), "{w}: {last}");
        }
    }
}

#[test]
fn bad_arguments_exit_2_without_a_result() {
    for args in [
        &[][..],
        &[
            "--workload",
            "nope",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ][..],
        &[
            "--workload",
            "serve-churn",
            "--seed",
            "1",
            "--seconds",
            "0",
            "--trace",
            "0",
        ][..],
    ] {
        let (code, stdout, _) = run(args);
        assert_eq!(code, 2, "{args:?}");
        assert!(stdout.is_empty(), "{args:?}: printed {stdout}");
    }
}
