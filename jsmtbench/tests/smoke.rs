//! Smoke tests of the benchmark binary at tiny sizes: every metric that
//! `BENCHMARK.json` declares is emitted with a valid name and unit, and a
//! deliberately wrong expected value makes the output checks fail.
//!
//! Run with `cargo test --release --offline --manifest-path jsmtbench/Cargo.toml`.

use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::Command;

/// A minimal JSON value: enough for the result line and BENCHMARK.json.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(BTreeMap<String, Json>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(m) => m.get(key).unwrap_or_else(|| panic!("missing key {key}")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(v) => v,
            other => panic!("not an array: {other:?}"),
        }
    }

    fn obj(&self) -> &BTreeMap<String, Json> {
        match self {
            Json::Obj(m) => m,
            other => panic!("not an object: {other:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            s: text.as_bytes(),
            i: 0,
        };
        let v = p.value();
        p.ws();
        assert_eq!(p.i, p.s.len(), "trailing bytes after JSON value");
        v
    }

    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(
            self.s.get(self.i),
            Some(&c),
            "expected {:?} at {}",
            c as char,
            self.i
        );
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut m = BTreeMap::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(m);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key must be a string")
                    };
                    self.eat(b':');
                    let v = self.value();
                    assert!(m.insert(k.clone(), v).is_none(), "duplicate key {k}");
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b'}' => return Json::Obj(m),
                        c => panic!("unexpected {:?} in object", c as char),
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut v = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(v);
                }
                loop {
                    v.push(self.value());
                    self.ws();
                    self.i += 1;
                    match self.s[self.i - 1] {
                        b',' => continue,
                        b']' => return Json::Arr(v),
                        c => panic!("unexpected {:?} in array", c as char),
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let mut out = String::new();
                loop {
                    match self.s[self.i] {
                        b'"' => {
                            self.i += 1;
                            return Json::Str(out);
                        }
                        b'\\' => {
                            out.push(self.s[self.i + 1] as char);
                            self.i += 2;
                        }
                        _ => {
                            let start = self.i;
                            while !matches!(self.s[self.i], b'"' | b'\\') {
                                self.i += 1;
                            }
                            out.push_str(std::str::from_utf8(&self.s[start..self.i]).unwrap());
                        }
                    }
                }
            }
            b't' => self.word("true", Json::Bool(true)),
            b'f' => self.word("false", Json::Bool(false)),
            b'n' => self.word("null", Json::Null),
            _ => {
                let start = self.i;
                while self.i < self.s.len()
                    && matches!(
                        self.s[self.i],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.i += 1;
                }
                let t = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(t.parse().unwrap_or_else(|_| panic!("bad number {t:?}")))
            }
        }
    }

    fn word(&mut self, w: &str, v: Json) -> Json {
        assert!(self.s[self.i..].starts_with(w.as_bytes()));
        self.i += w.len();
        v
    }
}

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn benchmark_json() -> Json {
    let text =
        std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("read BENCHMARK.json");
    Parser::parse(&text)
}

/// `(name, unit)` of every metric in a BENCHMARK.json section.
fn declared(section: &str) -> Vec<(String, String)> {
    benchmark_json()
        .get(section)
        .arr()
        .iter()
        .map(|m| {
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
            )
        })
        .collect()
}

struct Run {
    stdout: String,
    result: Json,
}

fn run(workload: &str, trace: u8, extra: &[&str]) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_jsmt-perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "3",
            "--seconds",
            "1",
            "--tiny",
        ])
        .args(["--trace", &trace.to_string()])
        .args(extra)
        .output()
        .expect("run the benchmark");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let last = stdout.lines().last().expect("a result line");
    Run {
        result: Parser::parse(last),
        stdout,
    }
}

fn valid_name(n: &str) -> bool {
    n.len() <= 64
        && n.starts_with(|c: char| c.is_ascii_alphanumeric())
        && n.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
}

fn valid_unit(u: &str) -> bool {
    !u.is_empty()
        && u.len() <= 16
        && u.chars()
            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
}

/// The run's metrics are exactly `want`, with valid names and units, and
/// each also has a table line giving its unit and sample count.
fn check_metrics(r: &Run, want: &[(String, String)]) {
    let got = r.result.get("metrics").obj();
    let names: Vec<&String> = got.keys().collect();
    let mut expected: Vec<&String> = want.iter().map(|(n, _)| n).collect();
    expected.sort();
    assert_eq!(names, expected, "metric names differ from BENCHMARK.json");
    for (name, unit) in want {
        assert!(valid_name(name), "bad metric name {name:?}");
        assert!(valid_unit(unit), "bad unit {unit:?} of {name}");
        let m = &got[name];
        assert_eq!(m.get("unit").str(), unit, "unit of {name}");
        assert!(m.get("value").num().is_finite(), "{name} is not finite");
        let line = r
            .stdout
            .lines()
            .find(|l| l.split_whitespace().nth(2) == Some(name.as_str()))
            .unwrap_or_else(|| panic!("no table line for {name}"));
        assert!(
            line.contains(unit.as_str()) && line.contains("samples="),
            "{line}"
        );
    }
}

fn check_healthy(r: &Run) {
    assert!(
        matches!(r.result.get("correct"), Json::Bool(true)),
        "{}",
        r.stdout
    );
    assert!(r.result.get("attempted").num() >= 1.0);
    assert_eq!(r.result.get("failed").num(), 0.0);
    let share = r
        .stdout
        .lines()
        .find(|l| l.split_whitespace().nth(2) == Some("failed_share"))
        .expect("a failed_share line");
    assert_eq!(share.split_whitespace().nth(3), Some("0"), "{share}");
}

fn smoke(workload: &str) {
    let timed = run(workload, 0, &[]);
    check_healthy(&timed);
    check_metrics(&timed, &declared("end_to_end"));
    for (name, m) in timed.result.get("metrics").obj() {
        assert!(
            m.get("value").num() > 0.0,
            "end-to-end metric {name} must not be 0"
        );
    }
    for name in ["sim_mcycles_per_s", "failed_share"] {
        assert!(
            timed
                .stdout
                .lines()
                .any(|l| l.split_whitespace().nth(2) == Some(name)),
            "{name} missing from the table"
        );
    }
    let traced = run(workload, 1, &[]);
    check_healthy(&traced);
    check_metrics(&traced, &declared("per_layer"));
}

fn wrong_expected_fails(workload: &str) {
    let r = run(workload, 0, &["--wrong-expected"]);
    assert!(
        matches!(r.result.get("correct"), Json::Bool(false)),
        "{}",
        r.stdout
    );
    assert!(r.result.get("failed").num() > 0.0);
    let share = r
        .stdout
        .lines()
        .find(|l| l.split_whitespace().nth(2) == Some("failed_share"))
        .expect("a failed_share line");
    let v: f64 = share.split_whitespace().nth(3).unwrap().parse().unwrap();
    assert!(v > 0.0, "failed_share must rise above 0: {share}");
}

#[test]
fn pair_grid_emits_every_metric() {
    smoke("pair_grid");
}

#[test]
fn core_synth_emits_every_metric() {
    smoke("core_synth");
}

#[test]
fn pair_grid_wrong_golden_row_fails() {
    wrong_expected_fails("pair_grid");
}

#[test]
fn core_synth_wrong_uop_count_fails() {
    wrong_expected_fails("core_synth");
}

#[test]
fn benchmark_json_matches_the_notes() {
    let bench = benchmark_json();
    let workloads: Vec<&str> = bench
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(workloads, ["pair_grid", "core_synth"]);
    let notes = Parser::parse(
        &std::fs::read_to_string(repo_root().join("jsmtbench/notes.json")).expect("read notes"),
    );
    let map = notes.get("layer_map").obj();
    for (name, _) in declared("per_layer") {
        assert!(map.contains_key(&name), "layer_map lacks {name}");
    }
    for key in ["default_seed", "held_out_seed"] {
        assert!(notes.get(key).num() >= 0.0);
    }
}
