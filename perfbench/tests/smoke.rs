//! The benchmark's own smoke test: every workload runs at tiny scale,
//! prints every metric `BENCHMARK.json` names (end-to-end untraced, none
//! of them 0; per-layer traced) with its unit, passes its reference
//! checks, and leaves no spill or checkpoint file behind.
//!
//! Run with `cargo test --release --manifest-path perfbench/Cargo.toml`.

use std::path::{Path, PathBuf};
use std::process::Command;

/// A parsed JSON value — just enough JSON for `BENCHMARK.json` and the
/// benchmark's result line.
#[derive(Debug, Clone)]
enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn get(&self, key: &str) -> &Json {
        match self {
            Json::Obj(fields) => fields
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("missing key `{key}`")),
            other => panic!("not an object: {other:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            other => panic!("not a string: {other:?}"),
        }
    }

    fn num(&self) -> f64 {
        match self {
            Json::Num(n) => *n,
            other => panic!("not a number: {other:?}"),
        }
    }
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn parse(text: &str) -> Json {
        let mut p = Parser {
            bytes: text.as_bytes(),
            pos: 0,
        };
        let value = p.value();
        p.ws();
        assert_eq!(p.pos, p.bytes.len(), "trailing characters in JSON");
        value
    }

    fn ws(&mut self) {
        while self.pos < self.bytes.len() && self.bytes[self.pos].is_ascii_whitespace() {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) {
        self.ws();
        assert_eq!(
            self.bytes.get(self.pos),
            Some(&byte),
            "expected `{}`",
            byte as char
        );
        self.pos += 1;
    }

    fn peek(&mut self) -> u8 {
        self.ws();
        *self.bytes.get(self.pos).expect("unexpected end of JSON")
    }

    fn value(&mut self) -> Json {
        match self.peek() {
            b'{' => {
                self.eat(b'{');
                let mut fields = Vec::new();
                if self.peek() != b'}' {
                    loop {
                        let key = self.string();
                        self.eat(b':');
                        fields.push((key, self.value()));
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b'}');
                Json::Obj(fields)
            }
            b'[' => {
                self.eat(b'[');
                let mut items = Vec::new();
                if self.peek() != b']' {
                    loop {
                        items.push(self.value());
                        if self.peek() == b',' {
                            self.eat(b',');
                        } else {
                            break;
                        }
                    }
                }
                self.eat(b']');
                Json::Arr(items)
            }
            b'"' => Json::Str(self.string()),
            b't' | b'f' | b'n' => {
                let rest = &self.bytes[self.pos..];
                for (word, value) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if rest.starts_with(word.as_bytes()) {
                        self.pos += word.len();
                        return value;
                    }
                }
                panic!("bad literal in JSON");
            }
            _ => {
                let start = self.pos;
                while self.pos < self.bytes.len()
                    && matches!(
                        self.bytes[self.pos],
                        b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9'
                    )
                {
                    self.pos += 1;
                }
                let text = std::str::from_utf8(&self.bytes[start..self.pos]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number `{text}`")),
                )
            }
        }
    }

    fn string(&mut self) -> String {
        self.eat(b'"');
        let mut out = String::new();
        loop {
            let c = self.bytes[self.pos];
            self.pos += 1;
            match c {
                b'"' => return out,
                b'\\' => {
                    out.push(self.bytes[self.pos] as char);
                    self.pos += 1;
                }
                _ => out.push(c as char),
            }
        }
    }
}

/// The entries of list `section` in `BENCHMARK.json`.
fn spec_list(section: &str) -> Vec<Json> {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let spec = Parser::parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json"));
    match spec.get(section) {
        Json::Arr(items) => items.clone(),
        other => panic!("{section} is not a list: {other:?}"),
    }
}

fn name_and_unit(metric: &Json) -> (String, String) {
    (
        metric.get("name").str().to_string(),
        metric.get("unit").str().to_string(),
    )
}

/// A fresh directory to run the benchmark in.
fn run_dir(tag: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("smoke-{tag}"));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn run(workload: &str, trace: u8, dir: &Path) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "0.5"])
        .args(["--trace", &trace.to_string(), "--scale", "tiny"])
        .current_dir(dir)
        .output()
        .expect("run perfbench");
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(
        out.status.success(),
        "{workload} trace={trace} failed: {stdout}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    Parser::parse(stdout.lines().last().expect("a result line"))
}

#[test]
fn every_workload_prints_every_declared_metric_and_cleans_up() {
    for workload in spec_list("workloads") {
        let workload = workload.get("name").str();
        for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
            let dir = run_dir(&format!("{workload}-{trace}"));
            let result = run(workload, trace, &dir);
            let label = format!("{workload} trace={trace}");
            assert!(
                matches!(result.get("correct"), Json::Bool(true)),
                "{label}: incorrect"
            );
            assert_eq!(result.get("failed").num(), 0.0, "{label}: failed ops");
            assert!(result.get("attempted").num() >= 1.0, "{label}: no ops");

            let Json::Obj(metrics) = result.get("metrics") else {
                panic!("{label}: metrics is not an object");
            };
            let mut printed: Vec<(String, String)> = metrics
                .iter()
                .map(|(name, m)| {
                    let value = m.get("value").num();
                    assert!(value.is_finite(), "{label}: {name} = {value}");
                    // End-to-end metrics are never 0 on any workload.
                    assert!(trace == 1 || value > 0.0, "{label}: {name} = {value}");
                    (name.clone(), m.get("unit").str().to_string())
                })
                .collect();
            let mut wanted: Vec<_> = spec_list(section).iter().map(name_and_unit).collect();
            printed.sort();
            wanted.sort();
            assert_eq!(
                printed, wanted,
                "{label}: metric names/units differ from BENCHMARK.json"
            );

            // Spill runs, checkpoint parts and `job-*` sessions all live in
            // the run's work directory, which must be gone.
            let leftovers: Vec<_> = std::fs::read_dir(dir.join(".perfbench"))
                .unwrap()
                .flatten()
                .filter(|e| e.file_name().to_string_lossy().starts_with("work-"))
                .collect();
            assert!(leftovers.is_empty(), "{label}: work directory left behind");
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
