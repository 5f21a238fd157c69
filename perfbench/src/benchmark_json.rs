//! Agreement between the metric catalogue and `BENCHMARK.json`.

use crate::metrics::{end_to_end, per_layer, Spec};

/// A parsed JSON value: just enough of JSON for `BENCHMARK.json`.
#[derive(Debug, PartialEq)]
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
            Json::Obj(kv) => kv
                .iter()
                .find(|(k, _)| k == key)
                .map(|(_, v)| v)
                .unwrap_or_else(|| panic!("no key {key:?}")),
            _ => panic!("not an object: {self:?}"),
        }
    }

    fn str(&self) -> &str {
        match self {
            Json::Str(s) => s,
            _ => panic!("not a string: {self:?}"),
        }
    }

    fn arr(&self) -> &[Json] {
        match self {
            Json::Arr(a) => a,
            _ => panic!("not an array: {self:?}"),
        }
    }

    fn keys(&self) -> Vec<&str> {
        match self {
            Json::Obj(kv) => kv.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object: {self:?}"),
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.i < self.s.len() && self.s[self.i].is_ascii_whitespace() {
            self.i += 1;
        }
    }

    fn eat(&mut self, c: u8) {
        self.ws();
        assert_eq!(self.s[self.i] as char, c as char, "at byte {}", self.i);
        self.i += 1;
    }

    fn value(&mut self) -> Json {
        self.ws();
        match self.s[self.i] {
            b'{' => {
                self.i += 1;
                let mut kv = Vec::new();
                self.ws();
                if self.s[self.i] == b'}' {
                    self.i += 1;
                    return Json::Obj(kv);
                }
                loop {
                    self.ws();
                    let Json::Str(k) = self.value() else {
                        panic!("object key at byte {}", self.i)
                    };
                    self.eat(b':');
                    kv.push((k, self.value()));
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b'}' {
                        return Json::Obj(kv);
                    }
                }
            }
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                self.ws();
                if self.s[self.i] == b']' {
                    self.i += 1;
                    return Json::Arr(items);
                }
                loop {
                    items.push(self.value());
                    self.ws();
                    self.i += 1;
                    if self.s[self.i - 1] == b']' {
                        return Json::Arr(items);
                    }
                }
            }
            b'"' => {
                self.i += 1;
                let start = self.i;
                while self.s[self.i] != b'"' {
                    assert_ne!(self.s[self.i], b'\\', "escapes are not expected here");
                    self.i += 1;
                }
                self.i += 1;
                Json::Str(String::from_utf8(self.s[start..self.i - 1].to_vec()).unwrap())
            }
            b't' | b'f' | b'n' => {
                for (word, v) in [
                    ("true", Json::Bool(true)),
                    ("false", Json::Bool(false)),
                    ("null", Json::Null),
                ] {
                    if self.s[self.i..].starts_with(word.as_bytes()) {
                        self.i += word.len();
                        return v;
                    }
                }
                panic!("bad literal at byte {}", self.i)
            }
            _ => {
                let start = self.i;
                while self.i < self.s.len() && b"+-.eE0123456789".contains(&self.s[self.i]) {
                    self.i += 1;
                }
                let text = std::str::from_utf8(&self.s[start..self.i]).unwrap();
                Json::Num(
                    text.parse()
                        .unwrap_or_else(|_| panic!("bad number {text:?}")),
                )
            }
        }
    }
}

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside perfbench/");
    let mut p = Parser {
        s: text.as_bytes(),
        i: 0,
    };
    p.value()
}

fn expected_entries(specs: &[Spec]) -> String {
    specs
        .iter()
        .map(|s| {
            format!(
                "    {{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"}}",
                s.name,
                s.unit,
                s.better.name()
            )
        })
        .collect::<Vec<_>>()
        .join(",\n")
}

fn check_list(json: &Json, specs: &[Spec], with_bound: bool) {
    let got: Vec<(String, String, String)> = json
        .arr()
        .iter()
        .map(|m| {
            let mut keys = vec!["better", "name", "unit"];
            if with_bound {
                keys.push("bound");
            }
            let mut have = m.keys();
            have.sort_unstable();
            keys.sort_unstable();
            assert_eq!(have, keys, "keys of {m:?}");
            (
                m.get("name").str().to_string(),
                m.get("unit").str().to_string(),
                m.get("better").str().to_string(),
            )
        })
        .collect();
    let want: Vec<(String, String, String)> = specs
        .iter()
        .map(|s| {
            (
                s.name.clone(),
                s.unit.to_string(),
                s.better.name().to_string(),
            )
        })
        .collect();
    assert_eq!(
        got,
        want,
        "BENCHMARK.json disagrees with the catalogue; the catalogue is:\n{}",
        expected_entries(specs)
    );
}

#[test]
fn end_to_end_names_agree_with_benchmark_json() {
    let b = benchmark_json();
    check_list(b.get("end_to_end"), &end_to_end(), true);
    for m in b.get("end_to_end").arr() {
        let Json::Num(bound) = m.get("bound") else {
            panic!("bound of {m:?}")
        };
        assert!(*bound > 0.0 && *bound <= 0.25, "{m:?}");
    }
}

#[test]
fn per_layer_names_agree_with_benchmark_json() {
    check_list(benchmark_json().get("per_layer"), &per_layer(), false);
}

#[test]
fn workloads_agree_and_state_their_rates_and_limits() {
    let b = benchmark_json();
    let names: Vec<&str> = b
        .get("workloads")
        .arr()
        .iter()
        .map(|w| w.get("name").str())
        .collect();
    assert_eq!(names, crate::WORKLOADS);
    let why = |name: &str| -> String {
        b.get("workloads")
            .arr()
            .iter()
            .find(|w| w.get("name").str() == name)
            .map(|w| w.get("why").str().to_string())
            .unwrap()
    };
    for w in b.get("workloads").arr() {
        let text = w.get("why").str();
        assert!(text.len() <= 200 && !text.contains('\n'), "{text}");
    }
    assert!(why("serve").contains(&format!("{} jobs/s", crate::serve::RATE)));
    assert!(why("serve").contains(&format!("limit {} ms", crate::serve::LIMIT_MS)));
    assert!(why("stream").contains(&format!("{} batches/s", crate::stream::RATE)));
    assert!(why("stream").contains(&format!("limit {} ms", crate::stream::LIMIT_MS)));
    assert!(why("oneshot").contains(&format!("{} joins/s", crate::oneshot::RATE)));
    assert!(why("oneshot").contains(&format!("limit {} ms", crate::oneshot::LIMIT_MS)));
    assert!(why("paper-sim").contains(&format!("{} points/s", crate::paper_sim::RATE)));
    assert!(why("paper-sim").contains(&format!("limit {} ms", crate::paper_sim::LIMIT_MS)));
}

#[test]
fn benchmark_json_has_exactly_the_contract_keys() {
    let b = benchmark_json();
    let mut keys = b.keys();
    keys.sort_unstable();
    assert_eq!(
        keys,
        [
            "command",
            "end_to_end",
            "paths",
            "per_layer",
            "run_seconds",
            "workloads"
        ]
    );
    let command: Vec<&str> = b.get("command").arr().iter().map(Json::str).collect();
    assert_eq!(command, ["python3", "perfbench/run.py"]);
    let paths: Vec<&str> = b.get("paths").arr().iter().map(Json::str).collect();
    assert_eq!(paths, ["perfbench"]);
}
