//! `--compare` and `--stability`: judge two sets of runs by the
//! benchmark's own bounds, the way the driver does.
//!
//! A *set file* holds one JSON line per run (`--out` appends them). For
//! every workload and end-to-end metric the table shows both medians,
//! how much worse the second is as a share of the first, the bound, and
//! a verdict: `pass`, `unresolved` when the run-to-run spread
//! (interquartile distance over median) is wider than the bound, or
//! `FAIL` when the bound is exceeded.

use crate::spec::{self, Better};
use crate::stats;
use std::collections::BTreeMap;

/// A parsed JSON value — just enough for the benchmark's own output,
/// which holds no arrays and no nulls.
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    Bool(bool),
    Num(f64),
    Str(String),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn num(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }
}

struct Parser<'a> {
    src: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.src.get(self.pos).is_some_and(u8::is_ascii_whitespace) {
            self.pos += 1;
        }
    }

    fn eat(&mut self, byte: u8) -> Result<(), String> {
        self.ws();
        if self.src.get(self.pos) == Some(&byte) {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!("expected `{}` at byte {}", byte as char, self.pos))
        }
    }

    fn literal(&mut self, word: &str, value: Json) -> Result<Json, String> {
        if self.src[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(format!("bad literal at byte {}", self.pos))
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.eat(b'"')?;
        let mut out = Vec::new();
        loop {
            match self.src.get(self.pos).copied() {
                None => return Err("unterminated string".into()),
                Some(b'"') => {
                    self.pos += 1;
                    return String::from_utf8(out).map_err(|e| e.to_string());
                }
                Some(b'\\') => {
                    let esc = self.src.get(self.pos + 1).copied();
                    out.push(match esc {
                        Some(b'n') => b'\n',
                        Some(b't') => b'\t',
                        Some(c @ (b'"' | b'\\' | b'/')) => c,
                        _ => return Err(format!("unsupported escape at byte {}", self.pos)),
                    });
                    self.pos += 2;
                }
                Some(c) => {
                    out.push(c);
                    self.pos += 1;
                }
            }
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        match self.src.get(self.pos).copied() {
            Some(b'{') => {
                self.pos += 1;
                let mut fields = Vec::new();
                self.ws();
                if self.src.get(self.pos) == Some(&b'}') {
                    self.pos += 1;
                    return Ok(Json::Obj(fields));
                }
                loop {
                    self.ws();
                    let key = self.string()?;
                    self.eat(b':')?;
                    fields.push((key, self.value()?));
                    self.ws();
                    match self.src.get(self.pos) {
                        Some(b',') => self.pos += 1,
                        Some(b'}') => {
                            self.pos += 1;
                            return Ok(Json::Obj(fields));
                        }
                        _ => return Err(format!("expected `,` or `}}` at byte {}", self.pos)),
                    }
                }
            }
            Some(b'"') => self.string().map(Json::Str),
            Some(b't') => self.literal("true", Json::Bool(true)),
            Some(b'f') => self.literal("false", Json::Bool(false)),
            Some(_) => {
                let start = self.pos;
                while self
                    .src
                    .get(self.pos)
                    .is_some_and(|c| c.is_ascii_digit() || b"+-.eE".contains(c))
                {
                    self.pos += 1;
                }
                std::str::from_utf8(&self.src[start..self.pos])
                    .ok()
                    .and_then(|s| s.parse().ok())
                    .map(Json::Num)
                    .ok_or_else(|| format!("bad number at byte {start}"))
            }
            None => Err("unexpected end of input".into()),
        }
    }
}

/// Parse one JSON document.
pub fn parse_json(text: &str) -> Result<Json, String> {
    let mut p = Parser {
        src: text.as_bytes(),
        pos: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.pos == text.len() {
        Ok(v)
    } else {
        Err(format!("trailing bytes after JSON value at {}", p.pos))
    }
}

/// `(workload, metric)` → the values of every untraced run in a set.
type Set = BTreeMap<(String, String), Vec<f64>>;

fn parse_set(text: &str) -> Result<Set, String> {
    let mut set = Set::new();
    for (n, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let run = parse_json(line).map_err(|e| format!("line {}: {e}", n + 1))?;
        if run.get("trace").and_then(Json::num) == Some(1.0) {
            continue;
        }
        let workload = run
            .get("workload")
            .and_then(Json::str)
            .ok_or_else(|| format!("line {}: no workload", n + 1))?;
        let Some(Json::Obj(metrics)) = run.get("metrics") else {
            return Err(format!("line {}: no metrics", n + 1));
        };
        for (name, m) in metrics {
            let value = m
                .get("value")
                .and_then(Json::num)
                .ok_or_else(|| format!("line {}: metric {name} has no value", n + 1))?;
            set.entry((workload.to_string(), name.clone()))
                .or_default()
                .push(value);
        }
    }
    Ok(set)
}

/// How much worse `b` is than `a`, as a share of `a` (negative = better).
fn worsening(a: f64, b: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (b - a) / a,
        Better::Higher => (a - b) / a,
    }
}

/// Print the comparison table; `Ok(false)` when a bound is exceeded.
fn compare_sets(a: &Set, b: &Set) -> bool {
    println!(
        "{:<14} {:<13} {:>12} {:>12} {:>8} {:>7} {:>7} {:>6}  verdict",
        "workload", "metric", "median a", "median b", "worse", "iqr a", "iqr b", "bound"
    );
    let mut ok = true;
    for w in spec::WORKLOADS {
        for m in spec::END_TO_END {
            let key = (w.name.to_string(), m.name.to_string());
            let (Some(va), Some(vb)) = (a.get(&key), b.get(&key)) else {
                continue;
            };
            let (Some(ma), Some(mb)) = (stats::median(va), stats::median(vb)) else {
                continue;
            };
            let worse = worsening(ma, mb, m.better);
            let spread_a = stats::spread(va).unwrap_or(0.0);
            let spread_b = stats::spread(vb).unwrap_or(0.0);
            // The driver exempts setup_s from the spread rule only.
            let wide = m.name != "setup_s" && spread_a.max(spread_b) > m.bound;
            let verdict = if worse > m.bound {
                ok = false;
                "FAIL"
            } else if wide {
                "unresolved"
            } else {
                "pass"
            };
            println!(
                "{:<14} {:<13} {:>12.4} {:>12.4} {:>+7.1}% {:>6.1}% {:>6.1}% {:>5.0}%  {}",
                w.name,
                m.name,
                ma,
                mb,
                worse * 100.0,
                spread_a * 100.0,
                spread_b * 100.0,
                m.bound * 100.0,
                verdict
            );
        }
    }
    ok
}

/// `--compare a b`.
pub fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        std::fs::read_to_string(path)
            .map_err(|e| format!("read {path}: {e}"))
            .and_then(|t| parse_set(&t).map_err(|e| format!("{path}: {e}")))
    };
    Ok(compare_sets(&read(a)?, &read(b)?))
}

/// `--stability`: run two sets of `runs` seeds per workload — each run a
/// child process, as the driver runs them — and compare the sets.
pub fn stability(runs: u32, seconds: f64) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = crate::harness::results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    let mut files = Vec::new();
    for (set, first_seed) in [("a", 1), ("b", 1 + u64::from(runs))] {
        let file = dir.join(format!("stability-{set}.jsonl"));
        let _ = std::fs::remove_file(&file);
        for w in spec::WORKLOADS {
            for seed in first_seed..first_seed + u64::from(runs) {
                eprintln!("set {set}: {} seed {seed}", w.name);
                let status = std::process::Command::new(&exe)
                    .args(["--workload", w.name, "--trace", "0"])
                    .args(["--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out")
                    .arg(&file)
                    .stdout(std::process::Stdio::null())
                    .status()
                    .map_err(|e| format!("spawn {}: {e}", exe.display()))?;
                if !status.success() {
                    return Err(format!("{} seed {seed} exited with {status}", w.name));
                }
            }
        }
        files.push(file);
    }
    compare_files(&files[0].to_string_lossy(), &files[1].to_string_lossy())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(workload: &str, write_p50: f64, mib_s: f64) -> String {
        format!(
            "{{\"workload\": \"{workload}\", \"seed\": 1, \"trace\": 0, \"correct\": true, \
             \"attempted\": 10, \"failed\": 0, \"metrics\": {{\
             \"write_p50_ms\": {{\"value\": {write_p50}, \"unit\": \"ms\"}}, \
             \"write_mib_s\": {{\"value\": {mib_s}, \"unit\": \"MiB/s\"}}}}}}\n"
        )
    }

    #[test]
    fn parses_its_own_output() {
        let v = parse_json(&line("ingest", 2.5, 400.0)).expect("parse");
        assert_eq!(v.get("workload").and_then(Json::str), Some("ingest"));
        let m = v.get("metrics").and_then(|m| m.get("write_p50_ms"));
        assert_eq!(
            m.and_then(|m| m.get("value")).and_then(Json::num),
            Some(2.5)
        );
        assert!(parse_json("{\"a\": {\"b\": true}, \"c\": \"x\\\"y\"}").is_ok());
        assert!(
            parse_json("{\"a\": [1, 2]}").is_err(),
            "no arrays in a set file"
        );
        assert!(parse_json("{\"a\": 1,}").is_err());
        assert!(parse_json("{\"a\": 1} x").is_err());
    }

    #[test]
    fn regression_past_the_bound_fails_in_the_right_direction() {
        let a = parse_set(&(line("ingest", 2.0, 400.0) + &line("ingest", 2.0, 400.0))).unwrap();
        let slower =
            parse_set(&(line("ingest", 3.0, 200.0) + &line("ingest", 3.0, 200.0))).unwrap();
        let faster =
            parse_set(&(line("ingest", 1.0, 800.0) + &line("ingest", 1.0, 800.0))).unwrap();
        assert!(!compare_sets(&a, &slower), "50% worse exceeds every bound");
        assert!(
            compare_sets(&a, &faster),
            "an improvement is never a failure"
        );
        assert!(compare_sets(&a, &a));
        assert!(worsening(400.0, 300.0, Better::Higher) > 0.0);
        assert!(worsening(2.0, 3.0, Better::Lower) > 0.0);
    }
}
