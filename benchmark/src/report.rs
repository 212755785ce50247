//! What a process prints and writes, and `--compare` over two result
//! files.

use crate::adapter::JsonObject;
use crate::harness::{Measured, Options};
use crate::host::Stamp;
use crate::json::{self, Value};
use crate::metrics::{self, Kind, Metric, Reading};
use crate::spans::{self_times, Tracer};
use crate::stats::{verdict, Spread, Verdict};
use std::fmt::Write as _;

/// Every metric measured, by name, with its unit and the direction in
/// which it improves.
pub fn table(measured: &Measured) -> String {
    let mut out = String::new();
    for m in metrics::METRICS {
        if let Some(r) = measured.readings.get(m.name) {
            let _ = write!(
                out,
                "{:<34} {:>18.6} {:<9} {:<7}",
                m.name,
                r.value,
                m.unit,
                m.better.as_str()
            );
            if r.n > 1 {
                let _ = write!(
                    out,
                    " q1 {:.6} q3 {:.6} n {}",
                    r.spread.q1, r.spread.q3, r.n
                );
            }
            out.push('\n');
        }
    }
    out
}

/// The result object an outside driver reads off the last line.
pub fn last_line(measured: &Measured, correct: bool, traced: bool) -> String {
    let mut values = JsonObject::new();
    for m in metrics::listed(traced) {
        let mut v = JsonObject::new();
        v.f64("value", measured.readings.value(m.name))
            .str("unit", m.unit);
        values.raw(m.name, &v.finish());
    }
    let mut o = JsonObject::new();
    o.bool("correct", correct)
        .u64("attempted", measured.attempted)
        .u64("failed", measured.failed)
        .raw("metrics", &values.finish());
    o.finish()
}

fn reading_json(m: &Metric, r: &Reading) -> String {
    let mut v = JsonObject::new();
    v.f64("value", r.value)
        .str("unit", m.unit)
        .f64("q1", r.spread.q1)
        .f64("q3", r.spread.q3)
        .u64("n", r.n as u64)
        .bool("exact", m.exact);
    v.finish()
}

/// The result file of one process: everything measured, and where.
pub fn result_file(
    workload: &str,
    opts: &Options,
    stamp: &Stamp,
    measured: &Measured,
    correct: bool,
) -> String {
    let mut host = JsonObject::new();
    host.u64("nproc", stamp.nproc as u64)
        .str("kernel", &stamp.kernel)
        .str("rustc", &stamp.rustc)
        .str("commit", &stamp.commit)
        .bool("pinned", measured.pinned);
    let mut values = JsonObject::new();
    for m in metrics::METRICS {
        if let Some(r) = measured.readings.get(m.name) {
            values.raw(m.name, &reading_json(m, r));
        }
    }
    let mut o = JsonObject::new();
    o.str("workload", workload)
        .str("seed", &format!("{:#x}", opts.seed))
        .f64("seconds", opts.seconds)
        .u64("workers", opts.workers as u64)
        .bool("traced", opts.trace)
        .raw("host", &host.finish())
        .bool("correct", correct)
        .u64("attempted", measured.attempted)
        .u64("failed", measured.failed)
        .raw("metrics", &values.finish());
    o.finish()
}

/// The span file of a traced pass: every span with its parent, run and
/// self time.
pub fn span_file(workload: &str, seed: u64, tracer: &Tracer) -> String {
    let spans = tracer.spans();
    let mut list = String::from("[");
    for (i, (s, self_ns)) in spans.iter().zip(self_times(spans)).enumerate() {
        if i > 0 {
            list.push(',');
        }
        let mut o = JsonObject::new();
        o.u64("id", i as u64).str("name", s.name);
        match s.parent {
            Some(p) => o.u64("parent", p as u64),
            None => o.raw("parent", "null"),
        };
        o.u64("run", s.run)
            .u64("start_ns", s.start_ns)
            .u64("end_ns", s.end_ns)
            .u64("self_ns", self_ns);
        list.push_str(&o.finish());
    }
    list.push(']');
    let mut by_name = JsonObject::new();
    for (name, ns) in crate::spans::self_time_by_name(spans) {
        by_name.f64(name, ns as f64 / 1e6);
    }
    let mut o = JsonObject::new();
    o.str("workload", workload)
        .str("seed", &format!("{seed:#x}"))
        .raw("self_ms_by_name", &by_name.finish())
        .raw("spans", &list);
    o.finish()
}

/// One result set: the result objects of a file, which holds either one
/// object or a list of them.
fn result_set(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    match json::parse(&text).map_err(|e| format!("{path}: {e}"))? {
        Value::Arr(items) => Ok(items),
        one @ Value::Obj(_) => Ok(vec![one]),
        _ => Err(format!(
            "{path}: neither a result object nor a list of them"
        )),
    }
}

fn text_of<'a>(result: &'a Value, key: &str) -> &'a str {
    result.get(key).and_then(Value::as_str).unwrap_or("?")
}

fn spread_of(result: &Value, metric: &str) -> Option<Spread> {
    let m = result.get("metrics")?.get(metric)?;
    let num = |k| m.get(k).and_then(Value::as_f64);
    Some(Spread {
        median: num("value")?,
        q1: num("q1")?,
        q3: num("q3")?,
    })
}

/// What `--compare` prints, and whether any row is `worse` or any exact
/// metric differs.
pub struct Comparison {
    pub text: String,
    pub regressed: bool,
}

/// Compare the result sets of two files; see [`compare_sets`].
pub fn compare(path_a: &str, path_b: &str) -> Result<Comparison, String> {
    compare_sets(&result_set(path_a)?, &result_set(path_b)?)
}

/// One row per workload × end-to-end metric, `b` against the baseline
/// `a`; then every exact metric, which must be identical.
fn compare_sets(a: &[Value], b: &[Value]) -> Result<Comparison, String> {
    let mut text = format!(
        "{:<15} {:<15} {:>38} {:>38} {:>8} {:>6}  verdict\n",
        "workload", "metric", "a: median [q1 .. q3]", "b: median [q1 .. q3]", "change", "bound"
    );
    let mut regressed = false;
    let mut exact_checked = 0;
    let mut exact_differ = Vec::new();
    for ra in a {
        let workload = text_of(ra, "workload");
        let Some(rb) = b.iter().find(|r| text_of(r, "workload") == workload) else {
            return Err(format!("the second set has no result for {workload}"));
        };
        for m in metrics::end_to_end() {
            let Kind::EndToEnd { bound } = m.kind else {
                continue;
            };
            let (Some(sa), Some(sb)) = (spread_of(ra, m.name), spread_of(rb, m.name)) else {
                continue;
            };
            let v = verdict(sa, sb, m.better, bound);
            regressed |= v == Verdict::Worse;
            let range = |s: Spread| format!("{:.4} [{:.4} .. {:.4}]", s.median, s.q1, s.q3);
            let change = if sa.median == 0.0 {
                "-".to_string()
            } else {
                format!("{:+.2}%", (sb.median / sa.median - 1.0) * 100.0)
            };
            let _ = writeln!(
                text,
                "{:<15} {:<15} {:>38} {:>38} {:>8} {:>5.0}%  {}",
                workload,
                m.name,
                range(sa),
                range(sb),
                change,
                bound * 100.0,
                v.as_str()
            );
        }
        // Pinned and unpinned threads are two regimes of this host.
        let pinned = |r: &Value| r.get("host").and_then(|h| h.get("pinned")).cloned();
        if pinned(ra) != pinned(rb) {
            let _ = writeln!(text, "{workload}: one set ran pinned and the other did not");
        }
        // Exact metrics repeat for one seed; across seeds they need not.
        if text_of(ra, "seed") != text_of(rb, "seed") {
            let _ = writeln!(text, "{workload}: seeds differ, exact metrics not compared");
            continue;
        }
        for m in metrics::METRICS.iter().filter(|m| m.exact) {
            if let (Some(sa), Some(sb)) = (spread_of(ra, m.name), spread_of(rb, m.name)) {
                exact_checked += 1;
                if sa.median.to_bits() != sb.median.to_bits() {
                    exact_differ.push(format!(
                        "{workload} {}: {} against {}",
                        m.name, sa.median, sb.median
                    ));
                }
            }
        }
    }
    let _ = writeln!(
        text,
        "exact metrics: {exact_checked} compared, {} differ",
        exact_differ.len()
    );
    for line in &exact_differ {
        let _ = writeln!(text, "  {line}");
    }
    regressed |= !exact_differ.is_empty();
    Ok(Comparison { text, regressed })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adapter::json_validate;
    use crate::harness::tests::{measure_small, quick, small_cases};
    use crate::host;

    fn metric_names(line: &str) -> Vec<String> {
        let doc = json::parse(line).unwrap();
        let Some(Value::Obj(m)) = doc.get("metrics") else {
            panic!("no metrics object");
        };
        m.keys().cloned().collect()
    }

    fn sorted<'a>(names: impl Iterator<Item = &'a Metric>) -> Vec<String> {
        let mut v: Vec<String> = names.map(|m| m.name.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn everything_written_is_json_with_the_contracted_keys() {
        let opts = quick(true);
        let case = small_cases()[2];
        let measured = measure_small(case, &opts);
        let stamp = host::stamp();
        let file = result_file(case.name, &opts, &stamp, &measured, true);
        let spans = span_file(case.name, opts.seed, &measured.tracer);
        for text in [&file, &spans] {
            json_validate(text).unwrap();
        }
        assert!(spans.contains("SimulatedRuntime::run") && spans.contains("self_ns"));

        for traced in [false, true] {
            let line = last_line(&measured, true, traced);
            json_validate(&line).unwrap();
            let doc = json::parse(&line).unwrap();
            let Value::Obj(top) = &doc else {
                panic!("not an object");
            };
            let keys: Vec<&str> = top.keys().map(String::as_str).collect();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert_eq!(metric_names(&line), sorted(metrics::listed(traced)));
        }

        // A result set compared with itself is within every bound, and
        // its exact metrics agree.
        let set = [json::parse(&file).unwrap()];
        let same = compare_sets(&set, &set).unwrap();
        assert!(!same.regressed, "{}", same.text);
        assert!(same.text.contains("within-bound") && same.text.contains(" 0 differ"));
    }

    fn result(metrics_json: &str) -> Value {
        json::parse(&format!(
            r#"{{"workload":"w","seed":"0x1","metrics":{metrics_json}}}"#
        ))
        .unwrap()
    }

    #[test]
    fn a_slower_set_and_a_differing_count_are_both_flagged() {
        let base = result(
            r#"{"inputs_per_s":{"value":100,"q1":99,"q3":101},
                "threaded.reruns":{"value":2,"q1":2,"q3":2}}"#,
        );
        let slower = result(
            r#"{"inputs_per_s":{"value":60,"q1":59,"q3":61},
                "threaded.reruns":{"value":2,"q1":2,"q3":2}}"#,
        );
        let recount = result(
            r#"{"inputs_per_s":{"value":100,"q1":99,"q3":101},
                "threaded.reruns":{"value":3,"q1":3,"q3":3}}"#,
        );
        let base = [base];
        let c = compare_sets(&base, &[slower]).unwrap();
        assert!(c.regressed && c.text.contains("worse"), "{}", c.text);
        let c = compare_sets(&base, &[recount]).unwrap();
        assert!(c.regressed && c.text.contains("1 differ"), "{}", c.text);
        assert!(compare_sets(&base, &[]).is_err());
    }
}
