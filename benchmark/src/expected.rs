//! What each workload must decide and produce at the default seed,
//! checked in under `expected/`.
//!
//! Every run is already compared with `run_speculative`; this second
//! reference catches a change that moves both runtimes together.

use crate::adapter::JsonObject;
use crate::json::{self, Value};

/// What a process observed of the program's behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Observed {
    /// One letter per chunk: `F`irst, `C`ommitted, `A`borted.
    pub decisions: String,
    pub outputs: usize,
    /// `Workload::quality` of the outputs, as `f64::to_bits`.
    pub quality_bits: u64,
    /// The exact layer metrics; empty when the process ran untraced.
    pub exact: Vec<(&'static str, f64)>,
}

impl Observed {
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut exact = JsonObject::new();
        for &(name, value) in &self.exact {
            exact.f64(name, value);
        }
        let mut o = JsonObject::new();
        o.str("workload", workload)
            .str("seed", &format!("{seed:#x}"))
            .str("decisions", &self.decisions)
            .u64("outputs", self.outputs as u64)
            .str("quality_bits", &format!("{:#018x}", self.quality_bits))
            .raw("exact", &exact.finish());
        o.finish()
    }

    /// Every way this observation departs from the checked-in `expected`
    /// text. Exact metrics are compared only when this process measured
    /// them.
    pub fn differences(&self, expected: &str) -> Vec<String> {
        let doc = match json::parse(expected) {
            Ok(doc) => doc,
            Err(e) => return vec![format!("expected file does not parse: {e}")],
        };
        let mut diffs = Vec::new();
        let mut differs = |what: &str, got: String, want: Option<String>| {
            if want.as_deref() != Some(&got) {
                let want = want.unwrap_or_else(|| "nothing".into());
                diffs.push(format!("{what}: got {got}, expected {want}"));
            }
        };
        let text = |key| doc.get(key).and_then(Value::as_str).map(str::to_string);
        differs("decisions", self.decisions.clone(), text("decisions"));
        differs(
            "quality_bits",
            format!("{:#018x}", self.quality_bits),
            text("quality_bits"),
        );
        differs(
            "outputs",
            self.outputs.to_string(),
            doc.get("outputs")
                .and_then(Value::as_f64)
                .map(|n| n.to_string()),
        );
        for &(name, value) in &self.exact {
            let want = doc
                .get("exact")
                .and_then(|e| e.get(name))
                .and_then(Value::as_f64);
            if want.map(f64::to_bits) != Some(value.to_bits()) {
                diffs.push(format!("{name}: got {value}, expected {want:?}"));
            }
        }
        diffs
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn observed() -> Observed {
        Observed {
            decisions: "FCAC".into(),
            outputs: 40,
            quality_bits: 0.731_f64.to_bits(),
            exact: vec![
                ("threaded.chunks_committed", 2.0),
                ("simulated.sim_speedup", 1.0 / 3.0),
            ],
        }
    }

    #[test]
    fn an_observation_matches_its_own_file() {
        let o = observed();
        let text = o.to_json("compute-bound", 0x5747_5175);
        crate::adapter::json_validate(&text).unwrap();
        assert_eq!(o.differences(&text), Vec::<String>::new());
        // An untraced process checks what it has.
        let untraced = Observed {
            exact: Vec::new(),
            ..o
        };
        assert!(untraced.differences(&text).is_empty());
    }

    #[test]
    fn each_field_is_compared() {
        let text = observed().to_json("compute-bound", 1);
        let mut o = observed();
        o.decisions = "FCCC".into();
        o.outputs = 41;
        o.quality_bits += 1;
        o.exact[1].1 = 0.333;
        let diffs = o.differences(&text);
        assert_eq!(diffs.len(), 4, "{diffs:?}");
        assert_eq!(observed().differences("{}").len(), 5);
        assert_eq!(observed().differences("not json").len(), 1);
    }
}
