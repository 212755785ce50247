//! Machine-readable renderings of a lint [`Report`]: a JSON document for
//! artifacts/tooling and GitHub Actions error annotations for CI.
//!
//! The JSON is hand-rolled (the workspace is hermetic — no serde); the
//! schema is small and stable:
//!
//! ```json
//! {
//!   "findings": [
//!     { "rule": "ND009", "message": "…", "file": "…", "line": 1,
//!       "col": 1, "len": 1, "snippet": "…", "hint": "…",
//!       "waived": false, "waiver_reason": null,
//!       "chain": [ { "label": "…", "file": "…", "line": 1, "col": 1 } ] }
//!   ],
//!   "summary": {
//!     "total": 0, "unwaived": 0, "waived": 0,
//!     "graph": { "static_sites": 0, "static_edges": 0,
//!                "dynamic_sites": 0, "unresolved_sites": 0 }
//!   }
//! }
//! ```

use crate::lint::Report;
use stats_trace::chrome::json_escape;
use std::fmt::Write as _;

/// Render the full report as a JSON document (trailing newline included).
pub fn json_report(report: &Report) -> String {
    let mut out = String::new();
    out.push_str("{\n  \"findings\": [");
    for (i, f) in report.findings.iter().enumerate() {
        let d = &f.diag;
        out.push_str(if i == 0 { "\n" } else { ",\n" });
        let _ = write!(
            out,
            "    {{\n      \"rule\": \"{}\",\n      \"message\": \"{}\",\n      \
             \"file\": \"{}\",\n      \"line\": {},\n      \"col\": {},\n      \
             \"len\": {},\n      \"snippet\": \"{}\",\n      \"hint\": \"{}\",\n      \
             \"waived\": {},\n      \"waiver_reason\": {},\n      \"chain\": [",
            json_escape(d.rule),
            json_escape(&d.message),
            json_escape(&d.file),
            d.line,
            d.col,
            d.len,
            json_escape(&d.snippet),
            json_escape(d.hint),
            f.waived,
            match &f.waiver_reason {
                Some(r) => format!("\"{}\"", json_escape(r)),
                None => "null".to_string(),
            },
        );
        for (j, n) in d.notes.iter().enumerate() {
            out.push_str(if j == 0 { "\n" } else { ",\n" });
            let _ = write!(
                out,
                "        {{ \"label\": \"{}\", \"file\": \"{}\", \"line\": {}, \"col\": {} }}",
                json_escape(&n.label),
                json_escape(&n.file),
                n.line,
                n.col,
            );
        }
        if !d.notes.is_empty() {
            out.push_str("\n      ");
        }
        out.push_str("]\n    }");
    }
    if !report.findings.is_empty() {
        out.push_str("\n  ");
    }
    let total = report.findings.len();
    let unwaived = report.unwaived().count();
    let g = &report.stats;
    let _ = write!(
        out,
        "],\n  \"summary\": {{\n    \"total\": {total},\n    \"unwaived\": {unwaived},\n    \
         \"waived\": {},\n    \"graph\": {{\n      \"static_sites\": {},\n      \
         \"static_edges\": {},\n      \"dynamic_sites\": {},\n      \
         \"unresolved_sites\": {}\n    }}\n  }}\n}}\n",
        total - unwaived,
        g.static_sites,
        g.static_edges,
        g.dynamic_sites,
        g.unresolved_sites,
    );
    out
}

/// Escape an annotation *property* (file, title): GitHub's workflow-command
/// grammar reserves `%`, newlines, `:` and `,` there.
fn gh_escape_property(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
        .replace(':', "%3A")
        .replace(',', "%2C")
}

/// Escape an annotation *message*: only `%` and newlines are reserved.
fn gh_escape_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// Render every unwaived finding as a GitHub Actions `::error` workflow
/// command, one per line, so the findings surface inline on the PR diff.
/// Waived findings are omitted (they are visible in the JSON artifact).
pub fn github_annotations(report: &Report) -> String {
    let mut out = String::new();
    for f in report.unwaived() {
        let d = &f.diag;
        let mut message = format!("{} [{}]", d.message, d.rule);
        for n in &d.notes {
            let _ = write!(message, "\n{} ({}:{}:{})", n.label, n.file, n.line, n.col);
        }
        let _ = write!(message, "\nhelp: {}", d.hint);
        let _ = writeln!(
            out,
            "::error file={},line={},col={},endColumn={},title={}::{}",
            gh_escape_property(&d.file),
            d.line,
            d.col,
            d.col + d.len.max(1),
            gh_escape_property(&format!("stats-analyzer {}", d.rule)),
            gh_escape_data(&message),
        );
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lint::lint_workspace_sources;

    fn sample_report() -> Report {
        lint_workspace_sources(&[(
            "crates/demo/src/lib.rs",
            "// stats-analyzer: allow(ND003): report ordering is sorted downstream\n\
             use std::collections::HashMap;\n\
             fn f() { let t = Instant::now(); }\n",
        )])
    }

    #[test]
    fn json_report_has_findings_and_summary() {
        let text = json_report(&sample_report());
        assert!(text.contains("\"rule\": \"ND002\""));
        assert!(text.contains("\"waived\": true"));
        assert!(text.contains("\"waiver_reason\": \"report ordering is sorted downstream\""));
        assert!(text.contains("\"total\": 2"));
        assert!(text.contains("\"unwaived\": 1"));
        assert!(text.contains("\"static_sites\""));
    }

    #[test]
    fn empty_report_is_valid_json_shape() {
        let text = json_report(&Report::default());
        assert!(text.contains("\"findings\": []"));
        assert!(text.contains("\"total\": 0"));
    }

    #[test]
    fn annotations_cover_only_unwaived_findings() {
        let text = github_annotations(&sample_report());
        let lines: Vec<_> = text.lines().collect();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].starts_with("::error file=crates/demo/src/lib.rs,line=3,"));
        assert!(lines[0].contains("title=stats-analyzer ND002"));
        // Newlines inside the message are %-escaped onto one line.
        assert!(lines[0].contains("%0Ahelp: "));
    }

    #[test]
    fn property_escaping_covers_commas_and_colons() {
        assert_eq!(gh_escape_property("a:b,c%d"), "a%3Ab%2Cc%25d");
        assert_eq!(gh_escape_data("x%y\nz"), "x%25y%0Az");
    }
}
