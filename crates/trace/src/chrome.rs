//! Chrome trace-event export: load workbench traces in `chrome://tracing`
//! or [Perfetto](https://ui.perfetto.dev).
//!
//! The trace-event format is plain JSON; this module hand-writes the tiny
//! subset needed (complete events, `"ph":"X"`) so no JSON dependency is
//! required. Virtual cycles are exported as microseconds (1 cycle = 1 µs)
//! — absolute time is meaningless in a virtual-time trace, only structure
//! matters.

use crate::{DependencyEdge, Trace};
use std::fmt::Write as _;

/// Escape a string for a JSON string literal (quotes not included):
/// quotes, backslashes and every control character below U+0020;
/// everything else, non-ASCII included, passes through as UTF-8.
///
/// The workspace's one JSON string escaper: the Chrome exporter's scenario
/// names and span labels, `stats_telemetry::json::JsonObject` and the
/// analyzer's JSON report all write strings through it.
pub fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out
}

/// Serialize a trace to the Chrome trace-event JSON format.
///
/// Each span becomes a complete event (`"ph":"X"`) on its logical thread;
/// dependency edges become flow events (`"ph":"s"`/`"ph":"f"`) so the
/// viewer draws arrows between producers and consumers. Metadata events
/// (`"ph":"M"`) name the process after the trace's scenario and pin each
/// thread's display order to its thread id — without the explicit
/// `thread_sort_index`, viewers order rows by first-event appearance, so
/// two exports of the same workload could lay out their threads
/// differently.
///
/// ```
/// use stats_trace::{Category, Cycles, ThreadId, TraceBuilder};
/// use stats_trace::chrome::to_chrome_trace;
///
/// let mut b = TraceBuilder::new("demo");
/// b.push(ThreadId(0), Category::Setup, Cycles(0), Cycles(10), 0);
/// let json = to_chrome_trace(&b.finish().unwrap());
/// assert!(json.starts_with('['));
/// assert!(json.contains("\"ph\":\"X\""));
/// assert!(json.contains("\"process_name\""));
/// ```
pub fn to_chrome_trace(trace: &Trace) -> String {
    to_chrome_trace_with_names(trace, &[])
}

/// [`to_chrome_trace`] with explicit thread names: `names` maps a logical
/// thread id to the label shown in the viewer (e.g. `stats-pool-3`,
/// `coordinator`). Threads without an entry fall back to `thread N`.
/// Native profiles use this so the timeline reads in pool terms instead
/// of bare numbers.
pub fn to_chrome_trace_with_names(trace: &Trace, names: &[(usize, String)]) -> String {
    let mut out = String::from("[\n");
    let mut first = true;
    let mut push = |event: String, out: &mut String| {
        if !first {
            out.push_str(",\n");
        }
        first = false;
        out.push_str(&event);
    };

    // Metadata first: the process name, then every thread in ascending
    // id order (a stable order regardless of which thread happened to
    // record the first span).
    push(
        format!(
            "  {{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,\
             \"args\":{{\"name\":\"{}\"}}}}",
            json_escape(&trace.meta().scenario)
        ),
        &mut out,
    );
    let mut tids: Vec<usize> = trace.spans().iter().map(|s| s.thread.0).collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        let name = names
            .iter()
            .find(|(t, _)| *t == tid)
            .map_or_else(|| format!("thread {tid}"), |(_, n)| n.clone());
        push(
            format!(
                "  {{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":{},\
                 \"args\":{{\"name\":\"{}\"}}}}",
                tid,
                json_escape(&name)
            ),
            &mut out,
        );
        push(
            format!(
                "  {{\"name\":\"thread_sort_index\",\"ph\":\"M\",\"pid\":1,\"tid\":{tid},\
                 \"args\":{{\"sort_index\":{tid}}}}}"
            ),
            &mut out,
        );
    }

    for s in trace.spans() {
        let name = match &s.label {
            Some(l) => format!("{} ({})", s.category.name(), json_escape(l)),
            None => s.category.name().to_string(),
        };
        push(
            format!(
                "  {{\"name\":\"{}\",\"cat\":\"{}\",\"ph\":\"X\",\"ts\":{},\"dur\":{},\
                 \"pid\":1,\"tid\":{},\"args\":{{\"instructions\":{}}}}}",
                json_escape(&name),
                s.category.name(),
                s.start.get(),
                s.duration().get(),
                s.thread.0,
                s.instructions
            ),
            &mut out,
        );
    }

    for (i, DependencyEdge { from, to }) in trace.edges().iter().enumerate() {
        let f = trace.span(*from);
        let t = trace.span(*to);
        push(
            format!(
                "  {{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"s\",\"id\":{},\"ts\":{},\
                 \"pid\":1,\"tid\":{}}}",
                i,
                f.end.get().max(1) - 1,
                f.thread.0
            ),
            &mut out,
        );
        push(
            format!(
                "  {{\"name\":\"dep\",\"cat\":\"dep\",\"ph\":\"f\",\"bp\":\"e\",\"id\":{},\
                 \"ts\":{},\"pid\":1,\"tid\":{}}}",
                i,
                t.start.get(),
                t.thread.0
            ),
            &mut out,
        );
    }

    out.push_str("\n]\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Category, Cycles, ThreadId, TraceBuilder};

    fn sample() -> Trace {
        let mut b = TraceBuilder::new("chrome");
        let a = b.push(ThreadId(0), Category::Setup, Cycles(0), Cycles(10), 5);
        let c = b.push_labeled(
            ThreadId(1),
            Category::ChunkCompute,
            Cycles(10),
            Cycles(30),
            20,
            "chunk 0",
        );
        b.depend(a, c);
        b.finish().unwrap()
    }

    #[test]
    fn emits_complete_events_per_span() {
        let json = to_chrome_trace(&sample());
        assert_eq!(json.matches("\"ph\":\"X\"").count(), 2);
        assert!(json.contains("\"tid\":0"));
        assert!(json.contains("\"tid\":1"));
        assert!(json.contains("\"dur\":20"));
        assert!(json.contains("chunk 0"));
    }

    #[test]
    fn emits_flow_events_per_edge() {
        let json = to_chrome_trace(&sample());
        assert_eq!(json.matches("\"ph\":\"s\"").count(), 1);
        assert_eq!(json.matches("\"ph\":\"f\"").count(), 1);
    }

    #[test]
    fn output_is_structurally_valid_json_array() {
        let json = to_chrome_trace(&sample());
        let trimmed = json.trim();
        assert!(trimmed.starts_with('['));
        assert!(trimmed.ends_with(']'));
        // Balanced braces and no trailing comma before the closer.
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
        assert!(!json.contains(",\n]"));
    }

    #[test]
    fn escapes_hostile_labels() {
        let mut b = TraceBuilder::new("esc");
        b.push_labeled(
            ThreadId(0),
            Category::Sync,
            Cycles(0),
            Cycles(1),
            0,
            "quote \" backslash \\ newline \n end",
        );
        let json = to_chrome_trace(&b.finish().unwrap());
        assert!(json.contains("\\\""));
        assert!(json.contains("\\\\"));
        assert!(json.contains("\\n"));
        // Raw newline must not appear inside any string literal.
        for line in json.lines() {
            assert!(!line.contains("newline \n"));
        }
    }

    #[test]
    fn empty_trace_has_only_process_metadata() {
        let t = TraceBuilder::new("empty").finish().unwrap();
        let json = to_chrome_trace(&t);
        // No spans → no complete/flow/thread events, but the process is
        // still named so the viewer shows the scenario.
        assert_eq!(json.matches("\"ph\":\"M\"").count(), 1);
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"empty\""));
        assert!(!json.contains("\"ph\":\"X\""));
        assert!(!json.contains("thread_name"));
    }

    #[test]
    fn metadata_names_process_and_threads_in_stable_order() {
        // Record the higher thread id first: appearance order and id
        // order disagree, and the metadata must follow id order.
        let mut b = TraceBuilder::new("meta");
        b.push(ThreadId(3), Category::ChunkCompute, Cycles(0), Cycles(5), 1);
        b.push(ThreadId(1), Category::Setup, Cycles(0), Cycles(2), 1);
        let json = to_chrome_trace(&b.finish().unwrap());
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"name\":\"meta\""));
        let t1 = json
            .find("\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":1")
            .unwrap();
        let t3 = json
            .find("\"thread_name\",\"ph\":\"M\",\"pid\":1,\"tid\":3")
            .unwrap();
        assert!(t1 < t3, "thread metadata must be in ascending tid order");
        assert_eq!(json.matches("\"thread_sort_index\"").count(), 2);
        assert!(json.contains("\"sort_index\":1"));
        assert!(json.contains("\"sort_index\":3"));
        // Metadata precedes the first span event.
        assert!(t3 < json.find("\"ph\":\"X\"").unwrap());
    }

    #[test]
    fn named_threads_override_the_default_labels() {
        let mut b = TraceBuilder::new("named");
        b.push(ThreadId(0), Category::ChunkCompute, Cycles(0), Cycles(5), 1);
        b.push(ThreadId(1), Category::Sync, Cycles(0), Cycles(1), 0);
        b.push(ThreadId(2), Category::Commit, Cycles(0), Cycles(1), 0);
        let t = b.finish().unwrap();
        let names = vec![
            (0, "stats-pool-0".to_string()),
            (2, "coordinator".to_string()),
        ];
        let json = to_chrome_trace_with_names(&t, &names);
        assert!(json.contains("\"name\":\"stats-pool-0\""));
        assert!(json.contains("\"name\":\"coordinator\""));
        // Unnamed threads keep the numeric fallback.
        assert!(json.contains("\"name\":\"thread 1\""));
        // Hostile names are escaped like every other string.
        let hostile = vec![(0, "a\"b\\c".to_string())];
        let json = to_chrome_trace_with_names(&t, &hostile);
        assert!(json.contains("a\\\"b\\\\c"));
    }

    #[test]
    fn json_escape_handles_quotes_backslashes_and_every_control_character() {
        assert_eq!(json_escape("a\"b"), "a\\\"b");
        assert_eq!(json_escape("a\\b"), "a\\\\b");
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        // The named shorthands.
        assert_eq!(json_escape("\n\r\t"), "\\n\\r\\t");
        assert_eq!(json_escape("a\nb\tc\r"), "a\\nb\\tc\\r");
        // Everything else below 0x20 becomes a \u escape.
        assert_eq!(json_escape("\u{0}"), "\\u0000");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("\u{1b}"), "\\u001b");
        assert_eq!(json_escape("\u{1f}"), "\\u001f");
        assert_eq!(json_escape("\u{1}\u{1f}"), "\\u0001\\u001f");
        for raw in 0u32..0x20 {
            let c = char::from_u32(raw).unwrap();
            let esc = json_escape(&c.to_string());
            assert!(esc.is_ascii(), "U+{raw:04X} escaped to non-ASCII {esc:?}");
            assert!(
                !esc.chars().any(|c| (c as u32) < 0x20),
                "U+{raw:04X} left a raw control char in {esc:?}"
            );
        }
        // 0x20 itself (space) and DEL pass through: JSON only requires
        // escaping below 0x20.
        assert_eq!(json_escape(" \u{7f}"), " \u{7f}");
    }

    #[test]
    fn json_escape_preserves_backslash_runs_and_unicode() {
        // Each backslash doubles; a run of four becomes eight.
        assert_eq!(json_escape("\\\\\\\\"), "\\\\\\\\\\\\\\\\");
        // Escaping the escaped form doubles the backslashes again rather
        // than corrupting them: one becomes two becomes four.
        assert_eq!(json_escape(&json_escape("a\\b")), "a\\\\\\\\b");
        // Multibyte characters pass through untouched — JSON strings are
        // UTF-8, no \u escaping needed above 0x1F.
        assert_eq!(json_escape("état 漢字 🎯"), "état 漢字 🎯");
        assert_eq!(json_escape("λ→中"), "λ→中");
        // Mixed hostile input stays one logical line.
        let esc = json_escape("a\"b\\c\nd\u{7}e");
        assert_eq!(esc, "a\\\"b\\\\c\\nd\\u0007e");
    }

    #[test]
    fn hostile_label_roundtrips_through_a_full_export() {
        let mut b = TraceBuilder::new("esc2");
        b.push_labeled(
            ThreadId(0),
            Category::Commit,
            Cycles(0),
            Cycles(2),
            0,
            "ctrl \u{1} quote \" slash \\ tab \t",
        );
        let json = to_chrome_trace(&b.finish().unwrap());
        // No raw control characters survive anywhere in the document.
        assert!(
            !json.chars().any(|c| (c as u32) < 0x20 && c != '\n'),
            "raw control char leaked into {json:?}"
        );
        // Quotes inside every emitted string stay escaped: each line is
        // still a single brace-balanced object.
        for line in json.lines().filter(|l| l.contains("{")) {
            assert_eq!(line.matches('{').count(), line.matches('}').count());
        }
    }
}
