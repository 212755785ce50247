//! Property tests: every JSON surface stays valid for arbitrary inputs,
//! and counter aggregation is exact for arbitrary recording schedules.

use proptest::prelude::*;
use stats_telemetry::json::{validate, JsonObject};
use stats_telemetry::{Counter, Event, TelemetrySink, COUNTERS};
use stats_trace::chrome::json_escape;

/// Characters that stress JSON escaping, mixed with arbitrary code points.
const HOSTILE: &[char] = &[
    '"', '\\', '\n', '\r', '\t', '\u{0}', '\u{1}', '\u{1f}', '\u{7f}', 'λ', '中', '😀', '/', '{',
    '}', '[', ']', ':', ',', ' ', '0',
];

/// Arbitrary strings biased toward escaping-hostile characters.
fn hostile_string() -> impl Strategy<Value = String> {
    proptest::collection::vec((any::<bool>(), any::<u32>()), 0..40).prop_map(|chars| {
        chars
            .into_iter()
            .map(|(pick_hostile, raw)| {
                if pick_hostile {
                    HOSTILE[raw as usize % HOSTILE.len()]
                } else {
                    char::from_u32(raw % 0x11_0000).unwrap_or('\u{fffd}')
                }
            })
            .collect()
    })
}

proptest! {
    #[test]
    fn escaped_strings_always_embed_validly(s in hostile_string()) {
        let line = format!("{{\"k\":\"{}\"}}", json_escape(&s));
        prop_assert!(validate(&line).is_ok(), "escape broke JSON for {:?}", s);
    }

    #[test]
    fn object_builder_output_always_validates(
        s in hostile_string(),
        n in any::<u64>(),
        f in any::<f64>(),
        b in any::<bool>(),
    ) {
        let mut o = JsonObject::new();
        o.str("s", &s).u64("n", n).f64("f", f).bool("b", b);
        let line = o.finish();
        prop_assert!(validate(&line).is_ok(), "builder broke JSON: {}", line);
    }

    #[test]
    fn event_lines_always_validate(
        benchmark in hostile_string(),
        seq in any::<u64>(),
        chunk in any::<usize>(),
    ) {
        for e in [
            Event::RunStarted {
                benchmark: benchmark.clone(),
                runtime: "threaded",
                inputs: chunk,
                chunks: 3,
                lookback: 1,
                extra_states: 1,
                seed: seq,
            },
            Event::ChunkStarted { chunk, len: chunk },
            Event::Diagnostic { message: benchmark.clone() },
        ] {
            let line = e.to_json_line(seq);
            prop_assert!(validate(&line).is_ok(), "event broke JSON: {}", line);
        }
    }

    #[test]
    fn snapshot_totals_match_recording_schedule(
        ops in proptest::collection::vec((0usize..8, 0usize..COUNTERS.len(), 0u64..1_000), 0..200),
        workers in 1usize..8,
    ) {
        let sink = TelemetrySink::new(workers);
        let mut expected = [0u64; COUNTERS.len()];
        for &(worker, counter, n) in &ops {
            sink.add(worker, COUNTERS[counter], n);
            expected[counter] += n;
        }
        let snap = sink.snapshot();
        prop_assert!(snap.consistent);
        for (i, &counter) in COUNTERS.iter().enumerate() {
            prop_assert_eq!(snap.get(counter), expected[i]);
        }
        prop_assert!(validate(&snap.to_json()).is_ok());
    }

    #[test]
    fn per_worker_rows_sum_to_totals(
        ops in proptest::collection::vec((0usize..6, 0u64..100), 0..100),
    ) {
        let sink = TelemetrySink::new(3);
        for &(worker, n) in &ops {
            sink.add(worker, Counter::StateComparisons, n);
        }
        let snap = sink.snapshot();
        let per_worker_sum: u64 = (0..snap.workers())
            .map(|w| snap.worker(w, Counter::StateComparisons))
            .sum();
        prop_assert_eq!(per_worker_sum, snap.get(Counter::StateComparisons));
    }
}
