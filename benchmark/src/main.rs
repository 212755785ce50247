//! The repo benchmark: one workload per process, every metric by name,
//! every run checked. See `README.md` beside this crate.

mod adapter;
mod expected;
mod harness;
mod host;
mod json;
mod metrics;
mod micro;
mod report;
mod spans;
mod stats;
mod workloads;

use harness::{Case, Measured, Options, SelfTest};
use std::path::PathBuf;
use std::process::ExitCode;

/// The repo's `FIGURE_SEED`; the expected files are recorded at it.
const DEFAULT_SEED: u64 = 0x5747_5175;

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "\
usage: stats-benchmark --workload NAME [--seed N] [--seconds N] [--trace 0|1]
                       [--workers N] [--self-test] [--write-expected]
       stats-benchmark --compare A.json B.json

  --workload NAME    compute-bound | protocol-bound | recovery-path | simulated-path
  --seed N           inputs and master seed (default 0x57475175; 0x.. or decimal)
  --seconds N        how long to measure (default 20)
  --trace 0|1        0: untraced pairs only, the last line carries the end-to-end
                     metrics; 1 (default): also the traced pass and the per-layer
                     measurements, the last line carries the per-layer metrics
  --workers N        pool width (default and maximum: the host's cores)
  --self-test        show that the reference check can fail
  --write-expected   record expected/<workload>.json (default seed, --trace 1)
  --compare A B      one row per workload x end-to-end metric, B against A;
                     exits 1 on a `worse` row or a differing exact metric";

struct Args {
    workload: String,
    opts: Options,
    self_test: bool,
    write_expected: bool,
}

enum Command {
    Run(Args),
    Compare(String, String),
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x").or_else(|| s.strip_prefix("0X")) {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(args: &[String]) -> Result<Command, String> {
    let mut workload = None;
    let mut opts = Options {
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: true,
        workers: host::nproc(),
        min_pairs: 30,
        setups: 3,
    };
    let (mut self_test, mut write_expected) = (false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .map(String::as_str)
                .ok_or_else(|| format!("{flag} needs a value"))
        };
        let bad = |v: &str| format!("{flag}: cannot read {v:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value()?.to_string()),
            "--seed" => {
                let v = value()?;
                opts.seed = parse_u64(v).ok_or_else(|| bad(v))?;
            }
            "--seconds" => {
                let v = value()?;
                opts.seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or_else(|| bad(v))?;
            }
            "--trace" => {
                opts.trace = match value()? {
                    "0" => false,
                    "1" => true,
                    v => return Err(bad(v)),
                }
            }
            "--workers" => {
                let v = value()?;
                opts.workers = v.parse().ok().filter(|w| *w >= 1).ok_or_else(|| bad(v))?;
            }
            "--self-test" => self_test = true,
            "--write-expected" => write_expected = true,
            "--compare" => {
                let a = value()?.to_string();
                return Ok(Command::Compare(a, value()?.to_string()));
            }
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    // More workers than cores measures the host's scheduler, not the pool.
    if opts.workers > host::nproc() {
        return Err(format!(
            "--workers {} exceeds the host's {} core(s)",
            opts.workers,
            host::nproc()
        ));
    }
    let workload = workload.ok_or("no --workload given")?;
    if !workloads::NAMES.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?}; one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    if write_expected && !(opts.trace && opts.seed == DEFAULT_SEED) {
        return Err("--write-expected needs the default seed and --trace 1".into());
    }
    Ok(Command::Run(Args {
        workload,
        opts,
        self_test,
        write_expected,
    }))
}

struct Measure<'a>(&'a Options);

impl workloads::Visitor for Measure<'_> {
    type Out = Result<Measured, String>;
    fn visit<W: adapter::Workload>(self, w: &W, case: Case) -> Self::Out
    where
        W::Output: PartialEq + Clone,
    {
        harness::measure(w, case, self.0)
    }
}

struct RunSelfTest<'a>(&'a Options);

impl workloads::Visitor for RunSelfTest<'_> {
    type Out = SelfTest;
    fn visit<W: adapter::Workload>(self, w: &W, case: Case) -> SelfTest
    where
        W::Output: PartialEq + Clone,
    {
        harness::self_test(w, case, self.0)
    }
}

fn benchmark_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

fn write(path: PathBuf, text: &str) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(&path, format!("{text}\n")).map_err(|e| format!("{}: {e}", path.display()))
}

fn self_test(args: &Args) -> ExitCode {
    let t = workloads::dispatch(&args.workload, RunSelfTest(&args.opts)).expect("a known workload");
    println!("self-test {}", args.workload);
    println!("  pristine reference accepted   {}", t.pristine_ok);
    println!(
        "  corrupted decision rejected   {}",
        t.corrupt_decision_caught
    );
    println!(
        "  corrupted output rejected     {}",
        t.corrupt_output_caught
    );
    println!("  failed_share                  {:.4}", t.failed_share());
    if t.passed() {
        println!("the reference check can fail");
        ExitCode::SUCCESS
    } else {
        println!("the reference check did not behave as it must");
        ExitCode::FAILURE
    }
}

fn run(args: &Args) -> Result<bool, String> {
    let (name, opts) = (args.workload.as_str(), &args.opts);
    let stamp = host::stamp();
    eprintln!(
        "{name}: seed {:#x}, {} s, {} worker(s) of {} core(s), {}, {}, commit {}",
        opts.seed, opts.seconds, opts.workers, stamp.nproc, stamp.kernel, stamp.rustc, stamp.commit
    );
    let measured = workloads::dispatch(name, Measure(opts)).expect("a known workload")?;
    if !measured.pinned {
        eprintln!(
            "{name}: the kernel refused to pin a thread; these numbers are of an unpinned run"
        );
    }

    let mut correct = measured.failed == 0;
    if args.write_expected {
        let path = benchmark_dir()
            .join("expected")
            .join(format!("{name}.json"));
        write(path, &measured.observed.to_json(name, opts.seed))?;
    } else if opts.seed == DEFAULT_SEED {
        let expected = workloads::expected(name).expect("a known workload");
        for diff in measured.observed.differences(expected) {
            eprintln!("differs from expected/{name}.json: {diff}");
            correct = false;
        }
    }

    print!("{}", report::table(&measured));
    let out = benchmark_dir().join("out");
    write(
        out.join(format!("{name}.json")),
        &report::result_file(name, opts, &stamp, &measured, correct),
    )?;
    if opts.trace {
        write(
            out.join(format!("{name}.trace.json")),
            &report::span_file(name, opts.seed, &measured.tracer),
        )?;
    }
    println!("{}", report::last_line(&measured, correct, opts.trace));
    Ok(correct)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return ExitCode::from(if args.is_empty() { 2 } else { 0 });
    }
    match parse_args(&args) {
        Err(e) => {
            eprintln!("{e}\n\n{USAGE}");
            ExitCode::from(2)
        }
        Ok(Command::Compare(a, b)) => match report::compare(&a, &b) {
            Ok(c) => {
                print!("{}", c.text);
                ExitCode::from(u8::from(c.regressed))
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::from(2)
            }
        },
        Ok(Command::Run(args)) if args.self_test => self_test(&args),
        Ok(Command::Run(args)) => match run(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn the_driver_s_arguments_are_understood() {
        let args = [
            "--workload",
            "recovery-path",
            "--seed",
            "0x2a",
            "--seconds",
            "7",
            "--trace",
            "0",
        ];
        let Ok(Command::Run(a)) = parse(&args) else {
            panic!("not a run");
        };
        assert_eq!((a.workload.as_str(), a.opts.seed), ("recovery-path", 42));
        assert_eq!((a.opts.seconds, a.opts.trace), (7.0, false));
        assert_eq!(a.opts.workers, host::nproc());
    }

    #[test]
    fn input_from_outside_is_valid_or_rejected_with_a_message() {
        let too_wide = (host::nproc() + 1).to_string();
        for bad in [
            vec!["--workload", "no-such"],
            vec!["--seed", "1"],
            vec!["--workload", "compute-bound", "--workers", &too_wide],
            vec!["--workload", "compute-bound", "--workers", "0"],
            vec!["--workload", "compute-bound", "--seconds", "-1"],
            vec!["--workload", "compute-bound", "--trace", "2"],
            vec!["--workload", "compute-bound", "--seed"],
            vec![
                "--workload",
                "compute-bound",
                "--write-expected",
                "--seed",
                "5",
            ],
            vec!["--frobnicate"],
        ] {
            assert!(parse(&bad).is_err(), "{bad:?} was accepted");
        }
        assert!(matches!(
            parse(&["--compare", "a.json", "b.json"]),
            Ok(Command::Compare(..))
        ));
    }
}
