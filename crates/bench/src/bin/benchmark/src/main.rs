//! The repository's benchmark (see README.md beside this package and
//! BENCHMARK.json at the repository root).
//!
//! `benchmark --workload <name> [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! [--spans <file>] [--quick]` measures one workload in this process,
//! prints every metric as `<workload> <metric> <value> <unit>`, and ends
//! with one JSON line: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics (`--trace 0`) or the per-layer metrics
//! (`--trace 1`). Without `--workload` it runs every workload in a child
//! process of its own, so `peak_rss_mb` is per workload, and checks that
//! the three SmartCrawl-B workloads agree. The exit code is non-zero when
//! a check fails.

mod host;
mod stats;
mod timed;
mod trace;
mod workload;

use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use workload::{measure, Metric, Options, Workload};

const USAGE: &str =
    "usage: benchmark [--workload smartb-ram|smartb-disk|smartb-pipelined|sweep-flaky] \
                     [--seed N] [--seconds S] [--trace 0|1] [--spans FILE] [--quick]";

#[derive(Debug)]
struct Args {
    workload: Option<Workload>,
    opts: Options,
    /// Where a traced run writes its spans as NDJSON.
    spans: Option<PathBuf>,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut out = Args {
        workload: None,
        opts: Options {
            seed: 42,
            seconds: 15.0,
            traced: false,
            quick: false,
        },
        spans: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                out.workload = Some(
                    Workload::from_name(&name)
                        .ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => out.opts.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err(format!("--seconds must be a non-negative number, got {s}"));
                }
                out.opts.seconds = s;
            }
            "--trace" => {
                out.opts.traced = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, got {other:?}")),
                }
            }
            "--spans" => {
                out.spans = Some(value()?.into());
                out.opts.traced = true;
            }
            "--quick" => out.opts.quick = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if out.opts.quick {
        out.opts.seconds = 0.0;
    }
    Ok(out)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("benchmark: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        Some(workload) => run_workload(workload, &args),
        None => run_all(&args),
    }
}

/// The benchmark must read and write only inside the directory it runs
/// from, and store runtimes put their files under
/// `std::env::temp_dir()`, `/tmp` by default. Pointing `TMPDIR` at
/// `.bench_tmp/<pid>` under the working directory keeps their files
/// there; each runtime still removes its own files, and this removes the
/// directory it made when the run ends.
struct ScratchDir(PathBuf);

impl ScratchDir {
    fn enter() -> std::io::Result<Self> {
        let dir = std::env::current_dir()?
            .join(".bench_tmp")
            .join(std::process::id().to_string());
        std::fs::create_dir_all(&dir)?;
        // Still single-threaded here: no other thread reads the environment.
        std::env::set_var("TMPDIR", &dir);
        Ok(Self(dir))
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
        if let Some(parent) = self.0.parent() {
            // Only succeeds once no other run is using it.
            let _ = std::fs::remove_dir(parent);
        }
    }
}

fn run_workload(workload: Workload, args: &Args) -> ExitCode {
    let name = workload.name();
    let report = match ScratchDir::enter() {
        Ok(_scratch) => measure(workload, &args.opts),
        Err(e) => Err(format!("scratch directory: {e}")),
    };
    let report = match report {
        Ok(report) => report,
        Err(e) => {
            eprintln!("benchmark: {name}: {e}");
            return ExitCode::FAILURE;
        }
    };
    for m in report.end_to_end.iter().chain(&report.per_layer) {
        println!("{name} {} {} {}", m.name, m.value, m.unit);
    }
    println!("{name} digest {:#018x}", report.digest);
    let mut failed_checks = report.failed_checks;
    if let (Some(path), Some(trace)) = (&args.spans, &report.trace) {
        let written = std::fs::File::create(path)
            .and_then(|f| trace.write_ndjson(std::io::BufWriter::new(f)));
        if let Err(e) = written {
            failed_checks.push(format!("spans-written: {}: {e}", path.display()));
        }
    }
    for c in &failed_checks {
        eprintln!("benchmark: {name}: check failed: {c}");
    }
    let metrics = if args.opts.traced {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        result_json(
            failed_checks.is_empty(),
            report.attempted,
            report.failed,
            metrics
        )
    );
    if failed_checks.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn result_json(correct: bool, attempted: usize, failed: usize, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

/// Runs every workload in a child process (this executable again, with
/// `--workload`), relays its output, and checks that the SmartCrawl-B
/// workloads produced one digest and one coverage.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("benchmark: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut ok = true;
    let mut smartb: Vec<(&str, String, String)> = Vec::new();
    for workload in Workload::ALL {
        let name = workload.name();
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name])
            .args(["--seed", &args.opts.seed.to_string()])
            .args(["--seconds", &args.opts.seconds.to_string()])
            .args(["--trace", if args.opts.traced { "1" } else { "0" }])
            .stderr(Stdio::inherit());
        if args.opts.quick {
            cmd.arg("--quick");
        }
        if let Some(path) = &args.spans {
            cmd.arg("--spans").arg(format!("{}.{name}", path.display()));
        }
        let out = match cmd.output() {
            Ok(out) => out,
            Err(e) => {
                eprintln!("benchmark: {name}: cannot start: {e}");
                ok = false;
                continue;
            }
        };
        let stdout = String::from_utf8_lossy(&out.stdout);
        print!("{stdout}");
        ok &= out.status.success();
        if name.starts_with("smartb-") {
            let field = |metric: &str| {
                stdout
                    .lines()
                    .map(|l| l.split_whitespace().collect::<Vec<_>>())
                    .find(|f| f.len() >= 3 && f[0] == name && f[1] == metric)
                    .map_or_else(String::new, |f| f[2].to_owned())
            };
            smartb.push((name, field("digest"), field("coverage")));
        }
    }
    let agree = smartb
        .windows(2)
        .all(|w| w[0].1 == w[1].1 && w[0].2 == w[1].2);
    if !agree || smartb.iter().any(|(_, d, c)| d.is_empty() || c.is_empty()) {
        eprintln!("benchmark: check failed: smartb-workloads-agree: (workload, digest, coverage) {smartb:?}");
        ok = false;
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `(name, unit)` of every entry in one metric list of BENCHMARK.json.
    fn declared(list: &str) -> Vec<(String, String)> {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../../../../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("read BENCHMARK.json");
        let start = json.find(&format!("\"{list}\"")).expect("list present");
        let open = start + json[start..].find('[').expect("list opens");
        let close = open + json[open..].find(']').expect("list closes");
        let field = |entry: &str, key: &str| {
            let at = entry.find(&format!("\"{key}\"")).expect("key present") + key.len() + 2;
            let rest = &entry[at..];
            let from = rest.find('"').expect("value opens") + 1;
            let to = from + rest[from..].find('"').expect("value closes");
            rest[from..to].to_owned()
        };
        json[open..close]
            .split('{')
            .skip(1)
            .map(|entry| (field(entry, "name"), field(entry, "unit")))
            .collect()
    }

    fn printed(metrics: &[Metric]) -> Vec<(String, String)> {
        metrics
            .iter()
            .map(|m| (m.name.to_owned(), m.unit.to_owned()))
            .collect()
    }

    /// The `--quick` run of every workload passes every check, prints
    /// exactly the metrics BENCHMARK.json declares, and the SmartCrawl-B
    /// workloads agree.
    #[test]
    fn quick_runs_pass_every_check_and_print_the_declared_metrics() {
        let opts = Options {
            seed: 42,
            seconds: 0.0,
            traced: true,
            quick: true,
        };
        let mut smartb = Vec::new();
        for workload in Workload::ALL {
            let report = measure(workload, &opts).expect("quick run");
            assert!(
                report.failed_checks.is_empty(),
                "{}: {:?}",
                workload.name(),
                report.failed_checks
            );
            assert_eq!(report.failed, 0);
            assert_eq!(printed(&report.end_to_end), declared("end_to_end"));
            assert_eq!(printed(&report.per_layer), declared("per_layer"));
            if workload.name().starts_with("smartb-") {
                let coverage = report
                    .end_to_end
                    .iter()
                    .find(|m| m.name == "coverage")
                    .map(|m| m.value);
                smartb.push((report.digest, coverage));
            }
        }
        assert_eq!(smartb.len(), 3);
        assert!(smartb.windows(2).all(|w| w[0] == w[1]), "{smartb:?}");
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_owned));
        let args = parse("--workload sweep-flaky --seed 7 --seconds 3 --trace 1").expect("valid");
        assert_eq!(args.workload, Some(Workload::SweepFlaky));
        assert_eq!(
            (args.opts.seed, args.opts.seconds, args.opts.traced),
            (7, 3.0, true)
        );
        assert!(parse("--workload nope").is_err());
        assert!(parse("--trace 2").is_err());
        assert!(parse("--seconds -1").is_err());
        assert!(parse("--seed").is_err());
        assert!(parse("--bogus").is_err());
        assert_eq!(
            parse("--quick --seconds 9").expect("valid").opts.seconds,
            0.0
        );
    }

    #[test]
    fn result_line_is_the_contract_json() {
        let m = [Metric {
            name: "crawl_s",
            value: 1.25,
            unit: "s",
        }];
        assert_eq!(
            result_json(true, 3, 0, &m),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"crawl_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
