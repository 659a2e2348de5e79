//! `perfbench` — the foldic end-to-end benchmark.
//!
//! ```text
//! perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//!           [--refs DIR] [--bless]
//! perfbench --list
//! ```
//!
//! Workloads: `chip-2d3d`, `fold-3d`, `paper-suite` (in-process flow
//! studies) and `serve-mix` (an open-loop schedule against a `repro serve`
//! daemon). `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` adds a traced pass and reports the per-layer metrics. The
//! last line of standard output is one JSON object with `correct`,
//! `attempted`, `failed` and `metrics`. See `perfbench/README.md`.

mod flow;
mod report;
mod serve;
mod trace;

use foldic_obs::json::Json;
use report::Outcome;
use std::path::PathBuf;

/// The study's default generation seed; the stored references are for it.
pub const DEFAULT_SEED: u64 = 0x0DAC_2014;

/// Worker threads of the flow workloads and the daemon (sized for a
/// 2-core machine).
const THREADS: usize = 2;

/// How many times set-up runs before the study; `setup_s` is the median
/// round.
pub const SETUP_ROUNDS: usize = 5;

const WORKLOADS: [&str; 4] = ["chip-2d3d", "fold-3d", "paper-suite", "serve-mix"];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Size {
    Tiny,
    Small,
}

impl Size {
    /// The design size a workload runs: chip and fold studies run the
    /// `small` design; the suite and the daemon's jobs run `tiny`.
    pub fn of(workload: &str) -> Self {
        match workload {
            "chip-2d3d" | "fold-3d" => Size::Small,
            _ => Size::Tiny,
        }
    }

    pub fn t2(self) -> foldic_t2::T2Config {
        match self {
            Size::Tiny => foldic_t2::T2Config::tiny(),
            Size::Small => foldic_t2::T2Config::small(),
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Size::Tiny => "tiny",
            Size::Small => "small",
        }
    }
}

/// Parsed command line.
pub struct Settings {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub traced: bool,
    pub size: Size,
    pub threads: usize,
    pub refs_dir: PathBuf,
    pub bless: bool,
}

impl Settings {
    /// Stored reference digests of this workload, size and seed.
    pub fn refs_path(&self, workload: &str) -> PathBuf {
        self.refs_dir.join(format!(
            "{workload}-{}-{:#x}.txt",
            self.size.name(),
            self.seed
        ))
    }
}

fn usage(msg: &str) -> ! {
    eprintln!(
        "{msg}\nusage: perfbench --workload {} [--seed N] [--seconds S] [--trace 0|1] \
         [--refs DIR] [--bless]\n       perfbench --list",
        WORKLOADS.join("|")
    );
    std::process::exit(2);
}

fn parse_seed(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_args() -> Settings {
    let mut args = std::env::args().skip(1);
    let mut workload = None;
    let mut seed = DEFAULT_SEED;
    let mut seconds = 15.0;
    let mut traced = false;
    let mut refs_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("refs");
    let mut bless = false;
    while let Some(flag) = args.next() {
        let mut value = |what: &str| {
            args.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs {what}")))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value("a workload name")),
            "--seed" => {
                let v = value("a number");
                seed = parse_seed(&v).unwrap_or_else(|| usage(&format!("bad seed `{v}`")));
            }
            "--seconds" => {
                let v = value("a number");
                seconds = v
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .unwrap_or_else(|| usage(&format!("bad --seconds `{v}`")));
            }
            "--trace" => {
                traced = match value("0 or 1").as_str() {
                    "0" => false,
                    "1" => true,
                    other => usage(&format!("--trace takes 0 or 1, got `{other}`")),
                }
            }
            "--refs" => refs_dir = PathBuf::from(value("a directory")),
            "--bless" => bless = true,
            "--list" => {
                list();
                std::process::exit(0);
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }
    let workload = workload.unwrap_or_else(|| usage("--workload is required"));
    if !WORKLOADS.contains(&workload.as_str()) {
        usage(&format!("unknown workload `{workload}`"));
    }
    Settings {
        size: Size::of(&workload),
        workload,
        seed,
        seconds,
        traced,
        threads: THREADS,
        refs_dir,
        bless,
    }
}

/// Prints every metric the benchmark can report, with its unit.
fn list() {
    println!("end-to-end (--trace 0, every workload):");
    for name in report::E2E_METRICS {
        println!("  {name:<28} {}", report::e2e_unit(name));
    }
    println!("per-layer (--trace 1, every workload):");
    for (name, unit) in report::LAYER_METRICS {
        println!("  {name:<28} {unit}");
    }
}

/// Root of the repository checkout the benchmark was built in.
pub fn repo_root() -> PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark lives one level below the repository root")
        .to_path_buf()
}

/// Commit of the code under test when the checkout is a git work tree
/// (a plain export reads "unknown"; git never looks above the checkout).
fn commit() -> String {
    let root = repo_root();
    if !root.join(".git").exists() {
        return "unknown".to_owned();
    }
    std::process::Command::new("git")
        .arg("-C")
        .arg(&root)
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

fn main() {
    let s = parse_args();
    let mut out = Outcome::default();
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    out.info("workload", Json::Str(s.workload.clone()));
    out.info("seed", Json::Str(format!("{:#x}", s.seed)));
    out.info("size", Json::Str(s.size.name().to_owned()));
    out.info("seconds", Json::Num(s.seconds));
    out.info("traced", Json::Bool(s.traced));
    out.info("nproc", Json::Num(nproc as f64));
    out.info("threads", Json::Num(s.threads as f64));
    out.info("commit", Json::Str(commit()));
    let run = serve::build_repro().and_then(|repro| match s.workload.as_str() {
        "chip-2d3d" => flow::chip_2d3d(&s, &mut out),
        "fold-3d" => flow::fold_3d(&s, &mut out),
        "paper-suite" => flow::paper_suite(&s, &mut out),
        "serve-mix" => serve::serve_mix(&s, &repro, &mut out),
        _ => unreachable!("workload validated by parse_args"),
    });
    if let Err(e) = run {
        eprintln!("perfbench: {} failed: {e}", s.workload);
        std::process::exit(1);
    }
    let missing: Vec<&str> = report::E2E_METRICS
        .into_iter()
        .filter(|name| !out.e2e.iter().any(|m| m.name == *name))
        .collect();
    if !missing.is_empty() {
        eprintln!("perfbench: {} reported no {missing:?}", s.workload);
        std::process::exit(1);
    }
    for f in out.failures.iter().take(20) {
        eprintln!("FAILED: {f}");
    }
    println!(
        "perfbench {} seed={:#x} size={} threads={} nproc={nproc}",
        s.workload,
        s.seed,
        s.size.name(),
        s.threads
    );
    print!("{}", report::table(&out, s.traced));
    println!("{}", report::record_line(&out, s.traced));
    println!("{}", report::result_line(&out, s.traced));
}
