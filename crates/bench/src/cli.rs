//! Command-line handling for the `paper` binary.
//!
//! Every mode speaks the same small dialect — `--flag value` options,
//! positional benchmark filters, `--help` — through this one
//! implementation, so a typo never dies with a panic and a backtrace:
//! a bad invocation prints what was wrong and the usage text to stderr
//! and exits with status 2 (the conventional "usage error" code);
//! `--help` prints the usage to stdout and exits 0.
//!
//! ```no_run
//! use std::time::Duration;
//!
//! let mut cli = cgra_bench::cli::Cli::new(
//!     "paper table2 [--time-limit <seconds>] [benchmark ...]",
//! );
//! if cli.next_arg().as_deref() != Some("table2") {
//!     cli.fail("expected the table2 mode");
//! }
//! let mut time_limit = Duration::from_secs(60);
//! let mut filter: Vec<String> = Vec::new();
//! while let Some(arg) = cli.next_arg() {
//!     match arg.as_str() {
//!         "--time-limit" => time_limit = cli.seconds("--time-limit"),
//!         name => filter.push(cli.benchmark_name(name)),
//!     }
//! }
//! ```

use std::fmt::Display;
use std::str::FromStr;
use std::time::Duration;

/// Argument cursor for one invocation. See the module docs.
#[derive(Debug)]
pub struct Cli {
    program: String,
    usage: String,
    args: std::vec::IntoIter<String>,
}

impl Cli {
    /// Captures `std::env::args()`. If `--help` or `-h` appears
    /// anywhere, prints `usage` and exits 0.
    pub fn new(usage: &str) -> Cli {
        let mut all = std::env::args();
        let program = all
            .next()
            .as_deref()
            .map(|p| p.rsplit('/').next().unwrap_or(p).to_owned())
            .unwrap_or_else(|| "bench".to_owned());
        let args: Vec<String> = all.collect();
        if args.iter().any(|a| a == "--help" || a == "-h") {
            println!("usage: {usage}");
            std::process::exit(0);
        }
        Cli {
            program,
            usage: usage.to_owned(),
            args: args.into_iter(),
        }
    }

    /// The next raw argument, if any.
    pub fn next_arg(&mut self) -> Option<String> {
        self.args.next()
    }

    /// The value following `flag`, parsed as `T`. Exits with a usage
    /// error naming the flag when the value is missing or malformed.
    pub fn value<T>(&mut self, flag: &str, what: &str) -> T
    where
        T: FromStr,
        T::Err: Display,
    {
        let Some(raw) = self.args.next() else {
            self.fail(&format!("{flag} requires {what}"));
        };
        match raw.parse() {
            Ok(v) => v,
            Err(e) => self.fail(&format!("{flag} requires {what}, got {raw:?}: {e}")),
        }
    }

    /// The value following `flag` as a whole-second [`Duration`].
    pub fn seconds(&mut self, flag: &str) -> Duration {
        Duration::from_secs(self.value(flag, "a number of seconds"))
    }

    /// Validates a positional argument as a known benchmark name,
    /// listing the valid names on failure (a typo in a 19-name matrix
    /// filter should not cost a full re-run to diagnose).
    pub fn benchmark_name(&self, name: &str) -> String {
        if name.starts_with('-') {
            self.fail(&format!("unknown option {name}"));
        }
        if cgra_dfg::benchmarks::by_name(name).is_none() {
            let known: Vec<&str> = cgra_dfg::benchmarks::all().iter().map(|e| e.name).collect();
            self.fail(&format!(
                "unknown benchmark {name:?}; known: {}",
                known.join(", ")
            ));
        }
        name.to_owned()
    }

    /// Prints `message` and the usage line to stderr, exits 2.
    pub fn fail(&self, message: &str) -> ! {
        eprintln!("{}: {message}", self.program);
        eprintln!("usage: {}", self.usage);
        std::process::exit(2);
    }
}
