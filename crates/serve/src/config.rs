//! Shared CLI flag parsing for `dominod` and `dominogw`.
//!
//! Both binaries grew hand-rolled `while let Some(arg) = iter.next()`
//! loops with duplicated value/integer/bounds handling, and every new
//! flag had to be added (and help-texted) twice. This module replaces
//! them with a declarative [`ArgTable`]: each flag is declared once —
//! name, metavar, help line — and both the parser and the generated
//! `--help` options block come from the same declaration, so the two
//! binaries' flag surfaces and error text cannot drift.
//!
//! The connection-limit flags shared by both servers (`--idle-ms`,
//! `--max-requests`, `--max-connections`) are declared by
//! [`connection_flags`] and read into one [`FrontConfig`] by
//! [`FrontConfig::from_args`].

use crate::front::FrontConfig;

/// One declared flag: `--name <metavar>  help`.
#[derive(Debug, Clone, Copy)]
struct FlagSpec {
    name: &'static str,
    metavar: &'static str,
    help: &'static str,
    /// Documented in `--help` but not accepted by [`ArgTable::parse`] —
    /// for flags consumed earlier (the failpoint flags are stripped by
    /// `domino_failpoint::take_cli_args` before config parsing).
    doc_only: bool,
}

/// A declarative flag table: declare flags once, then [`ArgTable::parse`]
/// raw args into a [`ParsedArgs`] bag and render the aligned `--help`
/// options block with [`ArgTable::options_help`].
#[derive(Debug, Clone)]
pub struct ArgTable {
    context: &'static str,
    flags: Vec<FlagSpec>,
}

impl ArgTable {
    /// An empty table; `context` names the binary in error text
    /// (`unknown server option '--x'`).
    pub fn new(context: &'static str) -> ArgTable {
        ArgTable {
            context,
            flags: Vec::new(),
        }
    }

    /// Declares one value-taking flag.
    #[must_use]
    pub fn flag(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec {
            name,
            metavar,
            help,
            doc_only: false,
        });
        self
    }

    /// Declares a help-only entry: rendered in the options block, but
    /// rejected by the parser (it is consumed before config parsing).
    #[must_use]
    pub fn doc(mut self, name: &'static str, metavar: &'static str, help: &'static str) -> Self {
        self.flags.push(FlagSpec {
            name,
            metavar,
            help,
            doc_only: true,
        });
        self
    }

    /// Parses `args` against the table. Every flag takes exactly one
    /// value; repeated flags accumulate in declaration order.
    ///
    /// # Errors
    ///
    /// `"{flag} needs a value"` for a flag at the end of the args,
    /// `"unknown {context} option '{arg}'"` for anything undeclared.
    pub fn parse(&self, args: &[String]) -> Result<ParsedArgs, String> {
        let mut values: Vec<(&'static str, String)> = Vec::new();
        let mut iter = args.iter();
        while let Some(arg) = iter.next() {
            let Some(spec) = self
                .flags
                .iter()
                .find(|f| !f.doc_only && f.name == arg.as_str())
            else {
                return Err(format!("unknown {} option '{arg}'", self.context));
            };
            let value = iter
                .next()
                .cloned()
                .ok_or_else(|| format!("{} needs a value", spec.name))?;
            values.push((spec.name, value));
        }
        Ok(ParsedArgs { values })
    }

    /// The aligned options block for `--help` (no trailing newline).
    /// Multi-line help strings continue at the help column.
    pub fn options_help(&self) -> String {
        let width = self
            .flags
            .iter()
            .map(|f| f.name.len() + 1 + f.metavar.len())
            .max()
            .unwrap_or(0);
        let mut out = String::new();
        for f in &self.flags {
            for (i, line) in f.help.lines().enumerate() {
                if i == 0 {
                    let head = format!("{} {}", f.name, f.metavar);
                    out.push_str(&format!("  {head:width$}  {line}\n"));
                } else {
                    out.push_str(&format!("  {:width$}  {line}\n", ""));
                }
            }
        }
        out.pop();
        out
    }
}

/// The values [`ArgTable::parse`] extracted, with typed accessors that
/// keep error text consistent across both binaries.
#[derive(Debug)]
pub struct ParsedArgs {
    values: Vec<(&'static str, String)>,
}

impl ParsedArgs {
    /// The last occurrence of `name` (flags repeat; last wins), if any.
    pub fn last(&self, name: &str) -> Option<&str> {
        self.values
            .iter()
            .rev()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }

    /// Every occurrence of `name`, in order (for repeatable flags like
    /// `--backend`).
    pub fn all(&self, name: &str) -> Vec<String> {
        self.values
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|(_, v)| v.clone())
            .collect()
    }

    /// Overwrites `target` with the flag's value when present.
    pub fn set_string(&self, name: &str, target: &mut String) {
        if let Some(v) = self.last(name) {
            *target = v.to_string();
        }
    }

    /// Parses the flag's value as an integer when present.
    ///
    /// # Errors
    ///
    /// `"{name} needs an integer"` when the value does not parse.
    pub fn integer<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String> {
        match self.last(name) {
            None => Ok(None),
            Some(v) => v
                .parse()
                .map(Some)
                .map_err(|_| format!("{name} needs an integer")),
        }
    }

    /// Overwrites `target` with the flag's integer value when present.
    ///
    /// # Errors
    ///
    /// `"{name} needs an integer"` when the value does not parse.
    pub fn set_integer<T: std::str::FromStr>(
        &self,
        name: &str,
        target: &mut T,
    ) -> Result<(), String> {
        if let Some(v) = self.integer(name)? {
            *target = v;
        }
        Ok(())
    }

    /// Like [`ParsedArgs::set_integer`], but rejects zero — for limits
    /// where 0 would mean "never" by accident.
    ///
    /// # Errors
    ///
    /// `"{name} needs an integer"` / `"{name} must be at least 1"`.
    pub fn set_integer_at_least_one<T: std::str::FromStr + PartialEq + From<u8>>(
        &self,
        name: &str,
        target: &mut T,
    ) -> Result<(), String> {
        if let Some(v) = self.integer::<T>(name)? {
            if v == T::from(0u8) {
                return Err(format!("{name} must be at least 1"));
            }
            *target = v;
        }
        Ok(())
    }
}

/// Default cap on concurrently open connections per server (the reactor
/// answers accepts beyond it with `503` and an immediate close).
pub const DEFAULT_MAX_CONNECTIONS: usize = 10_240;

/// Declares the connection-limit flags shared by `dominod` and
/// `dominogw` — one declaration, both binaries.
#[must_use]
pub fn connection_flags(table: ArgTable) -> ArgTable {
    table
        .flag("--idle-ms", "<n>", "per-connection idle timeout [10000]")
        .flag(
            "--max-requests",
            "<n>",
            "requests per connection before close [1024]",
        )
        .flag(
            "--max-connections",
            "<n>",
            "open connections before 503 [10240]",
        )
}

impl FrontConfig {
    /// The [`connection_flags`] values over the defaults.
    ///
    /// # Errors
    ///
    /// The shared integer/bounds error text (see [`ParsedArgs`]).
    pub fn from_args(parsed: &ParsedArgs) -> Result<FrontConfig, String> {
        let mut front = FrontConfig::default();
        parsed.set_integer_at_least_one("--idle-ms", &mut front.idle_timeout_ms)?;
        parsed.set_integer("--max-requests", &mut front.max_requests_per_connection)?;
        parsed.set_integer_at_least_one("--max-connections", &mut front.max_connections)?;
        Ok(front)
    }
}

/// Declares the failpoint flags as help-only entries (they are consumed
/// by `domino_failpoint::take_cli_args` before config parsing).
#[must_use]
pub fn failpoint_docs(table: ArgTable) -> ArgTable {
    table
        .doc(
            "--failpoints",
            "<spec>",
            "fault-injection schedule (site=mode,...; also via\nDOMINO_FAILPOINTS), modes off|once|every(n)|after(n)",
        )
        .doc(
            "--failpoint-seed",
            "<n>",
            "failpoint schedule seed (also DOMINO_FAILPOINT_SEED) [0]",
        )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parse_collects_repeats_and_rejects_unknown() {
        let table = ArgTable::new("test")
            .flag("--addr", "<host:port>", "bind")
            .flag("--backend", "<host:port>", "backend");
        let parsed = table
            .parse(&args(&["--backend", "a", "--addr", "x", "--backend", "b"]))
            .expect("valid");
        assert_eq!(parsed.last("--addr"), Some("x"));
        assert_eq!(parsed.all("--backend"), vec!["a", "b"]);

        let err = table.parse(&args(&["--nope"])).unwrap_err();
        assert_eq!(err, "unknown test option '--nope'");
        let err = table.parse(&args(&["--addr"])).unwrap_err();
        assert_eq!(err, "--addr needs a value");
    }

    #[test]
    fn typed_accessors_share_error_text() {
        let table = ArgTable::new("test").flag("--n", "<n>", "count");
        let parsed = table.parse(&args(&["--n", "xyz"])).expect("parses");
        assert_eq!(
            parsed.integer::<u64>("--n").unwrap_err(),
            "--n needs an integer"
        );
        let parsed = table.parse(&args(&["--n", "0"])).expect("parses");
        let mut target: u64 = 7;
        assert_eq!(
            parsed
                .set_integer_at_least_one("--n", &mut target)
                .unwrap_err(),
            "--n must be at least 1"
        );
        assert_eq!(target, 7, "rejected value leaves the default");
        let parsed = table.parse(&args(&["--n", "5"])).expect("parses");
        parsed
            .set_integer_at_least_one("--n", &mut target)
            .expect("ok");
        assert_eq!(target, 5);
    }

    #[test]
    fn last_occurrence_wins() {
        let table = ArgTable::new("test").flag("--addr", "<a>", "bind");
        let parsed = table
            .parse(&args(&["--addr", "first", "--addr", "second"]))
            .expect("valid");
        assert_eq!(parsed.last("--addr"), Some("second"));
    }

    #[test]
    fn options_help_aligns_and_wraps() {
        let table = failpoint_docs(connection_flags(ArgTable::new("test")));
        let help = table.options_help();
        assert!(help.contains("--idle-ms <n>"));
        assert!(help.contains("--max-connections <n>"));
        assert!(help.contains("--failpoints <spec>"));
        // The failpoint continuation line is indented to the help column.
        assert!(help
            .lines()
            .any(|l| l.trim_start().starts_with("DOMINO_FAILPOINTS") && l.starts_with("     ")));
        // Doc-only flags are rejected by the parser.
        assert!(table.parse(&args(&["--failpoints", "x"])).is_err());
    }
}
