//! Shared CLI plumbing for the workspace binaries (`tracectl`,
//! `sweepctl`, `sweepd`): typed errors with distinct, scriptable exit
//! codes.
//!
//! Earlier revisions exited `1` for everything, so CI could not tell a
//! typo'd flag from a corrupted corpus. Every error now carries a
//! class:
//!
//! | class                  | exit code | examples |
//! |------------------------|-----------|----------|
//! | [`CliError::Usage`]    | 2         | unknown command, missing flag, unparsable value |
//! | [`CliError::Io`]       | 3         | unreadable file, TSB1 decode failure, replay error, daemon refusal |
//! | [`CliError::Verify`]   | 4         | corpus digest/metadata mismatch, pinned-digest drift |
//!
//! The corpus-smoke CI job asserts that a corrupted corpus fails with
//! exactly [`EXIT_VERIFY`].
//!
//! (This module lives in `tse-sweepd` — the lowest crate with a binary
//! — and is re-exported as `tse_experiments::cli`, so every binary
//! shares one implementation without a dependency cycle.)

use std::process::ExitCode;

/// Exit code for usage errors (bad flags, unknown subcommands).
pub const EXIT_USAGE: u8 = 2;

/// Exit code for I/O, format and runtime failures.
pub const EXIT_IO: u8 = 3;

/// Exit code for corpus/digest verification failures.
pub const EXIT_VERIFY: u8 = 4;

/// A classified CLI failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The invocation itself is wrong; nothing was attempted.
    Usage(String),
    /// Reading, writing, decoding or replaying failed.
    Io(String),
    /// Content verification failed: the data on disk is not what a
    /// manifest or plan promised.
    Verify(String),
}

impl CliError {
    /// Builds a usage error.
    pub fn usage(msg: impl Into<String>) -> Self {
        CliError::Usage(msg.into())
    }

    /// Builds an I/O/runtime error.
    pub fn io(msg: impl std::fmt::Display) -> Self {
        CliError::Io(msg.to_string())
    }

    /// Builds a verification error.
    pub fn verify(msg: impl std::fmt::Display) -> Self {
        CliError::Verify(msg.to_string())
    }

    /// The process exit code this class maps to.
    pub fn code(&self) -> u8 {
        match self {
            CliError::Usage(_) => EXIT_USAGE,
            CliError::Io(_) => EXIT_IO,
            CliError::Verify(_) => EXIT_VERIFY,
        }
    }

    /// The human-readable message.
    pub fn message(&self) -> &str {
        match self {
            CliError::Usage(m) | CliError::Io(m) | CliError::Verify(m) => m,
        }
    }
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message())
    }
}

impl std::error::Error for CliError {}

/// Terminates a `main` with the error's class code (or success),
/// printing `tool: message` to stderr on failure.
pub fn exit(tool: &str, result: Result<(), CliError>) -> ExitCode {
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{tool}: {e}");
            ExitCode::from(e.code())
        }
    }
}

/// Pulls the value of `--flag` out of an option list.
///
/// # Errors
///
/// [`CliError::Usage`] when the flag is present without a value.
pub fn opt<'a>(args: &'a [String], flag: &str) -> Result<Option<&'a str>, CliError> {
    match args.iter().position(|a| a == flag) {
        None => Ok(None),
        Some(i) => args
            .get(i + 1)
            .map(|s| Some(s.as_str()))
            .ok_or_else(|| CliError::usage(format!("{flag} needs a value"))),
    }
}

/// True when the bare boolean flag `--flag` is present. Pair with
/// [`positionals_excluding`] so the flag is not mistaken for the start
/// of a `--flag value` pair.
pub fn flag(args: &[String], flag: &str) -> bool {
    args.iter().any(|a| a == flag)
}

/// Rejects any `--flag` the command does not read, so a typo'd or
/// retired flag fails loudly instead of being silently ignored.
/// `value_flags` take a value (which is skipped, as [`opt`] reads it);
/// `bool_flags` stand alone, as [`flag`] reads them.
///
/// # Errors
///
/// [`CliError::Usage`] naming the first unknown flag and the accepted
/// ones.
pub fn check_flags(
    args: &[String],
    value_flags: &[&str],
    bool_flags: &[&str],
) -> Result<(), CliError> {
    let mut i = 0usize;
    while i < args.len() {
        let arg = args[i].as_str();
        if value_flags.contains(&arg) {
            i += 2;
            continue;
        }
        if arg.starts_with("--") && !bool_flags.contains(&arg) {
            let accepted: Vec<&str> = value_flags.iter().chain(bool_flags).copied().collect();
            return Err(CliError::usage(if accepted.is_empty() {
                format!("unknown flag `{arg}` (this command takes no flags)")
            } else {
                format!("unknown flag `{arg}` (accepted: {})", accepted.join(", "))
            }));
        }
        i += 1;
    }
    Ok(())
}

/// Parses a flag value, classifying failures as usage errors.
///
/// # Errors
///
/// [`CliError::Usage`] naming `what` when the value does not parse.
pub fn parse<T: std::str::FromStr>(value: &str, what: &str) -> Result<T, CliError> {
    value
        .parse()
        .map_err(|_| CliError::usage(format!("invalid {what}: `{value}`")))
}

/// The `n`-th positional argument, skipping `--flag value` pairs
/// wherever they appear (every flag of these CLIs takes a value).
///
/// # Errors
///
/// [`CliError::Usage`] (with `usage` appended) when absent.
pub fn positional<'a>(
    args: &'a [String],
    n: usize,
    what: &str,
    usage: &str,
) -> Result<&'a str, CliError> {
    Ok(&positionals(args)
        .get(n)
        .ok_or_else(|| CliError::usage(format!("missing {what}\n\n{usage}")))?[..])
}

/// Every positional argument, skipping `--flag value` pairs.
pub fn positionals(args: &[String]) -> Vec<&String> {
    positionals_excluding(args, &[])
}

/// Every positional argument, skipping `--flag value` pairs — except
/// that any flag named in `bool_flags` is treated as bare (consuming
/// only itself). Commands that accept boolean flags (`merge
/// --partial`) must route through this so the flag does not swallow
/// the positional after it.
pub fn positionals_excluding<'a>(args: &'a [String], bool_flags: &[&str]) -> Vec<&'a String> {
    let mut found = Vec::new();
    let mut i = 0usize;
    while i < args.len() {
        if args[i].starts_with("--") {
            i += if bool_flags.contains(&args[i].as_str()) {
                1
            } else {
                2
            };
            continue;
        }
        found.push(&args[i]);
        i += 1;
    }
    found
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strs(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn positionals_skip_flag_pairs() {
        let args = strs(&["--plan", "p.json", "a.json", "--out", "m.json", "b.json"]);
        let pos = positionals(&args);
        assert_eq!(pos, ["a.json", "b.json"]);
        assert_eq!(positional(&args, 1, "bundle", "U").unwrap(), "b.json");
        assert!(matches!(
            positional(&args, 2, "bundle", "U"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn boolean_flags_consume_only_themselves() {
        let args = strs(&["--plan", "p.json", "--partial", "a.json", "b.json"]);
        // Without the exclusion, --partial would swallow a.json.
        assert_eq!(positionals(&args), ["b.json"]);
        assert_eq!(
            positionals_excluding(&args, &["--partial"]),
            ["a.json", "b.json"]
        );
        assert!(flag(&args, "--partial"));
        assert!(!flag(&args, "--wait"));
    }

    #[test]
    fn opt_and_parse_classify_as_usage() {
        let args = strs(&["--shards", "3", "--broken"]);
        assert_eq!(opt(&args, "--shards").unwrap(), Some("3"));
        assert_eq!(opt(&args, "--absent").unwrap(), None);
        assert!(matches!(opt(&args, "--broken"), Err(CliError::Usage(_))));
        assert_eq!(parse::<u32>("3", "--shards").unwrap(), 3);
        assert!(matches!(
            parse::<u32>("x", "--shards"),
            Err(CliError::Usage(_))
        ));
    }

    #[test]
    fn unknown_flags_are_usage_errors() {
        let args = strs(&["t.tsb1", "--engine", "--odd-value", "--quick"]);
        assert!(check_flags(&args, &["--engine"], &["--quick"]).is_ok());
        let err = check_flags(&args, &["--engine"], &[]).unwrap_err();
        assert!(matches!(err, CliError::Usage(_)));
        assert!(err.message().contains("`--quick`"), "{err}");
        assert!(err.message().contains("--engine"), "{err}");
        let retired = strs(&["t.tsb1", "--threads", "2"]);
        assert!(matches!(
            check_flags(&retired, &["--engine", "--nodes"], &[]),
            Err(CliError::Usage(_))
        ));
        assert!(check_flags(&strs(&["a", "b"]), &[], &[]).is_ok());
        assert!(check_flags(&strs(&["--x"]), &[], &[])
            .unwrap_err()
            .message()
            .contains("takes no flags"));
    }

    #[test]
    fn classes_map_to_distinct_codes() {
        let codes = [
            CliError::usage("u").code(),
            CliError::io("i").code(),
            CliError::verify("v").code(),
        ];
        assert_eq!(codes, [EXIT_USAGE, EXIT_IO, EXIT_VERIFY]);
        let mut unique = codes.to_vec();
        unique.dedup();
        assert_eq!(unique.len(), 3, "codes must be distinct");
        assert!(
            codes.iter().all(|c| *c != 0 && *c != 1),
            "nonzero, non-generic"
        );
    }

    #[test]
    fn messages_survive() {
        assert_eq!(CliError::verify("digest drift").message(), "digest drift");
        assert_eq!(CliError::usage("x").to_string(), "x");
    }
}
