//! The flag tables and the one parser the `otrepair` and `otrepaird`
//! binaries share: each subcommand, each `client` action and the daemon
//! name the flags they read, and [`parse`] checks a command line against
//! them before any file I/O.

use std::error::Error;
use std::path::PathBuf;

use otr_serve::daemon::DaemonArgs;

/// The flags one subcommand (or `client` action) reads, as
/// space-separated names: `valued` flags take the next argument as their
/// value, `switches` stand alone.
pub struct Flags {
    valued: &'static str,
    switches: &'static str,
}

/// The [`Flags`] table of `valued` flags and `switches`.
pub const fn flags(valued: &'static str, switches: &'static str) -> Flags {
    Flags { valued, switches }
}

/// The daemon's flags (`otrepaird` and `otrepair serve`).
pub const DAEMON: Flags = flags(
    "--bind --plans --threads --shards --max-conns --deadline-ms --port-file",
    "",
);

/// Flags that used to exist: the subcommand, the flag, and why it went.
const REMOVED: [(&str, &str, &str); 2] = [
    (
        "design --joint",
        "--kernel",
        "joint design always runs the separable kernel",
    ),
    (
        "apply",
        "--batch-rows",
        "batch height never changed the output",
    ),
];

/// The parsed options of one subcommand.
pub struct Opts<'a> {
    values: Vec<(&'static str, &'a str)>,
    switches: Vec<&'static str>,
}

impl<'a> Opts<'a> {
    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.values
            .iter()
            .find(|(f, _)| *f == flag)
            .map(|&(_, v)| v)
    }

    /// The value of `flag`, or an error naming it.
    ///
    /// # Errors
    /// `flag` was not given.
    pub fn required(&self, flag: &str) -> Result<&'a str, String> {
        self.get(flag)
            .ok_or_else(|| format!("missing required option `{flag} <value>`"))
    }

    /// True if the switch `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.switches.contains(&flag)
    }
}

/// Check `args` against the flags `cmd` reads, before any file I/O. An
/// unknown, removed, repeated or value-less flag, or a stray positional
/// argument, is a one-line usage error naming the flag and `cmd` and
/// pointing at `help`: a misspelled flag must fail, not quietly leave its
/// default in place.
///
/// # Errors
/// The usage error.
pub fn parse<'a>(
    cmd: &str,
    help: &str,
    args: &'a [String],
    tables: &[&Flags],
) -> Result<Opts<'a>, String> {
    let usage = |what: String| format!("{cmd}: {what} (see `{help}`)");
    let mut opts = Opts {
        values: Vec::new(),
        switches: Vec::new(),
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        if opts.get(arg).is_some() || opts.has(arg) {
            return Err(usage(format!("`{arg}` given twice")));
        }
        let find = |list: fn(&Flags) -> &'static str| {
            tables
                .iter()
                .flat_map(|t| list(t).split_whitespace())
                .find(|f| *f == arg)
        };
        if let Some(flag) = find(|t| t.valued) {
            match it.next() {
                Some(value) if !value.starts_with("--") => opts.values.push((flag, value)),
                _ => return Err(usage(format!("`{flag}` needs a value"))),
            }
        } else if let Some(flag) = find(|t| t.switches) {
            opts.switches.push(flag);
        } else if let Some((_, _, why)) = REMOVED.iter().find(|r| (r.0, r.1) == (cmd, arg)) {
            return Err(format!("{cmd}: {arg} was removed: {why}"));
        } else if arg.starts_with('-') {
            return Err(usage(format!("unknown flag `{arg}`")));
        } else {
            return Err(usage(format!("unexpected argument `{arg}`")));
        }
    }
    Ok(opts)
}

/// Parse the daemon's command line against [`DAEMON`] (`cmd` and `help`
/// as for [`parse`]).
///
/// # Errors
/// A usage error, or a count that is not a non-negative integer.
pub fn daemon_args(cmd: &str, help: &str, args: &[String]) -> Result<DaemonArgs, Box<dyn Error>> {
    let opts = parse(cmd, help, args, &[&DAEMON])?;
    let mut out = DaemonArgs {
        port_file: opts.get("--port-file").map(PathBuf::from),
        ..DaemonArgs::default()
    };
    let config = &mut out.config;
    if let Some(bind) = opts.get("--bind") {
        config.bind = bind.into();
    }
    config.plans_dir = opts.get("--plans").map(PathBuf::from);
    if let Some(threads) = opts.get("--threads") {
        config.threads = threads.parse()?;
    }
    if let Some(shards) = opts.get("--shards") {
        config.shards = shards.parse()?;
    }
    if let Some(cap) = opts.get("--max-conns") {
        config.max_conns = cap.parse()?;
    }
    if let Some(ms) = opts.get("--deadline-ms") {
        config.deadline_ms = ms.parse()?;
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn daemon_flags_fill_the_config_and_unknown_or_repeated_ones_fail() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        let parsed = daemon_args(
            "otrepaird",
            "otrepaird --help",
            &args(&["--threads", "2", "--shards", "7", "--port-file", "p"]),
        )
        .unwrap();
        assert_eq!((parsed.config.threads, parsed.config.shards), (2, 7));
        assert_eq!(parsed.port_file, Some(PathBuf::from("p")));
        for (bad, flag) in [
            (&["--batch-rows", "64"][..], "unknown flag `--batch-rows`"),
            (&["--bind", "a", "--bind", "b"], "`--bind` given twice"),
            (&["--shards"], "`--shards` needs a value"),
        ] {
            let err = daemon_args("otrepaird", "otrepaird --help", &args(bad)).unwrap_err();
            assert_eq!(
                err.to_string(),
                format!("otrepaird: {flag} (see `otrepaird --help`)")
            );
        }
        assert!(daemon_args("serve", "h", &args(&["--threads", "x"])).is_err());
    }
}
