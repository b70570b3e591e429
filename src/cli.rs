//! The flag tables of the `otrepair` and `otrepaird` binaries, and the
//! one parser and one help renderer they share. Each subcommand, each
//! `client` action and the daemon list the flags they read; [`parse`]
//! checks a command line against them before any file I/O, and
//! [`render`] prints `--help` from them, so usage text and parser cannot
//! disagree.

use std::error::Error;
use std::ops::Index;
use std::path::PathBuf;
use std::str::FromStr;

use otr_serve::daemon::DaemonArgs;

/// One table entry: the flag with its value placeholder (`--nq <n>`, or
/// `--verbose` alone for a switch), two spaces, and one line of help,
/// which starts `required:` when [`parse`] fails without the flag.
pub type Flag = &'static str;

/// The parts of a table entry: the flag with its placeholder as help
/// shows it, the bare flag, whether it takes a value, and its help.
fn split(entry: Flag) -> (&'static str, &'static str, bool, &'static str) {
    let (spec, help) = entry.split_once("  ").unwrap_or((entry, ""));
    let name = spec.split(' ').next().unwrap_or(spec);
    (spec, name, spec != name, help.trim_start())
}

fn required(entry: Flag) -> bool {
    split(entry).3.starts_with("required:")
}

/// A subcommand or `client` action: what follows `otrepair` on the
/// command line, and the flags it reads.
pub struct Command {
    /// `design`, `client load`, …
    pub name: &'static str,
    flags: &'static [Flag],
}

const fn command(name: &'static str, flags: &'static [Flag]) -> Command {
    Command { name, flags }
}

impl Command {
    /// The flag tables the command reads: its own, then for a `client`
    /// action the flags every action shares ([`CLIENT`]).
    pub fn tables(&self) -> [&'static [Flag]; 2] {
        let client = self.name.starts_with("client ");
        [self.flags, if client { &CLIENT } else { &[] }]
    }
}

const THREADS: Flag =
    "--threads <n>  worker threads; 0 = auto (OTR_THREADS, else all cores); no byte depends on it";
const RESEARCH: Flag = "--research <csv>  required: the research CSV to design the plan on";
const PLAN_OUT: Flag = "--out <plan.json>  required: where to write the plan artifact";
const T: Flag = "--t <t>  geodesic position of the barycentre target in [0, 1] (default 0.5)";
const PLAN_IN: Flag = "--plan <plan.json>  required: a plan artifact; the file says which kind";
const DATA: Flag = "--data <csv>  required: the labelled CSV to read";
const CSV_OUT: Flag = "--out <csv>  required: where to write the output CSV";
const SEED: Flag = "--seed <n>  seed of the per-row random streams (default 0)";
const GRID: Flag = "--grid <n>  grid points of each KDE behind E (default 512)";
const NAME: Flag = "--name <name>  required: the plan's registry name";

/// The daemon's flags (`otrepaird` and `otrepair serve`).
pub const DAEMON: [Flag; 7] = [
    "--bind <addr>  listen address (default 127.0.0.1:7878; port 0 = OS-assigned)",
    "--plans <dir>  load name.json as name@1 and name@3.json as name@3; persist new versions",
    "--threads <n>  worker threads for sharded repair (0 = auto: OTR_THREADS, else all cores)",
    "--shards <n>  row shards per repair request (0 = auto: the resolved thread count)",
    "--max-conns <n>  connection cap; past it an Overloaded error (default 256; 0 = off)",
    "--deadline-ms <n>  per-frame read and response-write deadline (default 30000; 0 = off)",
    "--port-file <path>  write the bound host:port here once listening",
];

const DESIGN: &[Flag] = &[
    RESEARCH,
    PLAN_OUT,
    "--nq <n>  support points per feature (default 50)",
    T,
    "--solver <backend>  exact, simplex, sinkhorn:<eps>[:scaled[:<eps0>:<factor>]]",
    "--min-group <n>  smallest (s, u) group the design accepts (default 2)",
    THREADS,
    "--verbose  print each stratum's support and solver",
];

const DESIGN_JOINT: &[Flag] = &[
    "--joint  required: one plan over the nQ^d product grid of all d ≥ 2 features",
    RESEARCH,
    PLAN_OUT,
    "--nq <n>  grid points per feature (default 16)",
    T,
    "--eps <eps>  entropic regularization ε (default 0.05)",
    "--eps-scaling <spec>  off, on (default; 1.0 → ε by factor 0.25) or <eps0>:<factor>",
    "--solver <backend>  overrides Sinkhorn at --eps, as for `design`",
    "--min-group <n>  smallest (s, u) group the design accepts (default 10)",
    THREADS,
    "--verbose  print the design report: iterations, ε stages, kernel, costs, time",
];

const APPLY: &[Flag] = &[
    PLAN_IN,
    DATA,
    CSV_OUT,
    SEED,
    "--partial <lambda>  then move back along the geodesic, (1-λ)x + λr (scalar plans)",
    "--monge  the deterministic Monge map, not random draws (scalar; not with --partial)",
    THREADS,
];

const EVALUATE_JOINT: &[Flag] = &[
    "--joint  required: also the joint d-dimensional E on a shared product grid",
    DATA,
    GRID,
    "--joint-grid <n>  joint grid points per axis, ≥ 8 (default 64 at d = 2, 16 above)",
];

const DRIFT: &[Flag] = &[
    DATA,
    CSV_OUT,
    "--mean-shift <v1,v2,..>  add v_k to feature k (pick one of the three shifts)",
    "--scale <f1,f2,..>  multiply feature k by f_k",
    "--group-shift <s:v1,v2,..>  add v_k to feature k of the rows in group s",
];

/// The subcommands, in `--help` order. `design` and `evaluate` read
/// their second table when `--joint` is on the line.
pub const COMMANDS: [Command; 7] = [
    command("design", DESIGN),
    command("design", DESIGN_JOINT),
    command("apply", APPLY),
    command("evaluate", &[DATA, GRID]),
    command("evaluate", EVALUATE_JOINT),
    command("drift", DRIFT),
    command("serve", &DAEMON),
];

/// Every `client` action reads these on top of its own.
pub const CLIENT: [Flag; 3] = [
    "--addr <host:port>  the daemon's address (default 127.0.0.1:7878)",
    "--retries <n>  retries of drops, Overloaded, DeadlineExceeded (default 3; 0 = none)",
    "--timeout <ms>  bound on the whole call, retries included (default 0 = none)",
];

const LOAD: &[Flag] = &[
    PLAN_IN,
    NAME,
    "--version <v>  version to load it as (default 1)",
];

const REPAIR: &[Flag] = &[
    NAME,
    DATA,
    CSV_OUT,
    "--version <v>  version to repair through (default 0 = the latest)",
    SEED,
];

const WATCH: &[Flag] = &[
    NAME,
    "--threshold <kl>  symmetrized-KL drift threshold per stratum (default 0.5)",
    "--trips <n>  over-threshold checkpoints in a row before a re-design (default 2)",
    "--check-every <n>  rows between checkpoints (default 256)",
    "--min-rows <n>  rows before the first checkpoint (default 512)",
];

/// The `client` actions, in `--help` order.
pub const CLIENT_ACTIONS: [Command; 9] = [
    command("client ping", &[]),
    command("client info", &[]),
    command("client plans", &[]),
    command("client load", LOAD),
    command(
        "client evict",
        &[NAME, "--version <v>  required: the version to evict"],
    ),
    command("client repair", REPAIR),
    command("client watch", WATCH),
    command("client drift", &[NAME]),
    command("client audit", &[NAME]),
];

/// Flags that used to exist: the command and the flag, then why it went.
const REMOVED: [&str; 4] = [
    "design --kernel: joint design always runs the separable kernel",
    "apply --batch-rows: batch height never changed the output",
    "apply --joint: the plan artifact says which kind it is",
    "client load --joint: the plan artifact says which kind it is",
];

/// The command `args` (what follows `otrepair`) names. A command with a
/// `--joint` table reads it when `--joint` is anywhere on the line.
///
/// # Errors
/// An unknown command or `client` action, or `client` without one.
pub fn select(args: &[String]) -> Result<&'static Command, String> {
    let word = |i: usize| args.get(i).map_or("", String::as_str);
    if word(0) == "client" {
        let action = |c: &Command| &c.name["client ".len()..];
        let list = CLIENT_ACTIONS.map(|c| action(&c)).join(" | ");
        return match word(1) {
            "" => Err(format!("client needs an action: {list}")),
            w => CLIENT_ACTIONS
                .iter()
                .find(|c| action(c) == w)
                .ok_or_else(|| format!("unknown client action `{w}` (expected {list})")),
        };
    }
    let joint = args.iter().any(|a| a == "--joint");
    let named = || COMMANDS.iter().filter(|c| c.name == word(0));
    named()
        .find(|c| joint && c.flags.iter().any(|f| split(f).1 == "--joint"))
        .or_else(|| named().next())
        .ok_or_else(|| format!("unknown command `{}` (try --help)", word(0)))
}

/// Render a command for `--help`: the synopsis, `usage` and then every
/// flag of `tables` (the optional ones bracketed), and with `list` one
/// help line per flag. Lines wrap before 80 columns.
pub fn render(usage: &str, tables: &[&[Flag]], list: bool) -> String {
    let flags = || tables.iter().flat_map(|t| t.iter());
    let synopsis: Vec<String> = flags()
        .map(|&f| match required(f) {
            true => split(f).0.to_string(),
            false => format!("[{}]", split(f).0),
        })
        .collect();
    let mut out = String::new();
    let lead = format!("  {usage}");
    wrap(&mut out, &lead, synopsis.iter().map(String::as_str));
    if list && flags().next().is_some() {
        out.push_str("\nFLAGS:\n");
        for &f in flags() {
            let (spec, .., help) = split(f);
            wrap(&mut out, &format!("  {spec:<20}"), help.split_whitespace());
        }
    }
    out
}

/// Append `lead` and then `words` to `out`, one space before each word,
/// breaking lines before 80 columns and indenting the continuation lines
/// to the width of `lead`.
fn wrap<'a>(out: &mut String, lead: &str, words: impl IntoIterator<Item = &'a str>) {
    let indent = lead.chars().count();
    let mut width = indent;
    out.push_str(lead);
    for word in words {
        let len = word.chars().count();
        if width > indent && width + 1 + len > 80 {
            out.push('\n');
            out.push_str(&" ".repeat(indent));
            width = indent;
        }
        out.push(' ');
        out.push_str(word);
        width += 1 + len;
    }
    out.push('\n');
}

/// The parsed options of one command: each flag given, with its value
/// (`None` for a switch).
pub struct Opts<'a>(Vec<(&'static str, Option<&'a str>)>);

impl<'a> Opts<'a> {
    fn find(&self, flag: &str) -> Option<Option<&'a str>> {
        self.0.iter().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// The value of `flag`, if given.
    pub fn get(&self, flag: &str) -> Option<&'a str> {
        self.find(flag).flatten()
    }

    /// True if `flag` was given.
    pub fn has(&self, flag: &str) -> bool {
        self.find(flag).is_some()
    }

    /// The value of `flag` parsed, or `default` when it is not given.
    ///
    /// # Errors
    /// The value does not parse.
    pub fn value_or<T: FromStr>(&self, flag: &str, default: T) -> Result<T, T::Err> {
        self.get(flag).map_or(Ok(default), str::parse)
    }
}

impl Index<&str> for Opts<'_> {
    type Output = str;

    /// The value of a required flag, which [`parse`] guarantees.
    ///
    /// # Panics
    /// `flag` is not a required valued flag of the parsed tables.
    fn index(&self, flag: &str) -> &str {
        self.get(flag)
            .unwrap_or_else(|| panic!("`{flag}` is not a required flag of this command"))
    }
}

/// Check `args` against the flag `tables` of `cmd`, before any file I/O.
/// An unknown, removed, repeated or value-less flag, a stray positional
/// argument, or a missing required flag is a one-line usage error naming
/// the flag: a misspelled flag must fail, not quietly leave its default
/// in place. Flag errors name `cmd` and point at `help`.
///
/// # Errors
/// The usage error.
pub fn parse<'a>(
    cmd: &str,
    help: &str,
    args: &'a [String],
    tables: &[&[Flag]],
) -> Result<Opts<'a>, String> {
    let usage = |what: String| format!("{cmd}: {what} (see `{help}`)");
    let mut opts = Opts(Vec::new());
    let flags = || tables.iter().flat_map(|t| t.iter());
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let arg = arg.as_str();
        if opts.has(arg) {
            return Err(usage(format!("`{arg}` given twice")));
        }
        match flags().map(|&f| split(f)).find(|f| f.1 == arg) {
            Some((_, name, true, _)) => match it.next() {
                Some(value) if !value.starts_with("--") => opts.0.push((name, Some(value))),
                _ => return Err(usage(format!("`{arg}` needs a value"))),
            },
            Some((_, name, false, _)) => opts.0.push((name, None)),
            None => {
                let removed =
                    |r: &'static str| r.strip_prefix(cmd)?.strip_prefix(' ')?.strip_prefix(arg);
                if let Some(why) = REMOVED.iter().find_map(|r| removed(r)?.strip_prefix(": ")) {
                    return Err(format!("{cmd}: {arg} was removed: {why}"));
                }
                let what = if arg.starts_with('-') {
                    format!("unknown flag `{arg}`")
                } else {
                    format!("unexpected argument `{arg}`")
                };
                return Err(usage(what));
            }
        }
    }
    match flags().find(|&&f| required(f) && !opts.has(split(f).1)) {
        Some(f) => Err(format!("missing required option `{} <value>`", split(f).1)),
        None => Ok(opts),
    }
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
    config.bind = opts.value_or("--bind", config.bind.clone())?;
    config.plans_dir = opts.get("--plans").map(PathBuf::from);
    config.threads = opts.value_or("--threads", config.threads)?;
    config.shards = opts.value_or("--shards", config.shards)?;
    config.max_conns = opts.value_or("--max-conns", config.max_conns)?;
    config.deadline_ms = opts.value_or("--deadline-ms", config.deadline_ms)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn args(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn daemon_flags_fill_the_config_and_unknown_or_repeated_ones_fail() {
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

    /// Every command's rendered flag list names exactly the flags `parse`
    /// accepts for it, probed over every flag any table or the removed
    /// list names: each listed flag parses, and each flag that parses is
    /// listed. Every entry has a help line and at most one placeholder.
    /// The daemon is the `serve` command; `otrepaird` renders its table.
    #[test]
    fn rendered_flag_lists_name_exactly_the_flags_parse_accepts() {
        let commands = || COMMANDS.iter().chain(&CLIENT_ACTIONS);
        let entries = || commands().flat_map(|c| c.tables().into_iter().flatten());
        for entry in entries() {
            let (spec, name, _, help) = split(entry);
            assert!(name.starts_with("--") && !help.is_empty(), "{entry}");
            assert!(spec.matches(' ').count() <= 1, "{entry}");
        }
        let universe: BTreeSet<&str> = entries()
            .map(|f| split(f).1)
            .chain(
                REMOVED
                    .iter()
                    .filter_map(|r| r.split(':').next()?.rsplit(' ').next()),
            )
            .chain(["--bogus", "--help"])
            .collect();
        for cmd in commands() {
            let tables = cmd.tables();
            let text = render(&format!("otrepair {}", cmd.name), &tables, true);
            assert!(text.starts_with(&format!("  otrepair {}", cmd.name)));
            let listed: BTreeSet<&str> = text
                .lines()
                .filter_map(|l| l.strip_prefix("  --"))
                .map(|rest| format!("--{}", &rest[..rest.find(' ').unwrap_or(rest.len())]))
                .map(|name| *universe.get(name.as_str()).expect("a flag no table names"))
                .collect();
            let accepted: BTreeSet<&str> = universe
                .iter()
                .copied()
                .filter(|flag| match parse(cmd.name, "h", &args(&[flag]), &tables) {
                    Ok(_) => true,
                    Err(e) => !e.contains("unknown flag") && !e.contains("was removed"),
                })
                .collect();
            assert_eq!(listed, accepted, "{}", cmd.name);
        }
        let daemon = render("otrepaird", &[&DAEMON], true);
        assert_eq!(daemon.lines().filter(|l| l.starts_with("  --")).count(), 7);
    }

    #[test]
    fn commands_pick_their_tables_and_required_flags_fail_before_any_io() {
        let first = |v: &[&str]| select(&args(v)).map(|c| split(c.tables()[0][0]).1);
        assert_eq!(first(&["design"]), Ok("--research"));
        assert_eq!(first(&["design", "--out", "p", "--joint"]), Ok("--joint"));
        assert_eq!(first(&["evaluate", "--joint"]), Ok("--joint"));
        assert_eq!(first(&["apply", "--joint"]), Ok("--plan"));
        assert_eq!(first(&["client", "load"]), Ok("--plan"));
        assert!(first(&["frobnicate"])
            .unwrap_err()
            .contains("unknown command"));
        let actions = "ping | info | plans | load | evict | repair | watch | drift | audit";
        assert!(first(&["client"]).unwrap_err().ends_with(actions));
        assert!(first(&["client", "bogus"]).unwrap_err().contains("`bogus`"));

        let load = select(&args(&["client", "load"])).unwrap();
        let err = parse(load.name, "h", &args(&["--name", "p"]), &load.tables()).err();
        assert_eq!(err.unwrap(), "missing required option `--plan <value>`");
        let err = parse(load.name, "h", &args(&["--joint"]), &load.tables()).err();
        let removed = "client load: --joint was removed: the plan artifact says which kind it is";
        assert_eq!(err.unwrap(), removed);
    }
}
