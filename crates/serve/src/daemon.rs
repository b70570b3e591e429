//! The daemon entry point shared by the `otrepaird` binary and the
//! `otrepair serve` subcommand: flag parsing, startup logging, and the
//! blocking serve loop. Knob semantics are documented in
//! `docs/operations.md`.

use std::path::PathBuf;

use crate::server::{ServeConfig, Server, ServerHandle};

/// Parsed daemon command line.
#[derive(Debug, Clone, Default)]
pub struct DaemonArgs {
    /// The server configuration assembled from flags.
    pub config: ServeConfig,
    /// Where to write the bound `host:port` once listening (`--port-file`);
    /// how scripts and tests discover an OS-assigned port 0. Removed on
    /// clean shutdown so it can't dangle at a dead port.
    pub port_file: Option<PathBuf>,
}

/// One-line-per-flag usage text (shared by both binaries' `--help`).
pub const USAGE: &str = "\
Options:
  --bind <addr>        listen address (default 127.0.0.1:7878; port 0 = OS-assigned)
  --plans <dir>        preload every *.json plan artifact in <dir>
                       (name.json loads as name@1, name@3.json as name@3)
  --threads <n>        worker threads for sharded repair (default 0 = auto:
                       OTR_THREADS if set, else available parallelism)
  --shards <n>         row shards per repair request (default 0 = auto: the
                       resolved thread count)
  --max-conns <n>      connection cap: connections past <n> are rejected
                       with an Overloaded error frame (default 256; 0 = off)
  --deadline-ms <n>    per-frame deadline: a frame's bytes (and each
                       response write) must progress within <n> ms or the
                       connection is killed DeadlineExceeded
                       (default 30000; 0 = off)
  --port-file <path>   write the bound host:port to <path> once listening
                       (removed again on clean shutdown)
  --help               print this help";

impl DaemonArgs {
    /// Parse daemon flags (everything after the binary/subcommand name).
    ///
    /// # Errors
    /// A human-readable message for unknown flags, missing values, and
    /// unparsable numbers.
    pub fn parse(args: &[String]) -> Result<Self, String> {
        let mut out = Self::default();
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            let mut value = |what: &str| {
                it.next()
                    .cloned()
                    .ok_or_else(|| format!("{flag} needs {what}"))
            };
            match flag.as_str() {
                "--bind" => out.config.bind = value("an address")?,
                "--plans" => out.config.plans_dir = Some(PathBuf::from(value("a directory")?)),
                "--threads" => {
                    out.config.threads = parse_num(flag, &value("a thread count")?)?;
                }
                "--shards" => {
                    out.config.shards = parse_num(flag, &value("a shard count")?)?;
                }
                "--max-conns" => {
                    out.config.max_conns = parse_num(flag, &value("a connection cap")?)?;
                }
                "--deadline-ms" => {
                    out.config.deadline_ms =
                        parse_num(flag, &value("a millisecond count")?)? as u64;
                }
                "--port-file" => out.port_file = Some(PathBuf::from(value("a path")?)),
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(out)
    }
}

fn parse_num(flag: &str, raw: &str) -> Result<usize, String> {
    raw.parse()
        .map_err(|_| format!("{flag}: {raw:?} is not a non-negative integer"))
}

/// Bind, announce, and serve until killed (or until a
/// [`ServerHandle::shutdown`] fires). On a *clean* return the
/// `--port-file` is removed so it can't dangle at a dead port; a
/// `SIGKILL`'d daemon can't clean up, which is why readers should
/// treat a connection-refused port file as stale.
///
/// # Errors
/// Bind/preload failures and fatal accept-loop errors.
pub fn run(args: &DaemonArgs) -> std::io::Result<()> {
    run_with_handle(args, |_| {})
}

/// Like [`run`], but hands the server's [`ServerHandle`] to `on_ready`
/// just before the blocking serve loop starts — how in-process callers
/// (tests, embedders) arrange their own shutdown trigger.
///
/// # Errors
/// Bind/preload failures and fatal accept-loop errors.
pub fn run_with_handle(
    args: &DaemonArgs,
    on_ready: impl FnOnce(ServerHandle),
) -> std::io::Result<()> {
    let server = Server::bind(&args.config)?;
    announce(&server, args)?;
    on_ready(server.handle()?);
    let result = server.run();
    if result.is_ok() {
        cleanup(args);
    }
    result
}

/// Print the startup banner and write the port file. Split from
/// [`run`] so the CLI can bind and announce, then serve on its own
/// terms.
///
/// # Errors
/// Port-file write failures.
pub fn announce(server: &Server, args: &DaemonArgs) -> std::io::Result<()> {
    let addr = server.local_addr()?;
    println!(
        "otrepaird listening on {addr} ({} plans loaded)",
        server.registry().len()
    );
    if let Some(path) = &args.port_file {
        // Write-then-rename so a polling reader never sees a partial
        // address.
        let tmp = path.with_extension("tmp");
        std::fs::write(&tmp, addr.to_string())?;
        std::fs::rename(&tmp, path)?;
    }
    Ok(())
}

/// Remove the `--port-file` after a clean shutdown (best-effort: a
/// missing file is fine, and the serve result matters more than the
/// unlink). Callers that bind/announce/serve by hand (the CLI's
/// foreground path) should call this themselves once `Server::run`
/// returns.
pub fn cleanup(args: &DaemonArgs) {
    if let Some(path) = &args.port_file {
        let _ = std::fs::remove_file(path);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_and_removed_flags_are_errors() {
        let args = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<String>>();
        let parsed = DaemonArgs::parse(&args(&["--threads", "2", "--shards", "7"])).unwrap();
        assert_eq!((parsed.config.threads, parsed.config.shards), (2, 7));
        let err = DaemonArgs::parse(&args(&["--batch-rows", "64"])).unwrap_err();
        assert!(err.contains("unknown flag --batch-rows"), "{err}");
    }
}
