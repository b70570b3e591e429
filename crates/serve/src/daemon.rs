//! The daemon entry point shared by the `otrepaird` binary and the
//! `otrepair serve` subcommand: startup logging and the blocking serve
//! loop (both binaries parse their flags into [`DaemonArgs`] through one
//! shared table). Knob semantics are documented in `docs/operations.md`.

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

/// Print the startup banner and write the port file.
///
/// # Errors
/// Port-file write failures.
fn announce(server: &Server, args: &DaemonArgs) -> std::io::Result<()> {
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
/// unlink).
fn cleanup(args: &DaemonArgs) {
    if let Some(path) = &args.port_file {
        let _ = std::fs::remove_file(path);
    }
}
