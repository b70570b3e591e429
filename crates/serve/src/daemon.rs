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

/// Bind, announce, hand the server's [`ServerHandle`] to `on_ready` (how
/// in-process callers such as tests arrange their own shutdown; the
/// binaries pass `|_| {}`), and serve until killed or until a
/// [`ServerHandle::shutdown`] fires. On a *clean* return the
/// `--port-file` is removed so it can't dangle at a dead port; a
/// `SIGKILL`'d daemon can't clean up, which is why readers should treat a
/// connection-refused port file as stale.
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
    // Best-effort: a missing port file is fine, and the serve result
    // matters more than the unlink.
    if let (Ok(()), Some(path)) = (&result, &args.port_file) {
        let _ = std::fs::remove_file(path);
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
