//! `otrepaird` — the long-running repair server.
//!
//! Holds validated repair plans hot in a named/versioned registry and
//! repairs archives over a minimal length-prefixed binary protocol,
//! sharding each request across a worker pool. Same seed + same plan ⇒
//! same bytes, whatever the shard layout or client interleaving — and
//! byte-identical to an offline `otrepair apply`.
//!
//! ```text
//! otrepaird --bind 127.0.0.1:7878 --plans ./plans
//! otrepair client ping --addr 127.0.0.1:7878
//! ```
//!
//! Knobs and lifecycle: `docs/operations.md`. Wire format:
//! `docs/protocol.md`.

use std::process::ExitCode;

use ot_fair_repair::cli::{daemon_args, render, DAEMON};
use ot_fair_repair::serve::daemon;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.iter().any(|a| a == "--help" || a == "-h") {
        let usage = render("otrepaird", &[&DAEMON], true);
        print!("otrepaird — repair-as-a-service daemon\n\nUSAGE:\n{usage}");
        return ExitCode::SUCCESS;
    }
    let parsed = match daemon_args("otrepaird", "otrepaird --help", &args) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("otrepaird: error: {e}");
            return ExitCode::FAILURE;
        }
    };
    match daemon::run_with_handle(&parsed, |_| {}) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("otrepaird: error: {e}");
            ExitCode::FAILURE
        }
    }
}
