//! `dominod` — the phase-assignment server.
//!
//! ```text
//! dominod [--addr 127.0.0.1:7171] [--workers n] [--queue n] [--cache dir]
//! ```
//!
//! Binds, prints `dominod listening on <addr>` (port 0 reports the
//! ephemeral port actually bound — scripts parse this line), then serves
//! until `POST /shutdown` (`dominoc shutdown`), SIGTERM or SIGINT asks
//! it to drain.
//!
//! Exit status: 0 after a graceful drain, 2 on usage or bind errors.

use std::process::ExitCode;

use domino_serve::{daemon_main, ServeConfig, Server};

fn main() -> ExitCode {
    daemon_main(
        "dominod",
        "[options]",
        &ServeConfig::arg_table(),
        ServeConfig::parse_args,
        Server::start,
        |server| {
            let m = server.metrics();
            format!(
                "drained and exiting ({} completed, {} failed, {} cancelled, {} rejected)",
                m.completed, m.failed, m.cancelled, m.rejected
            )
        },
    )
}
