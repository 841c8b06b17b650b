//! `dominogw` — the fleet gateway.
//!
//! ```text
//! dominogw --backend host:port [--backend host:port ...] [--addr 127.0.0.1:7270]
//! ```
//!
//! Binds, prints `dominogw listening on <addr>` (port 0 reports the
//! ephemeral port actually bound — scripts parse this line), then routes
//! jobs across its backends until `POST /shutdown`, SIGTERM or SIGINT
//! asks it to drain.
//!
//! Exit status: 0 after a graceful drain, 2 on usage or bind errors.

use std::process::ExitCode;

use domino_fleet::{Gateway, GatewayConfig};
use domino_serve::daemon_main;

fn main() -> ExitCode {
    daemon_main(
        "dominogw",
        "--backend <host:port> [options]",
        &GatewayConfig::arg_table(),
        GatewayConfig::parse_args,
        |config| {
            let routing = format!(
                "dominogw: routing across {} backend(s): {}",
                config.backends.len(),
                config.backends.join(", ")
            );
            let gateway = Gateway::start(config)?;
            eprintln!("{routing}");
            Ok(gateway)
        },
        |_| "drained and exiting".to_string(),
    )
}
