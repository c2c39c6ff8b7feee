//! `spinamm-serve`: stand up the network tier on a TCP port with an
//! empty registry; tenants are registered at runtime over
//! `POST /v1/tenants`. The README's curl quick-start talks to this
//! binary.
//!
//! Usage: `spinamm-serve [BIND]` (default `127.0.0.1:7171`).

use spinamm_server::registry::ModuleRegistry;
use spinamm_server::service::{RecallService, ServerConfig};
use spinamm_server::SpinServer;
use std::sync::Arc;

fn main() {
    let bind = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "127.0.0.1:7171".to_owned());
    let config = ServerConfig {
        bind,
        ..ServerConfig::default()
    };
    let service = Arc::new(RecallService::new(Arc::new(ModuleRegistry::new()), &config));
    let server = match SpinServer::start(service, &config) {
        Ok(server) => server,
        Err(error) => {
            eprintln!("spinamm-serve: bind failed: {error}");
            std::process::exit(1);
        }
    };
    println!(
        "spinamm-serve listening on http://{} (binary framing on the same port)",
        server.addr()
    );
    println!(
        "register a tenant:  curl -s -X POST http://{}/v1/tenants -d '{{...}}'",
        server.addr()
    );
    // Serve until the process is killed; the accept loop owns its thread.
    loop {
        std::thread::park();
    }
}
