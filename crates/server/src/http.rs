//! The network front-end: a `std::net` thread-per-connection server
//! speaking HTTP/1.1 + JSON, with a length-prefixed binary framing for the
//! hot path on the same port.
//!
//! The listener sniffs the first byte of every connection:
//! [`crate::api::REQUEST_MAGIC`] (`0xB5`) starts a binary session (no
//! ASCII HTTP method begins with that byte); anything else is parsed as
//! HTTP/1.1. Both paths decode to [`ApiRecallRequest`] and call
//! [`RecallService::handle`].
//!
//! Routes:
//!
//! | method & path          | action                                    |
//! |------------------------|-------------------------------------------|
//! | `POST /v1/recall`      | serve one recall (JSON body)              |
//! | `GET /metrics`         | telemetry document, per tenant + server   |
//! | `GET /healthz`         | liveness probe                            |
//! | `POST /v1/tenants`     | register a tenant from a deployment spec  |
//! | `DELETE /v1/tenants/N` | evict tenant `N`                          |
//!
//! Admission failures surface as typed statuses: 429 (tenant over quota,
//! with `Retry-After`), 503 (global concurrency cap or engine queue
//! full), 404 (unknown tenant), 400 (malformed request).

use crate::api::{ApiRecallRequest, DeploymentKind, REQUEST_MAGIC, RESPONSE_MAGIC, WIRE_VERSION};
use crate::registry::{DeploymentSpec, RegistryError, TenantOptions};
use crate::service::{RecallService, ServeError, ServerConfig};
use spinamm_core::amm::{AmmConfig, Fidelity};
use spinamm_engine::EngineConfig;
use spinamm_telemetry::json::{self, JsonValue};
use spinamm_telemetry::Recorder;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread;

/// Largest accepted HTTP header block or binary frame body, bytes.
const MAX_HEADER_BYTES: usize = 64 * 1024;
/// Largest accepted request body, bytes.
const MAX_BODY_BYTES: usize = 16 * 1024 * 1024;
/// Most engine workers a tenant registration may ask for. Each worker is
/// an OS thread holding its own clone of the deployment, so an unbounded
/// count lets one request use up the host's threads.
const MAX_WORKERS: usize = 64;
/// Most crossbar cells (rows × columns) in one tile of a registered tiled
/// deployment. `tile_capacity` sets a tile's width whatever the bank holds,
/// and every cell keeps ≈ 40 B of device state, so this caps a tile at
/// ≈ 10 MiB, the cells of sixteen 128 × 128 tiles.
const MAX_TILE_CELLS: usize = 1 << 18;

/// A running TCP server; dropping it (or calling
/// [`SpinServer::shutdown`]) stops the accept loop.
#[derive(Debug)]
pub struct SpinServer {
    addr: SocketAddr,
    closed: Arc<AtomicBool>,
    accept_thread: Option<thread::JoinHandle<()>>,
}

impl SpinServer {
    /// Binds `config.bind` and starts serving `service`.
    ///
    /// # Errors
    ///
    /// Returns the bind error.
    pub fn start(service: Arc<RecallService>, config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.bind)?;
        let addr = listener.local_addr()?;
        let closed = Arc::new(AtomicBool::new(false));
        let open_connections = Arc::new(AtomicUsize::new(0));
        let max_connections = config.max_connections.max(1);
        let accept_closed = Arc::clone(&closed);
        let accept_thread = thread::Builder::new()
            .name("spinamm-accept".to_owned())
            .spawn(move || {
                for stream in listener.incoming() {
                    if accept_closed.load(Ordering::Acquire) {
                        break;
                    }
                    let Ok(stream) = stream else { continue };
                    if open_connections.load(Ordering::Acquire) >= max_connections {
                        service.recorder().counter("server.connections_rejected", 1);
                        let _ =
                            write_http(&mut &stream, 503, &ServeError::Saturated.to_json(), &[]);
                        continue;
                    }
                    open_connections.fetch_add(1, Ordering::AcqRel);
                    let service = Arc::clone(&service);
                    let open = Arc::clone(&open_connections);
                    let _ = thread::Builder::new()
                        .name("spinamm-conn".to_owned())
                        .spawn(move || {
                            handle_connection(&service, stream);
                            open.fetch_sub(1, Ordering::AcqRel);
                        });
                }
            })?;
        Ok(Self {
            addr,
            closed,
            accept_thread: Some(accept_thread),
        })
    }

    /// The bound address (useful with `bind: 127.0.0.1:0`).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stops accepting connections and joins the accept loop. In-flight
    /// connections finish on their own threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        if self.closed.swap(true, Ordering::AcqRel) {
            return;
        }
        // Unblock the accept loop with one throwaway connection.
        let _ = TcpStream::connect(self.addr);
        if let Some(handle) = self.accept_thread.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for SpinServer {
    fn drop(&mut self) {
        self.stop();
    }
}

fn handle_connection(service: &RecallService, mut stream: TcpStream) {
    let mut first = [0u8; 1];
    if stream.read_exact(&mut first).is_err() {
        return;
    }
    if first[0] == REQUEST_MAGIC {
        handle_binary_session(service, stream);
    } else {
        handle_http_session(service, stream, first[0]);
    }
}

// ---------------------------------------------------------------- binary

fn handle_binary_session(service: &RecallService, mut stream: TcpStream) {
    // The first frame's magic byte is already consumed by the sniffer.
    loop {
        let mut header = [0u8; 5];
        if stream.read_exact(&mut header).is_err() {
            return;
        }
        let body_len = u32::from_le_bytes(header[1..5].try_into().expect("len")) as usize;
        if header[0] != WIRE_VERSION || body_len > MAX_BODY_BYTES {
            let body = ServeError::BadRequest("bad binary frame header".to_owned()).to_json();
            let _ = write_binary_frame(&mut stream, 400, body.as_bytes());
            return;
        }
        let mut frame = Vec::with_capacity(6 + body_len);
        frame.push(REQUEST_MAGIC);
        frame.extend_from_slice(&header);
        let start = frame.len();
        frame.resize(start + body_len, 0);
        if stream.read_exact(&mut frame[start..]).is_err() {
            return;
        }
        let outcome = match ApiRecallRequest::decode_binary(&frame) {
            Ok(request) => service.handle(&request),
            Err(e) => Err(ServeError::BadRequest(e.message)),
        };
        service.recorder().counter("server.binary_requests", 1);
        let ok = match outcome {
            Ok(response) => write_binary_frame(&mut stream, 200, &response.encode_binary()).is_ok(),
            Err(e) => write_binary_frame(&mut stream, e.status(), e.to_json().as_bytes()).is_ok(),
        };
        if !ok {
            return;
        }
        // Next frame (if the client keeps the session open).
        let mut magic = [0u8; 1];
        if stream.read_exact(&mut magic).is_err() || magic[0] != REQUEST_MAGIC {
            return;
        }
    }
}

fn write_binary_frame(stream: &mut TcpStream, status: u16, body: &[u8]) -> std::io::Result<()> {
    let mut out = Vec::with_capacity(8 + body.len());
    out.push(RESPONSE_MAGIC);
    out.push(WIRE_VERSION);
    out.extend_from_slice(&status.to_le_bytes());
    out.extend_from_slice(&(body.len() as u32).to_le_bytes());
    out.extend_from_slice(body);
    stream.write_all(&out)
}

// ------------------------------------------------------------------ http

struct HttpRequest {
    method: String,
    path: String,
    body: String,
    keep_alive: bool,
}

fn handle_http_session(service: &RecallService, mut stream: TcpStream, first_byte: u8) {
    let mut pending = vec![first_byte];
    loop {
        let Some((request, rest)) = read_http_request(&mut stream, std::mem::take(&mut pending))
        else {
            return;
        };
        let keep_alive = request.keep_alive;
        if route(service, &mut stream, &request).is_err() || !keep_alive {
            return;
        }
        // Bytes of a pipelined next request that arrived in the same read.
        pending = rest;
    }
}

/// Reads one HTTP/1.1 request (header block then `Content-Length` body),
/// starting from the already-received bytes in `buf`. Returns the request
/// and any bytes received past its body — the start of the next request.
/// Returns `None` on EOF or a malformed/oversized request.
fn read_http_request(stream: &mut impl Read, mut buf: Vec<u8>) -> Option<(HttpRequest, Vec<u8>)> {
    let header_end = loop {
        if let Some(pos) = find_header_end(&buf) {
            break pos;
        }
        if buf.len() > MAX_HEADER_BYTES {
            return None;
        }
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        buf.extend_from_slice(&chunk[..n]);
    };
    let header_text = String::from_utf8_lossy(&buf[..header_end]).into_owned();
    let mut lines = header_text.split("\r\n");
    let request_line = lines.next()?;
    let mut parts = request_line.split_whitespace();
    let method = parts.next()?.to_owned();
    let path = parts.next()?.to_owned();
    let mut content_length = 0usize;
    let mut keep_alive = true; // HTTP/1.1 default
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = value.parse().ok()?;
        } else if name.eq_ignore_ascii_case("connection") {
            keep_alive = !value.eq_ignore_ascii_case("close");
        }
    }
    if content_length > MAX_BODY_BYTES {
        return None;
    }
    let mut body_bytes = buf.split_off(header_end + 4);
    while body_bytes.len() < content_length {
        let mut chunk = [0u8; 4096];
        let n = stream.read(&mut chunk).ok()?;
        if n == 0 {
            return None;
        }
        body_bytes.extend_from_slice(&chunk[..n]);
    }
    let rest = body_bytes.split_off(content_length);
    let request = HttpRequest {
        method,
        path,
        body: String::from_utf8(body_bytes).ok()?,
        keep_alive,
    };
    Some((request, rest))
}

fn find_header_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

fn route(
    service: &RecallService,
    stream: &mut TcpStream,
    request: &HttpRequest,
) -> std::io::Result<()> {
    service.recorder().counter("server.http_requests", 1);
    let (status, body, extra): (u16, String, Vec<String>) =
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => (
                200,
                JsonValue::object([("status", JsonValue::Str("ok".to_owned()))]).render(),
                Vec::new(),
            ),
            ("GET", "/metrics") => (200, service.metrics_json().render(), Vec::new()),
            ("POST", "/v1/recall") => match ApiRecallRequest::from_json(&request.body) {
                Ok(call) => match service.handle(&call) {
                    Ok(response) => (200, response.to_json(), Vec::new()),
                    Err(e) => {
                        let extra = match &e {
                            ServeError::OverQuota { retry_after_secs } => {
                                vec![format!("Retry-After: {retry_after_secs}")]
                            }
                            _ => Vec::new(),
                        };
                        (e.status(), e.to_json(), extra)
                    }
                },
                Err(e) => {
                    let err = ServeError::BadRequest(e.message);
                    (err.status(), err.to_json(), Vec::new())
                }
            },
            ("POST", "/v1/tenants") => register_tenant(service, &request.body),
            ("DELETE", path) if path.starts_with("/v1/tenants/") => {
                let name = &path["/v1/tenants/".len()..];
                if service.registry().evict(name) {
                    (
                        200,
                        JsonValue::object([("evicted", JsonValue::Str(name.to_owned()))]).render(),
                        Vec::new(),
                    )
                } else {
                    let err = ServeError::UnknownTenant(name.to_owned());
                    (err.status(), err.to_json(), Vec::new())
                }
            }
            _ => {
                let err = ServeError::BadRequest(format!(
                    "no route for {} {}",
                    request.method, request.path
                ));
                (404, err.to_json(), Vec::new())
            }
        };
    service
        .recorder()
        .counter(&format!("server.http_responses.{status}"), 1);
    write_http(&mut &*stream, status, &body, &extra)
}

fn register_tenant(service: &RecallService, body: &str) -> (u16, String, Vec<String>) {
    match parse_tenant_registration(body) {
        Ok((name, spec, options)) => match service.registry().register(&name, &spec, &options) {
            Ok(tenant) => (
                201,
                JsonValue::object([
                    ("tenant", JsonValue::Str(tenant.name().to_owned())),
                    ("kind", JsonValue::Str(tenant.kind().as_str().to_owned())),
                    ("vector_len", JsonValue::Uint(tenant.vector_len() as u64)),
                ])
                .render(),
                Vec::new(),
            ),
            Err(e @ RegistryError::Duplicate(_)) => (
                409,
                error_body(409, "duplicate", &e.to_string()),
                Vec::new(),
            ),
            Err(e @ RegistryError::Build(_)) => {
                (400, error_body(400, "bad_spec", &e.to_string()), Vec::new())
            }
        },
        Err(message) => (400, error_body(400, "bad_spec", &message), Vec::new()),
    }
}

fn error_body(status: u16, kind: &str, message: &str) -> String {
    JsonValue::object([(
        "error",
        JsonValue::object([
            ("status", JsonValue::Uint(u64::from(status))),
            ("kind", JsonValue::Str(kind.to_owned())),
            ("message", JsonValue::Str(message.to_owned())),
        ]),
    )])
    .render()
}

/// Parses a tenant-registration document:
///
/// ```json
/// {
///   "tenant": "alpha",
///   "kind": "tiled",
///   "patterns": [[31, 0, …], …],
///   "fidelity": "driven",
///   "seed": 42,
///   "tile_capacity": 64,
///   "top_k": 4,
///   "segments": 2,
///   "clusters": 3,
///   "quota_qps": 500.0,
///   "quota_burst": 50.0,
///   "workers": 2,
///   "queue_capacity": 16
/// }
/// ```
///
/// `tenant`, `kind` and `patterns` are required; everything else
/// defaults (`segments`/`clusters`/`tile_capacity` only apply to their
/// kinds). A present field of the wrong type is an error, not the default,
/// and so are `workers` above [`MAX_WORKERS`] and a tile of more than
/// [`MAX_TILE_CELLS`] cells.
fn parse_tenant_registration(
    body: &str,
) -> Result<(String, DeploymentSpec, TenantOptions), String> {
    let doc = json::parse(body).map_err(|e| format!("malformed JSON: {e}"))?;
    let name = doc
        .get("tenant")
        .and_then(JsonValue::as_str)
        .ok_or("missing string field `tenant`")?
        .to_owned();
    let kind = doc
        .get("kind")
        .and_then(JsonValue::as_str)
        .and_then(DeploymentKind::parse)
        .ok_or("`kind` must be flat|partitioned|hierarchical|tiled")?;
    let patterns = doc
        .get("patterns")
        .and_then(JsonValue::as_array)
        .ok_or("missing array field `patterns`")?
        .iter()
        .map(|row| {
            row.as_array()
                .ok_or("`patterns` must be an array of arrays")?
                .iter()
                .map(|v| {
                    v.as_u64()
                        .and_then(|u| u32::try_from(u).ok())
                        .ok_or("pattern elements must be u32 levels")
                })
                .collect::<Result<Vec<u32>, &str>>()
        })
        .collect::<Result<Vec<Vec<u32>>, &str>>()?;
    let mut config = AmmConfig::default();
    let parse_fidelity = |v: &JsonValue| match v.as_str()? {
        "ideal" => Some(Fidelity::Ideal),
        "driven" => Some(Fidelity::Driven),
        "parasitic" => Some(Fidelity::Parasitic),
        _ => None,
    };
    if let Some(fidelity) = optional(&doc, "fidelity", parse_fidelity, "ideal|driven|parasitic")? {
        config.fidelity = fidelity;
    }
    if let Some(seed) = optional(&doc, "seed", JsonValue::as_u64, "a non-negative integer")? {
        config.seed = seed;
    }
    let usize_field = |key: &str, default: usize| -> Result<usize, String> {
        let read = |v: &JsonValue| v.as_u64().and_then(|u| usize::try_from(u).ok());
        Ok(optional(&doc, key, read, "a non-negative integer")?.unwrap_or(default))
    };
    let spec = match kind {
        DeploymentKind::Flat => DeploymentSpec::Flat { patterns, config },
        DeploymentKind::Partitioned => DeploymentSpec::Partitioned {
            patterns,
            segments: usize_field("segments", 2)?,
            config,
        },
        DeploymentKind::Hierarchical => DeploymentSpec::Hierarchical {
            patterns,
            clusters: usize_field("clusters", 2)?,
            config,
        },
        DeploymentKind::Tiled => {
            let tile_capacity = usize_field("tile_capacity", 64)?;
            let rows = patterns.first().map_or(0, Vec::len);
            let cells = rows.saturating_mul(tile_capacity.saturating_add(config.spare_columns));
            if cells > MAX_TILE_CELLS {
                return Err(format!(
                    "a tile of {rows} rows and {tile_capacity} templates has {cells} cells; \
                     at most {MAX_TILE_CELLS} are allowed"
                ));
            }
            DeploymentSpec::Tiled {
                patterns,
                tile_capacity,
                top_k: usize_field("top_k", 1)?,
                config,
            }
        }
    };
    let burst = optional(&doc, "quota_burst", JsonValue::as_f64, "a number")?;
    let quota = optional(&doc, "quota_qps", JsonValue::as_f64, "a number")?
        .map(|qps| (qps, burst.unwrap_or_else(|| qps.max(1.0))));
    let defaults = TenantOptions::default();
    let workers = usize_field("workers", defaults.engine.workers)?;
    if workers > MAX_WORKERS {
        return Err(format!(
            "`workers` is {workers}; at most {MAX_WORKERS} are allowed"
        ));
    }
    let engine = EngineConfig {
        workers,
        queue_capacity: usize_field("queue_capacity", defaults.engine.queue_capacity)?,
    };
    Ok((name, spec, TenantOptions { quota, engine }))
}

/// Reads the optional field `key` of `doc` with `read`: `None` when it is
/// absent, an error naming `expected` when it is present but unreadable.
fn optional<'a, T>(
    doc: &'a JsonValue,
    key: &str,
    read: impl Fn(&'a JsonValue) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, String> {
    doc.get(key)
        .map(|v| read(v).ok_or_else(|| format!("`{key}` must be {expected}")))
        .transpose()
}

fn write_http(
    stream: &mut impl Write,
    status: u16,
    body: &str,
    extra_headers: &[String],
) -> std::io::Result<()> {
    let reason = match status {
        200 => "OK",
        201 => "Created",
        400 => "Bad Request",
        404 => "Not Found",
        409 => "Conflict",
        429 => "Too Many Requests",
        503 => "Service Unavailable",
        _ => "Response",
    };
    // Header and body go out in one write: two small writes on a
    // keep-alive socket would hold the body back under Nagle's algorithm
    // until the client's delayed ACK.
    let mut out = format!(
        "HTTP/1.1 {status} {reason}\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for header in extra_headers {
        out.push_str(header);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    out.push_str(body);
    stream.write_all(out.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModuleRegistry;

    /// A writer that records every `write` call it receives.
    #[derive(Default)]
    struct CountingWriter {
        writes: usize,
        bytes: Vec<u8>,
    }

    impl Write for CountingWriter {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.writes += 1;
            self.bytes.extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A registration document for tenant `t` of `kind` storing `bank`,
    /// with `extra` spliced in after the patterns.
    fn registration(kind: &str, bank: &[Vec<u32>], extra: &str) -> String {
        let rows: Vec<String> = bank.iter().map(|p| format!("{p:?}")).collect();
        format!(
            r#"{{"tenant":"t","kind":"{kind}","patterns":[{}]{extra}}}"#,
            rows.join(",")
        )
    }

    #[test]
    fn registration_bounds_the_worker_count() {
        let bank = [vec![0, 31], vec![31, 0]];
        let most = registration("flat", &bank, &format!(r#","workers":{MAX_WORKERS}"#));
        let (_, _, options) = parse_tenant_registration(&most).unwrap();
        assert_eq!(options.engine.workers, MAX_WORKERS);
        for workers in [MAX_WORKERS as u64 + 1, 1 << 40] {
            let body = registration("flat", &bank, &format!(r#","workers":{workers}"#));
            let message = parse_tenant_registration(&body).unwrap_err();
            assert!(message.contains("`workers`"), "{message}");
        }
    }

    #[test]
    fn registration_bounds_the_cells_of_a_tile() {
        // The default 64-template tile at 128 rows and the README example.
        let faces = [vec![15; 128]];
        let readme = [vec![0, 31, 0, 31], vec![31, 0, 31, 0], vec![15, 15, 15, 15]];
        for body in [
            registration("tiled", &faces, ""),
            registration("tiled", &readme, r#","tile_capacity":2,"top_k":2"#),
        ] {
            parse_tenant_registration(&body).unwrap();
        }
        let widest = MAX_TILE_CELLS / 128;
        let fits = registration("tiled", &faces, &format!(r#","tile_capacity":{widest}"#));
        parse_tenant_registration(&fits).unwrap();
        for capacity in [widest as u64 + 1, u64::MAX] {
            let body = registration("tiled", &faces, &format!(r#","tile_capacity":{capacity}"#));
            let message = parse_tenant_registration(&body).unwrap_err();
            assert!(message.contains("cells"), "{message}");
        }
    }

    #[test]
    fn registration_rejects_present_fields_of_the_wrong_type() {
        let bank = [vec![0, 31], vec![31, 0]];
        for (kind, field) in [
            ("flat", r#""workers":-1"#),
            ("flat", r#""queue_capacity":"16""#),
            ("flat", r#""seed":1.5"#),
            ("flat", r#""fidelity":3"#),
            ("flat", r#""fidelity":"exact""#),
            ("flat", r#""quota_qps":"fast""#),
            ("flat", r#""quota_burst":[8]"#),
            ("partitioned", r#""segments":2.5"#),
            ("hierarchical", r#""clusters":-2"#),
            ("tiled", r#""tile_capacity":"64""#),
            ("tiled", r#""top_k":true"#),
        ] {
            let body = registration(kind, &bank, &format!(",{field}"));
            let message = parse_tenant_registration(&body).unwrap_err();
            let key = field.split('"').nth(1).unwrap();
            assert!(message.contains(&format!("`{key}`")), "{field}: {message}");
        }
    }

    #[test]
    fn response_goes_out_in_one_write() {
        let mut out = CountingWriter::default();
        write_http(&mut out, 429, "{\"a\":1}", &["Retry-After: 2".to_owned()]).unwrap();
        assert_eq!(out.writes, 1);
        let text = String::from_utf8(out.bytes).unwrap();
        assert!(text.starts_with("HTTP/1.1 429 Too Many Requests\r\n"));
        assert!(text.contains("Retry-After: 2\r\n"));
        assert!(text.ends_with("\r\n\r\n{\"a\":1}"));
    }

    #[test]
    fn read_keeps_bytes_past_the_body_for_the_next_request() {
        let raw = b"POST /v1/recall HTTP/1.1\r\nContent-Length: 2\r\n\r\n{}GET /hea";
        let (request, rest) = read_http_request(&mut &b""[..], raw.to_vec()).unwrap();
        assert_eq!(
            (request.method.as_str(), request.body.as_str()),
            ("POST", "{}")
        );
        assert_eq!(rest, b"GET /hea");
        let mut tail = &b"lthz HTTP/1.1\r\n\r\n"[..];
        let (next, rest) = read_http_request(&mut tail, rest).unwrap();
        assert_eq!(
            (next.method.as_str(), next.path.as_str()),
            ("GET", "/healthz")
        );
        assert!(rest.is_empty());
    }

    #[test]
    fn pipelined_requests_in_one_write_get_two_responses() {
        let config = ServerConfig {
            bind: "127.0.0.1:0".to_owned(),
            ..ServerConfig::default()
        };
        let service = Arc::new(RecallService::new(Arc::new(ModuleRegistry::new()), &config));
        let server = SpinServer::start(service, &config).unwrap();
        let mut stream = TcpStream::connect(server.addr()).unwrap();
        // A lost second request would otherwise hang the read forever.
        stream
            .set_read_timeout(Some(std::time::Duration::from_secs(5)))
            .unwrap();
        stream
            .write_all(
                b"GET /healthz HTTP/1.1\r\nHost: a\r\n\r\n\
                  GET /healthz HTTP/1.1\r\nHost: a\r\nConnection: close\r\n\r\n",
            )
            .unwrap();
        let mut raw = Vec::new();
        let _ = stream.read_to_end(&mut raw);
        let raw = String::from_utf8_lossy(&raw);
        assert_eq!(raw.matches("HTTP/1.1 200 OK").count(), 2, "{raw}");
        server.shutdown();
    }
}
