//! End-to-end smoke over real TCP on loopback: registers tenants over
//! HTTP, fires a mixed-tenant query burst, asserts the 200/429 split and
//! the `/metrics` document schema, exercises the binary framing on the
//! same port, and evicts a tenant. CI's test step runs it.

use spinamm_core::amm::AmmConfig;
use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse, RESPONSE_MAGIC, WIRE_VERSION};
use spinamm_server::registry::{DeploymentSpec, ModuleRegistry, TenantOptions};
use spinamm_server::service::{RecallService, ServerConfig};
use spinamm_server::SpinServer;
use spinamm_telemetry::json::{self, JsonValue};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::sync::Arc;

fn patterns() -> Vec<Vec<u32>> {
    vec![vec![0, 31, 0, 31], vec![31, 0, 31, 0], vec![15, 15, 15, 15]]
}

/// One HTTP/1.1 exchange on a fresh connection; returns (status, body).
fn http(addr: std::net::SocketAddr, method: &str, path: &str, body: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!(
        "{method} {path} HTTP/1.1\r\nHost: localhost\r\nConnection: close\r\n\
         Content-Length: {}\r\n\r\n{body}",
        body.len()
    );
    stream.write_all(request.as_bytes()).expect("send");
    let mut raw = String::new();
    stream.read_to_string(&mut raw).expect("receive");
    let status: u16 = raw
        .split_whitespace()
        .nth(1)
        .expect("status line")
        .parse()
        .expect("status code");
    let body = raw
        .split_once("\r\n\r\n")
        .map(|(_, b)| b.to_owned())
        .unwrap_or_default();
    (status, body)
}

fn start_server() -> (SpinServer, Arc<RecallService>) {
    let registry = Arc::new(ModuleRegistry::new());
    registry
        .register(
            "bulk",
            &DeploymentSpec::Flat {
                patterns: patterns(),
                config: AmmConfig::default(),
            },
            &TenantOptions::default(),
        )
        .expect("register bulk");
    registry
        .register(
            "throttled",
            &DeploymentSpec::Flat {
                patterns: patterns(),
                config: AmmConfig::default(),
            },
            &TenantOptions {
                // Two burst tokens, glacial refill: a burst sees exactly
                // two 200s, the rest 429.
                quota: Some((1e-3, 2.0)),
                ..TenantOptions::default()
            },
        )
        .expect("register throttled");
    let config = ServerConfig::builder().bind("127.0.0.1:0").build();
    let service = Arc::new(RecallService::new(registry, &config));
    let server = SpinServer::start(Arc::clone(&service), &config).expect("bind");
    (server, service)
}

#[test]
fn mixed_tenant_burst_splits_200_and_429_and_metrics_report_it() {
    let (server, _service) = start_server();
    let addr = server.addr();
    let query = ApiRecallRequest {
        tenant: String::new(),
        input: vec![0, 31, 0, 31],
    };

    let (status, body) = http(addr, "GET", "/healthz", "");
    assert_eq!(status, 200, "healthz: {body}");

    // 6 queries to the open tenant, 6 to the throttled one (burst 2).
    let mut statuses = Vec::new();
    for tenant in ["bulk", "throttled"] {
        for _ in 0..6 {
            let body = ApiRecallRequest {
                tenant: tenant.to_owned(),
                ..query.clone()
            }
            .to_json();
            let (status, payload) = http(addr, "POST", "/v1/recall", &body);
            if status == 200 {
                let response = ApiRecallResponse::from_json(&payload).expect("response json");
                assert_eq!(response.tenant, tenant);
                assert_eq!(response.winner, 0, "query matches stored pattern 0");
            } else {
                let doc = json::parse(&payload).expect("error json");
                assert_eq!(
                    doc.get("error")
                        .and_then(|e| e.get("kind"))
                        .and_then(JsonValue::as_str),
                    Some("over_quota")
                );
            }
            statuses.push((tenant, status));
        }
    }
    let ok = |t: &str| {
        statuses
            .iter()
            .filter(|(n, s)| *n == t && *s == 200)
            .count()
    };
    let throttled_429 = statuses
        .iter()
        .filter(|(n, s)| *n == "throttled" && *s == 429)
        .count();
    assert_eq!(ok("bulk"), 6, "open tenant serves everything");
    assert_eq!(ok("throttled"), 2, "throttled tenant serves its burst");
    assert_eq!(throttled_429, 4, "the rest are typed 429s");

    // /metrics: per-tenant engine counters plus the server-level split.
    let (status, body) = http(addr, "GET", "/metrics", "");
    assert_eq!(status, 200);
    let doc = json::parse(&body).expect("metrics json");
    let server_metrics = doc
        .get("server")
        .and_then(|s| s.get("metrics"))
        .expect("server.metrics");
    let counter = |v: &JsonValue, name: &str| {
        v.get("counters")
            .and_then(|c| c.get(name))
            .and_then(JsonValue::as_u64)
    };
    assert_eq!(counter(server_metrics, "server.served"), Some(8));
    assert_eq!(
        counter(server_metrics, "server.rejected.over_quota"),
        Some(4)
    );
    for tenant in ["bulk", "throttled"] {
        let t = doc
            .get("tenants")
            .and_then(|t| t.get(tenant))
            .unwrap_or_else(|| panic!("tenant {tenant} in /metrics"));
        assert_eq!(
            t.get("kind").and_then(JsonValue::as_str),
            Some("flat"),
            "tenant {tenant} kind"
        );
        let metrics = t.get("metrics").expect("tenant metrics");
        let completed = counter(metrics, "engine.completed").unwrap_or(0);
        assert_eq!(completed, if tenant == "bulk" { 6 } else { 2 });
        // Queue-wait attribution lands on the tenant's own recorder.
        let queue_wait = metrics
            .get("histograms")
            .and_then(|h| h.get("engine.queue_wait_ns"))
            .and_then(|h| h.get("count"))
            .and_then(JsonValue::as_u64)
            .unwrap_or(0);
        assert_eq!(queue_wait, completed, "tenant {tenant} queue-wait samples");
    }

    server.shutdown();
}

#[test]
fn binary_framing_serves_on_the_same_port() {
    let (server, _service) = start_server();
    let mut stream = TcpStream::connect(server.addr()).expect("connect");
    let request = ApiRecallRequest {
        tenant: "bulk".to_owned(),
        input: vec![31, 0, 31, 0],
    };
    // Two frames on one session: the framing is persistent.
    for _ in 0..2 {
        stream.write_all(&request.encode_binary()).expect("send");
        let mut header = [0u8; 8];
        stream.read_exact(&mut header).expect("response header");
        assert_eq!(header[0], RESPONSE_MAGIC);
        assert_eq!(header[1], WIRE_VERSION);
        let status = u16::from_le_bytes([header[2], header[3]]);
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        assert_eq!(status, 200);
        let mut body = vec![0u8; len];
        stream.read_exact(&mut body).expect("response body");
        let response = ApiRecallResponse::decode_binary(&body).expect("decode");
        assert_eq!(response.tenant, "bulk");
        assert_eq!(response.winner, 1);
    }
    server.shutdown();
}

#[test]
fn tenants_register_and_evict_over_http() {
    let (server, _service) = start_server();
    let addr = server.addr();
    let spec = r#"{
        "tenant": "dynamic",
        "kind": "tiled",
        "patterns": [[0, 31, 0, 31], [31, 0, 31, 0], [15, 15, 15, 15]],
        "tile_capacity": 2,
        "top_k": 2,
        "quota_qps": 100.0,
        "seed": 7
    }"#;
    let (status, body) = http(addr, "POST", "/v1/tenants", spec);
    assert_eq!(status, 201, "register: {body}");
    let doc = json::parse(&body).expect("registration json");
    assert_eq!(doc.get("kind").and_then(JsonValue::as_str), Some("tiled"));

    // Duplicate name conflicts; bad kind is a 400.
    let (status, _) = http(addr, "POST", "/v1/tenants", spec);
    assert_eq!(status, 409);
    let (status, _) = http(
        addr,
        "POST",
        "/v1/tenants",
        r#"{"tenant":"x","kind":"nope","patterns":[[1]]}"#,
    );
    assert_eq!(status, 400);

    // The new tenant serves, ranked matches included.
    let query = ApiRecallRequest {
        tenant: "dynamic".to_owned(),
        input: vec![0, 31, 0, 31],
    };
    let (status, body) = http(addr, "POST", "/v1/recall", &query.to_json());
    assert_eq!(status, 200, "recall on dynamic tenant: {body}");
    let response = ApiRecallResponse::from_json(&body).expect("response json");
    assert_eq!(response.matches.len(), 2, "top_k=2 ranked matches");

    // Evict, then the tenant is gone.
    let (status, _) = http(addr, "DELETE", "/v1/tenants/dynamic", "");
    assert_eq!(status, 200);
    let (status, _) = http(addr, "POST", "/v1/recall", &query.to_json());
    assert_eq!(status, 404);
    let (status, _) = http(addr, "DELETE", "/v1/tenants/dynamic", "");
    assert_eq!(status, 404);

    server.shutdown();
}

#[test]
fn unknown_routes_and_malformed_bodies_are_typed_errors() {
    let (server, _service) = start_server();
    let addr = server.addr();
    let (status, _) = http(addr, "GET", "/v1/unknown", "");
    assert_eq!(status, 404);
    let (status, body) = http(addr, "POST", "/v1/recall", "{not json");
    assert_eq!(status, 400);
    let doc = json::parse(&body).expect("error body");
    assert_eq!(
        doc.get("error")
            .and_then(|e| e.get("kind"))
            .and_then(JsonValue::as_str),
        Some("bad_request")
    );
    server.shutdown();
}
