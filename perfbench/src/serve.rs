//! `serve`: one in-process `SpinServer` on 127.0.0.1 with four tenants,
//! one per deployment kind (flat; partitioned in 4 segments; hierarchical
//! in 4 clusters; tiled with top-k 5), each storing 40 patterns of 128
//! rows at the default driven fidelity with default `TenantOptions`.
//!
//! Three phases, never more than two client threads and connections:
//!
//! * A — open loop over binary framing at one fixed offered rate,
//!   round-robin over the tenants; latency counts from each request's
//!   scheduled send time.
//! * B — closed loop, two binary connections back to back.
//! * C — one HTTP/1.1 keep-alive connection sending JSON recalls, then
//!   `GET /metrics` requests, each on a fresh connection.
//!
//! Each tenant is only ever driven by one client thread at a time, so its
//! responses come back in a known order: after the run every response is
//! compared, energy bits included, with sequential `Deployment::recall` on
//! a fresh build of the tenant's spec.

use crate::report::{Ledger, Report, Run};
use crate::spans::SpanLog;
use crate::stats::{median, nproc, percentile, process_cpu_s, secs, timed, RefKernel};
use spinamm_core::amm::AmmConfig;
use spinamm_core::{CoreError, RecallRequest};
use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
use spinamm_engine::{Deployment, EngineResponse, RecallEngine};
use spinamm_server::api::{ApiRecallRequest, ApiRecallResponse, RESPONSE_MAGIC};
use spinamm_server::registry::{DeploymentSpec, ModuleRegistry, TenantOptions};
use spinamm_server::service::{RecallService, ServerConfig};
use spinamm_server::SpinServer;
use spinamm_telemetry::{MemoryRecorder, NoopRecorder, TelemetrySnapshot};
use std::collections::HashSet;
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

const NAMES: [&str; 4] = ["flat", "partitioned", "hierarchical", "tiled"];
const PATTERNS: usize = 40;
const ROWS: usize = 128;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;
/// Phase A's offered rate, requests per second over all tenants.
const OFFERED_QPS: f64 = 1_000.0;
/// Phase B bursts.
const BURSTS: usize = 20;
/// Phase A requests whose outcome defines `sim_accuracy` / `sim_energy_pj`.
const PREFIX: usize = 1_600;
/// Queries per tenant run twice through fresh engines to check that the
/// simulated counters repeat.
const COUNTER_CHECK: usize = 16;
/// Requests replayed in-process in the traced pass.
const REPLAYED: usize = 400;
/// Largest response body the client accepts, bytes.
const MAX_BODY: usize = 64 << 20;

/// The four tenants' specs and their seeded query pools.
struct Tenants {
    specs: Vec<DeploymentSpec>,
    queries: Vec<Vec<(usize, Vec<u32>)>>,
}

impl Tenants {
    fn generate(seed: u64, per_tenant: usize) -> Result<Self, String> {
        let mut specs = Vec::new();
        let mut queries = Vec::new();
        for (t, name) in NAMES.iter().enumerate() {
            let w = PatternWorkload::generate(&WorkloadConfig {
                pattern_count: PATTERNS,
                vector_len: ROWS,
                bits: 5,
                query_count: per_tenant,
                query_noise: 0.3,
                noise_magnitude: 2,
                similarity: 0.0,
                seed: seed ^ 0x5e7e_0000 ^ (t as u64) << 8,
            })
            .map_err(|e| e.to_string())?;
            let config = AmmConfig::default();
            let patterns = w.patterns;
            specs.push(match *name {
                "flat" => DeploymentSpec::Flat { patterns, config },
                "partitioned" => DeploymentSpec::Partitioned {
                    patterns,
                    segments: 4,
                    config,
                },
                "hierarchical" => DeploymentSpec::Hierarchical {
                    patterns,
                    clusters: 4,
                    config,
                },
                _ => DeploymentSpec::Tiled {
                    patterns,
                    tile_capacity: 16,
                    top_k: 5,
                    config,
                },
            });
            let mut seen = HashSet::new();
            queries.push(
                w.queries
                    .into_iter()
                    .filter(|(_, q)| seen.insert(q.clone()))
                    .collect(),
            );
        }
        Ok(Self { specs, queries })
    }

    fn request(&self, job: &Job) -> ApiRecallRequest {
        ApiRecallRequest {
            tenant: NAMES[job.tenant].to_owned(),
            input: self.queries[job.tenant][job.query].1.clone(),
        }
    }
}

/// One request of a phase: which tenant, which query of its pool, and for
/// phase A when it is due.
#[derive(Debug, Clone, Copy)]
struct Job {
    tenant: usize,
    query: usize,
    due_ns: u64,
    traced: bool,
}

impl Job {
    /// The span request id: unique per (tenant, query) within a run.
    fn id(&self) -> u64 {
        (self.tenant * 1_000_000 + self.query) as u64
    }
}

/// What the client saw for one request.
#[derive(Debug)]
struct Outcome {
    job: Job,
    response: Option<ApiRecallResponse>,
    /// Round trip plus, in the open loop, the wait the previous response
    /// imposed past the due time, ms.
    latency_ms: f64,
    /// How late the send was behind its schedule, µs.
    lag_us: f64,
}

/// Assigns the next `n` requests round-robin over the tenants, consuming
/// each tenant's queries in order.
fn schedule(next: &mut [usize; 4], n: usize, rate: Option<f64>, traced: bool) -> Vec<Job> {
    (0..n)
        .map(|i| {
            let tenant = i % NAMES.len();
            let query = next[tenant];
            next[tenant] += 1;
            Job {
                tenant,
                query,
                due_ns: rate.map_or(0, |r| (i as f64 / r * 1e9) as u64),
                // Every other request of a client is spanned, so the traced
                // and untraced halves see the same host conditions.
                traced: traced && (i / NAMES.len()) % 2 == 0,
            }
        })
        .collect()
}

/// A client connection.
struct Wire {
    stream: TcpStream,
}

impl Wire {
    fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Self { stream })
    }

    /// One binary round trip: the status and the response body.
    fn binary(&mut self, frame: &[u8]) -> std::io::Result<(u16, Vec<u8>)> {
        self.stream.write_all(frame)?;
        let mut head = [0u8; 8];
        self.stream.read_exact(&mut head)?;
        let len = u32::from_le_bytes([head[4], head[5], head[6], head[7]]) as usize;
        if head[0] != RESPONSE_MAGIC || len > MAX_BODY {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "bad response frame",
            ));
        }
        let mut body = vec![0; len];
        self.stream.read_exact(&mut body)?;
        Ok((u16::from_le_bytes([head[2], head[3]]), body))
    }

    /// One HTTP/1.1 exchange: the status and the response body.
    fn http(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
        close: bool,
    ) -> std::io::Result<(u16, String)> {
        let connection = if close { "Connection: close\r\n" } else { "" };
        let request = format!(
            "{method} {path} HTTP/1.1\r\nHost: 127.0.0.1\r\nContent-Type: application/json\r\nContent-Length: {}\r\n{connection}\r\n{body}",
            body.len()
        );
        self.stream.write_all(request.as_bytes())?;
        let bad =
            |what: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, what.to_owned());
        let mut buf = Vec::new();
        let mut chunk = [0u8; 8192];
        let header_end = loop {
            if let Some(p) = buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break p;
            }
            let n = self.stream.read(&mut chunk)?;
            if n == 0 || buf.len() > 64 * 1024 {
                return Err(bad("truncated HTTP header"));
            }
            buf.extend_from_slice(&chunk[..n]);
        };
        let head = String::from_utf8_lossy(&buf[..header_end]).into_owned();
        let status = head
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let length: usize = head
            .lines()
            .find_map(|l| {
                let (k, v) = l.split_once(':')?;
                k.eq_ignore_ascii_case("content-length")
                    .then(|| v.trim().parse().ok())?
            })
            .ok_or_else(|| bad("no Content-Length"))?;
        if length > MAX_BODY {
            return Err(bad("oversized body"));
        }
        let mut body = buf[header_end + 4..].to_vec();
        while body.len() < length {
            let n = self.stream.read(&mut chunk)?;
            if n == 0 {
                return Err(bad("truncated HTTP body"));
            }
            body.extend_from_slice(&chunk[..n]);
        }
        body.truncate(length);
        String::from_utf8(body)
            .map(|b| (status, b))
            .map_err(|_| bad("body is not UTF-8"))
    }
}

/// One binary recall, spanned as encode / wait / decode when the job is
/// traced.
fn binary_call(
    wire: &mut Wire,
    tenants: &Tenants,
    job: &Job,
    log: &mut SpanLog,
    id: u64,
) -> Option<ApiRecallResponse> {
    let request = tenants.request(job);
    if !job.traced {
        let (status, body) = wire.binary(&request.encode_binary()).ok()?;
        return (status == 200)
            .then(|| ApiRecallResponse::decode_binary(&body).ok())
            .flatten();
    }
    log.span("request", id, |log| {
        let frame = log.span("client.encode", id, |_| request.encode_binary());
        let (status, body) = log.span("client.wait", id, |_| wire.binary(&frame)).ok()?;
        let response = log.span("client.decode", id, |_| {
            ApiRecallResponse::decode_binary(&body)
        });
        (status == 200).then_some(response.ok()).flatten()
    })
}

/// One JSON recall on the keep-alive HTTP connection.
fn http_call(
    wire: &mut Wire,
    tenants: &Tenants,
    job: &Job,
    log: &mut SpanLog,
    id: u64,
) -> Option<ApiRecallResponse> {
    let request = tenants.request(job);
    let go = |wire: &mut Wire, log: &mut SpanLog| {
        let body = log.span("client.encode_json", id, |_| request.to_json());
        let (status, body) = log
            .span("client.wait_http", id, |_| {
                wire.http("POST", "/v1/recall", &body, false)
            })
            .ok()?;
        let response = log.span("client.decode_json", id, |_| {
            ApiRecallResponse::from_json(&body)
        });
        (status == 200).then_some(response.ok()).flatten()
    };
    if job.traced {
        log.span("http_request", id, |log| go(wire, log))
    } else {
        go(wire, &mut SpanLog::new(Instant::now()))
    }
}

/// Runs `jobs` on one connection: at their due times (open loop) or back
/// to back (closed loop).
fn client(
    addr: SocketAddr,
    tenants: &Tenants,
    jobs: &[Job],
    anchor: Instant,
    open: bool,
    origin: Instant,
) -> std::io::Result<(Vec<Outcome>, SpanLog)> {
    let mut wire = Wire::connect(addr)?;
    let mut log = SpanLog::new(origin);
    let mut out = Vec::with_capacity(jobs.len());
    let mut prev_done = anchor;
    for job in jobs {
        let due = anchor + Duration::from_nanos(job.due_ns);
        if open {
            // Sleeping, not spinning: with two CPUs a spinning client would
            // take the server's CPU. The wake-up lateness is the lag.
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
        }
        let sent = Instant::now();
        let response = binary_call(&mut wire, tenants, job, &mut log, job.id());
        let done = Instant::now();
        // Open loop: the request is charged from its due time for any wait
        // the previous response imposed on it (coordinated omission), but
        // not for the generator's own wake-up lateness, which is reported
        // separately as the lag.
        let waited = if open {
            prev_done.max(due).saturating_duration_since(due)
        } else {
            Duration::ZERO
        };
        out.push(Outcome {
            job: *job,
            response,
            latency_ms: (done.duration_since(sent) + waited).as_secs_f64() * 1e3,
            lag_us: if open {
                sent.saturating_duration_since(due).as_secs_f64() * 1e6
            } else {
                0.0
            },
        });
        prev_done = done;
    }
    Ok((out, log))
}

/// Runs a phase's jobs over `clients` connections; each tenant's jobs all
/// go to connection `tenant % clients`.
fn drive(
    addr: SocketAddr,
    tenants: &Tenants,
    jobs: &[Job],
    clients: usize,
    open: bool,
    origin: Instant,
) -> Result<(Vec<Outcome>, SpanLog, f64), String> {
    let anchor = Instant::now() + Duration::from_millis(2);
    let split: Vec<Vec<Job>> = (0..clients)
        .map(|c| {
            jobs.iter()
                .filter(|j| j.tenant % clients == c)
                .copied()
                .collect()
        })
        .collect();
    let start = Instant::now();
    let results: Vec<std::io::Result<(Vec<Outcome>, SpanLog)>> = std::thread::scope(|s| {
        let handles: Vec<_> = split
            .iter()
            .map(|part| s.spawn(move || client(addr, tenants, part, anchor, open, origin)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread panicked"))
            .collect()
    });
    let wall = secs(start);
    let mut outcomes = Vec::new();
    let mut log = SpanLog::new(origin);
    for r in results {
        let (o, l) = r.map_err(|e| format!("client: {e}"))?;
        outcomes.extend(o);
        log.absorb(l);
    }
    Ok((outcomes, log, wall))
}

/// A running serving stack.
struct Stack {
    service: Arc<RecallService>,
    server: SpinServer,
}

/// Registry, tenants, service and listener, plus one warm-up request per
/// tenant over binary and over HTTP. Returns the stack and the warm-up
/// outcomes (which the oracle must see: they advance the tenants' RNGs).
fn set_up(
    tenants: &Tenants,
    options: &TenantOptions,
    next: &mut [usize; 4],
) -> Result<(Stack, Vec<Outcome>, f64), String> {
    let registry = Arc::new(ModuleRegistry::new());
    let mut build_s = 0.0;
    for (name, spec) in NAMES.iter().zip(&tenants.specs) {
        let (r, took) = timed(|| registry.register(name, spec, options));
        r.map_err(|e| format!("register {name}: {e}"))?;
        build_s += took;
    }
    let config = ServerConfig::default();
    let service = Arc::new(RecallService::new(registry, &config));
    let server =
        SpinServer::start(Arc::clone(&service), &config).map_err(|e| format!("bind: {e}"))?;
    let origin = Instant::now();
    let jobs = schedule(next, NAMES.len(), None, false);
    let (mut warm, _, _) = drive(server.addr(), tenants, &jobs, 1, false, origin)?;
    let jobs = schedule(next, NAMES.len(), None, false);
    let mut wire = Wire::connect(server.addr()).map_err(|e| e.to_string())?;
    for job in &jobs {
        let response = http_call(&mut wire, tenants, job, &mut SpanLog::new(origin), 0);
        warm.push(Outcome {
            job: *job,
            response,
            latency_ms: 0.0,
            lag_us: 0.0,
        });
    }
    Ok((Stack { service, server }, warm, build_s))
}

/// Runs the first `k` queries of each tenant through a fresh engine with a
/// recorder; two calls must agree on every simulated counter.
fn recorded(
    tenants: &Tenants,
    options: &TenantOptions,
    k: usize,
) -> Result<Vec<TelemetrySnapshot>, String> {
    let mut out = Vec::new();
    for (t, spec) in tenants.specs.iter().enumerate() {
        let recorder = Arc::new(MemoryRecorder::default());
        let deployment = spec
            .build(&MemoryRecorder::default())
            .map_err(|e| e.to_string())?;
        let engine =
            RecallEngine::with_recorder(deployment, &options.engine, Arc::clone(&recorder) as _);
        let inputs: Vec<&[u32]> = tenants.queries[t][..k]
            .iter()
            .map(|(_, q)| q.as_slice())
            .collect();
        engine.recall_many(&inputs).map_err(|e| e.to_string())?;
        engine.shutdown();
        out.push(recorder.snapshot());
    }
    Ok(out)
}

/// Every served response against sequential `Deployment::recall` on a
/// fresh build, in each tenant's order.
fn oracle(
    report: &mut Report,
    tenants: &Tenants,
    served: &mut [Outcome],
    corrupt: bool,
) -> Result<(), String> {
    served.sort_by_key(|o| (o.job.tenant, o.job.query));
    if corrupt {
        if let Some(r) = served.iter_mut().find_map(|o| o.response.as_mut()) {
            r.energy_j = f64::from_bits(r.energy_j.to_bits() ^ 1);
        }
    }
    for (t, spec) in tenants.specs.iter().enumerate() {
        let mut fresh = spec
            .build(&MemoryRecorder::default())
            .map_err(|e| e.to_string())?;
        for o in served.iter().filter(|o| o.job.tenant == t) {
            let want = fresh
                .recall(&tenants.queries[t][o.job.query].1)
                .map(|r| ApiRecallResponse::from_engine(NAMES[t], &r));
            report.check(match (&o.response, want) {
                (Some(got), Ok(want)) => {
                    *got == want && got.energy_j.to_bits() == want.energy_j.to_bits()
                }
                _ => false,
            });
        }
    }
    Ok(())
}

pub fn run(run: &Run) -> Result<Report, String> {
    let mut report = Report::default();
    let s = run.seconds;
    let (n_a, n_b, n_c, n_scrape) = if run.tiny {
        (40, 4 * BURSTS, 4, 2)
    } else {
        (
            (300.0 * s) as usize,
            (100.0 * s) as usize * BURSTS,
            (10.0 * s) as usize,
            (2.0 * s).ceil() as usize,
        )
    };
    let per_tenant = (n_a + n_b + n_c + REPLAYED) / NAMES.len() + 8 * SETUPS + 8;
    let tenants = Tenants::generate(run.seed, per_tenant)?;
    let clients = nproc().min(2);
    let mut options = TenantOptions::default();
    options.engine.workers = options.engine.workers.min(nproc());
    report.context("clients", clients);
    report.context("engine_workers", options.engine.workers);
    report.context("offered_qps", OFFERED_QPS);
    report.context("requests_a_b_c", format!("{n_a}/{n_b}/{n_c}"));

    let k = if run.tiny { 2 } else { COUNTER_CHECK };
    let (x, y) = (
        recorded(&tenants, &options, k)?,
        recorded(&tenants, &options, k)?,
    );
    report.check(
        x.iter()
            .zip(&y)
            .all(|(a, b)| crate::face::same_counters(a, b)),
    );

    let mut next = [0usize; 4];
    let mut served: Vec<Outcome> = Vec::new();
    let mut setups = Vec::new();
    let mut builds = Vec::new();
    let mut stack = None;
    for _ in 0..SETUPS {
        if let Some(old) = stack.take() {
            // Earlier stacks served their warm-up only; the oracle follows
            // the last one, whose tenants start from fresh builds.
            let Stack { service, server }: Stack = old;
            server.shutdown();
            drop(service);
            served.clear();
            next = [0; 4];
        }
        let ((built, warm, build_s), took) = {
            let start = Instant::now();
            let r = set_up(&tenants, &options, &mut next)?;
            (r, secs(start))
        };
        setups.push(took);
        builds.push(build_s);
        served.extend(warm);
        stack = Some(built);
    }
    let Stack { service, server } = stack.expect("at least one set-up");
    let addr = server.addr();
    let origin = Instant::now();

    // Phase A: open loop, binary.
    let jobs = schedule(&mut next, n_a, Some(OFFERED_QPS), run.trace);
    let (a, log_a, _) = drive(addr, &tenants, &jobs, clients, true, origin)?;
    // Phase B: closed loop, binary, back to back, in bursts; the median
    // burst rate is the throughput.
    let mut b = Vec::new();
    let mut burst_qps = Vec::new();
    let mut kernel = RefKernel::new();
    let cpu0 = process_cpu_s();
    for _ in 0..BURSTS {
        // Sampled between bursts, with no request in flight.
        for _ in 0..4 {
            kernel.sample();
        }
        let jobs = schedule(&mut next, n_b / BURSTS, None, false);
        let (out, _, wall) = drive(addr, &tenants, &jobs, clients, false, origin)?;
        burst_qps.push(jobs.len() as f64 / wall);
        b.extend(out);
    }
    // The kernel samples add a few ms of CPU to the phase: under 0.5%.
    let cpu_per_request_s = (process_cpu_s() - cpu0) / n_b as f64;
    // Phase C: JSON over one keep-alive connection, then scrapes.
    let jobs = schedule(&mut next, n_c, None, run.trace);
    let mut log_c = SpanLog::new(origin);
    let mut c = Vec::new();
    let mut wire = Wire::connect(addr).map_err(|e| e.to_string())?;
    for job in &jobs {
        let sent = Instant::now();
        let response = http_call(&mut wire, &tenants, job, &mut log_c, job.id());
        c.push(Outcome {
            job: *job,
            response,
            latency_ms: secs(sent) * 1e3,
            lag_us: 0.0,
        });
    }
    drop(wire);
    let mut scrape_ms = Vec::new();
    for _ in 0..n_scrape {
        let start = Instant::now();
        let ok = Wire::connect(addr)
            .and_then(|mut w| w.http("GET", "/metrics", "", true))
            .is_ok_and(|(status, body)| status == 200 && body.contains("\"tenants\""));
        scrape_ms.push(secs(start) * 1e3);
        report.check(ok);
    }

    let a_ms: Vec<f64> = a
        .iter()
        .filter(|o| !o.job.traced)
        .map(|o| o.latency_ms)
        .collect();
    let lag: Vec<f64> = a.iter().map(|o| o.lag_us).collect();
    let c_ms: Vec<f64> = c
        .iter()
        .filter(|o| !o.job.traced)
        .map(|o| o.latency_ms)
        .collect();
    let head: Vec<&Outcome> = {
        let mut sorted: Vec<&Outcome> = a.iter().collect();
        sorted.sort_by_key(|o| o.job.due_ns);
        sorted.into_iter().take(PREFIX.min(a.len())).collect()
    };
    let correct = head
        .iter()
        .filter(|o| {
            o.response
                .as_ref()
                .is_some_and(|r| r.winner == tenants.queries[o.job.tenant][o.job.query].0 as u64)
        })
        .count();
    let energy: f64 = head
        .iter()
        .filter_map(|o| o.response.as_ref())
        .map(|r| r.energy_j)
        .sum();
    let serve_qps = median(&burst_qps);
    let rejected = service.recorder().snapshot().counter("server.rejected");
    report.context("generator_lag_max_us", percentile(&lag, 1.0));
    report.context("generator_lag_p99_us", percentile(&lag, 0.99));
    report.context("server_rejected", rejected);
    if options.engine.workers > nproc() || clients > nproc() {
        report.context("serve_qps", "not_measurable: workers exceed nproc");
    }

    if run.trace {
        served.extend(a);
        served.extend(b);
        served.extend(c);
        traced(
            run,
            &mut report,
            &tenants,
            &service,
            log_a,
            log_c,
            &a_ms,
            &c_ms,
            &mut next,
            &mut served,
            &options,
        )?;
        report.metric("core.build_s", median(&builds));
        report.metric("server.rejected", rejected as f64);
    } else {
        report.metric("setup_s", median(&setups));
        report.metric("op_cost_ref", cpu_per_request_s / kernel.median_s());
        report.metric("side_cost_ref", median(&c_ms) / 1e3 / kernel.median_s());
        report.metric("sim_accuracy", correct as f64 / head.len() as f64);
        report.metric("sim_energy_pj", energy / head.len() as f64 * 1e12);
        report.detail("setup_s", median(&setups), "s");
        report.detail("p50_ms", median(&a_ms), "ms");
        report.detail("p99_ms", percentile(&a_ms, 0.99), "ms");
        report.detail("serve_qps", serve_qps, "1/s");
        report.detail("cpu_us_per_request", cpu_per_request_s * 1e6, "us");
        report.detail("ref_kernel_us", kernel.median_s() * 1e6, "us");
        report.detail("http_p50_ms", median(&c_ms), "ms");
        report.detail("http_p90_ms", percentile(&c_ms, 0.9), "ms");
        report.detail("scrape_ms", median(&scrape_ms), "ms");
        report.detail("sim_accuracy", correct as f64 / head.len() as f64, "share");
        report.detail("sim_energy_pj", energy / head.len() as f64 * 1e12, "pJ");
        report.detail("core.build_s", median(&builds), "s");
        served.extend(a);
        served.extend(b);
        served.extend(c);
    }
    server.shutdown();
    oracle(&mut report, &tenants, &mut served, run.corrupt)?;
    drop(service);
    Ok(report)
}

/// One bare-deployment recall through the evaluate/select split.
fn split_recall(
    d: &mut Deployment,
    q: &[u32],
    log: &mut SpanLog,
    id: u64,
) -> Result<EngineResponse, CoreError> {
    let req = RecallRequest::DEFAULT;
    let (ev, sel) = ("core.evaluate_us", "core.select_us");
    match d {
        Deployment::Flat(m) => {
            let e = log.span(ev, id, |_| m.evaluate_query_request(q, &req))?;
            log.span(sel, id, |_| m.select_winner_request(e, &req))
                .map(EngineResponse::Flat)
        }
        Deployment::Partitioned(p) => {
            let e = log.span(ev, id, |_| p.evaluate_query_request(q, &req))?;
            log.span(sel, id, |_| p.select_winner_request(e, &req))
                .map(EngineResponse::Partitioned)
        }
        Deployment::Hierarchical(h) => {
            let e = log.span(ev, id, |_| h.evaluate_top_request(q, &req))?;
            let top = log.span(sel, id, |_| h.select_top_request(e, &req))?;
            let cluster = top.raw_winner;
            let e = log.span(ev, id, |_| h.evaluate_member_request(cluster, q, &req))?;
            log.span(sel, id, |_| h.select_member_request(cluster, e, &top, &req))
                .map(EngineResponse::Hierarchical)
        }
        Deployment::Tiled(t) => {
            let e = log.span(ev, id, |_| t.evaluate_query_request(q, &req))?;
            log.span(sel, id, |_| t.select_winner_request(e, &req))
                .map(EngineResponse::Tiled)
        }
    }
}

/// The traced pass's in-process replays and the serve ledger.
#[allow(clippy::too_many_arguments)]
fn traced(
    run: &Run,
    report: &mut Report,
    tenants: &Tenants,
    service: &RecallService,
    log_a: SpanLog,
    log_c: SpanLog,
    a_ms: &[f64],
    c_ms: &[f64],
    next: &mut [usize; 4],
    served: &mut Vec<Outcome>,
    options: &TenantOptions,
) -> Result<(), String> {
    let n = if run.tiny { 8 } else { REPLAYED };
    let origin = Instant::now();
    let mut log = SpanLog::new(origin);
    // Fresh bare deployments and bare engines per tenant, plus a fresh
    // sequential oracle for them.
    let mut bare = Vec::new();
    let mut expect = Vec::new();
    let mut engines_noop = Vec::new();
    let mut engines_mem = Vec::new();
    let rec = MemoryRecorder::default();
    for spec in &tenants.specs {
        let build = || spec.build(&rec).map_err(|e| e.to_string());
        bare.push(build()?);
        expect.push(build()?);
        engines_noop.push(RecallEngine::with_recorder(
            build()?,
            &options.engine,
            Arc::new(NoopRecorder),
        ));
        engines_mem.push(RecallEngine::with_recorder(
            build()?,
            &options.engine,
            Arc::new(MemoryRecorder::default()),
        ));
    }
    let jobs = schedule(next, n, None, true);
    let mut currents = Vec::new();
    let (mut noop_us, mut mem_us) = (Vec::new(), Vec::new());
    for job in &jobs {
        let id = job.id();
        let t = job.tenant;
        let request = tenants.request(job);
        let q = &request.input;
        let want = expect[t].recall(q).map_err(|e| e.to_string())?;
        // Server side, on the live registry.
        let frame = request.encode_binary();
        let response = log.span("server", id, |log| {
            let decoded = log
                .span("server.codec_binary_us", id, |_| {
                    ApiRecallRequest::decode_binary(&frame)
                })
                .ok()?;
            let response = log
                .span("server.handle_us", id, |_| service.handle(&decoded))
                .ok()?;
            log.span("server.codec_binary_us", id, |_| response.encode_binary());
            Some(response)
        });
        served.push(Outcome {
            job: *job,
            response,
            latency_ms: 0.0,
            lag_us: 0.0,
        });
        // JSON codecs.
        let _ = log.span("server.codec_json_us", id, |_| {
            let body = request.to_json();
            let back = ApiRecallRequest::from_json(&body);
            let out = ApiRecallResponse::from_engine(NAMES[t], &want).to_json();
            std::hint::black_box((back, ApiRecallResponse::from_json(&out)))
        });
        // Bare engines, interleaved Noop / Memory recorder.
        let (r, took) = timed(|| engines_noop[t].submit(q).and_then(|tk| tk.wait()));
        noop_us.push(took * 1e6);
        report.check(r.is_ok_and(|r| r == want));
        let (r, took) = timed(|| engines_mem[t].submit(q).and_then(|tk| tk.wait()));
        mem_us.push(took * 1e6);
        report.check(r.is_ok_and(|r| r == want));
        // Bare deployment, evaluate/select split.
        if let Deployment::Flat(m) = &mut bare[t] {
            // RNG-free: evaluating twice leaves the module's state alone.
            let e = m
                .evaluate_query_request(q, &RecallRequest::DEFAULT)
                .map_err(|e| e.to_string())?;
            currents.push(e.column_currents().to_vec());
        }
        let got = split_recall(&mut bare[t], q, &mut log, id).map_err(|e| e.to_string())?;
        report.check(got == want);
    }
    for e in engines_noop.into_iter().chain(engines_mem) {
        e.shutdown();
    }

    // Scrape pieces.
    let (_, snapshot_s) = timed(|| {
        for tenant in service.registry().tenants() {
            std::hint::black_box(tenant.recorder().snapshot());
        }
    });
    let (_, render_s) = timed(|| std::hint::black_box(service.metrics_json().render()));

    let own = log.median_self_us();
    let per_kind = |name: &str, kind: usize| -> f64 {
        let mut by_request = std::collections::BTreeMap::<u64, f64>::new();
        for (s, t) in log.spans().iter().zip(log.self_times_ns()) {
            if s.name == name && s.request / 1_000_000 == kind as u64 {
                *by_request.entry(s.request).or_default() += t / 1e3;
            }
        }
        median(&by_request.into_values().collect::<Vec<_>>())
    };
    let client_a = log_a.median_self_us();
    let client_c = log_c.median_self_us();
    let get = |m: &std::collections::BTreeMap<&'static str, f64>, k: &str| {
        m.get(k).copied().unwrap_or(0.0)
    };
    let evaluate = get(&own, "core.evaluate_us");
    let select = get(&own, "core.select_us");
    let handle = get(&own, "server.handle_us");
    let server_codec = get(&own, "server.codec_binary_us");
    let roundtrip_noop = median(&noop_us);
    let roundtrip_mem = median(&mem_us);
    let client_codec = get(&client_a, "client.encode") + get(&client_a, "client.decode");
    let wait = get(&client_a, "client.wait");
    let end_to_end_us = median(a_ms) * 1e3;
    let sequencing = roundtrip_noop - evaluate - select;
    let recorder = roundtrip_mem - roundtrip_noop;
    let admission = handle - roundtrip_mem;
    let net = wait - server_codec - handle;
    let traced_a: Vec<f64> = log_a
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e3)
        .collect();

    report.metric("core.evaluate_us", evaluate);
    report.metric("core.select_us", select);
    let (sar, wta) = crate::face::sar_and_wta(run.seed, &currents)?;
    report.metric("core.sar_convert_us", sar);
    report.metric("core.wta_select_us", wta);
    let mut ledger = Ledger::default();
    ledger.row("core_evaluate", evaluate);
    ledger.row("core_select", select);
    ledger.row("engine", sequencing);
    ledger.row("telemetry", recorder);
    ledger.row("server", admission + server_codec + client_codec);
    ledger.row("net", net);
    ledger.emit(report, end_to_end_us);
    report.metric("trace.overhead_ratio", median(&traced_a) / end_to_end_us);

    // Counters from the tenants' own recorders, per served request.
    let (mut counts, mut completed, mut util) = ([0u64; 3], 0u64, Vec::new());
    for tenant in service.registry().tenants() {
        let snap = tenant.recorder().snapshot();
        for (c, name) in counts.iter_mut().zip([
            "adc.sar_cycles",
            "wta.dl_transitions",
            "spin.dwn_switch_events",
        ]) {
            *c += snap.counter(name);
        }
        completed += snap.counter("engine.completed");
        util.extend(
            snap.gauges
                .iter()
                .filter(|(k, _)| k.starts_with("engine.worker.") && k.ends_with(".utilization"))
                .map(|(_, v)| *v),
        );
        report.detail(
            &format!("engine.queue_wait_p99_us.{}", tenant.name()),
            snap.percentile("engine.queue_wait_ns", 0.99) / 1e3,
            "us",
        );
    }
    for (c, name) in counts.iter().zip([
        "adc.sar_cycles",
        "wta.dl_transitions",
        "spin.dwn_switch_events",
    ]) {
        report.metric(name, *c as f64 / completed.max(1) as f64);
    }
    for name in [
        "circuit.cg_iterations",
        "circuit.warm_start_saved",
        "circuit.factorization_reuse_share",
    ] {
        report.metric(name, 0.0);
    }
    report.metric(
        "engine.worker_utilization",
        util.iter().sum::<f64>() / util.len().max(1) as f64,
    );

    let http_wait = get(&client_c, "client.wait_http");
    report.detail("p50_us", end_to_end_us, "us");
    report.detail("http_p50_us", median(c_ms) * 1e3, "us");
    for (k, name) in NAMES.iter().enumerate() {
        report.detail(
            &format!("core.evaluate_us.{name}"),
            per_kind("core.evaluate_us", k),
            "us",
        );
        report.detail(
            &format!("core.select_us.{name}"),
            per_kind("core.select_us", k),
            "us",
        );
    }
    report.detail("engine.roundtrip_us", roundtrip_noop, "us");
    report.detail("engine.sequencing_us", sequencing, "us");
    report.detail("server.handle_us", handle, "us");
    report.detail("server.admission_us", admission, "us");
    report.detail("server.codec_binary_us", server_codec + client_codec, "us");
    report.detail(
        "server.codec_json_us",
        get(&own, "server.codec_json_us"),
        "us",
    );
    report.detail("server.net_us", net, "us");
    report.detail(
        "server.http_net_us",
        http_wait - handle - get(&own, "server.codec_json_us"),
        "us",
    );
    report.detail("telemetry.recorder_us", recorder, "us");
    report.detail("telemetry.snapshot_ms", (snapshot_s + render_s) * 1e3, "ms");
    report.detail("core.sar_convert_us", sar, "us");
    report.detail("core.wta_select_us", wta, "us");
    log.absorb(log_a);
    log.absorb(log_c);
    report.spans = Some(log);
    Ok(())
}
