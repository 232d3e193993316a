//! Real-network cluster harness: boot N loopback DM servers and drive
//! browse traffic through `DmRouter` over `NetDm`.
//!
//! This is the measured counterpart of the §7.3 simulation: the same
//! router/redirection architecture, but every query crosses a real socket
//! through the `hedc-net` wire protocol. `fig5_browse_nodes --net` runs it
//! alongside the simulated Figure 5 so `results/BENCH_*.json` carries both
//! a modeled and a measured throughput row per node count.

use crate::percentile;
use hedc_core::HedcConfig;
use hedc_dm::{Dm, DmNode, DmRouter};
use hedc_metadb::{AggFunc, Expr, Query};
use hedc_net::{AdmissionConfig, DmServer, NetConfig, NetDm, ServerConfig};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Map the deployment-level `HedcConfig` admission knobs onto the net
/// tier's [`ServerConfig`]. This is the one place the two meet: `hedc-core`
/// must not depend on `hedc-net`, so harnesses (and a real deployment
/// binary) do the translation here.
pub fn server_config_from(config: &HedcConfig) -> ServerConfig {
    ServerConfig {
        admission: AdmissionConfig {
            max_connections: config.net_max_connections,
            workers: config.net_workers,
            queue_depth: config.net_queue_depth,
            queue_deadline: config.net_queue_deadline(),
            read_deadline: config.net_read_deadline(),
            ..AdmissionConfig::default()
        },
        ..ServerConfig::default()
    }
}

/// One real-network cluster run.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Middle-tier DM server count.
    pub nodes: usize,
    /// Concurrent client threads.
    pub clients: usize,
    /// Measurement window.
    pub measure: Duration,
    /// Database queries per browse request (the paper's request costs
    /// seven, §7.2).
    pub queries_per_request: usize,
}

impl ClusterConfig {
    /// The Figure-5 shape: 96 clients, 7 queries per request.
    pub fn fig5(nodes: usize, measure: Duration) -> Self {
        ClusterConfig {
            nodes,
            clients: 96,
            measure,
            queries_per_request: 7,
        }
    }
}

/// Measured outcome of a cluster run.
#[derive(Debug, Clone)]
pub struct ClusterRunResult {
    /// Node count.
    pub nodes: usize,
    /// Client thread count.
    pub clients: usize,
    /// Completed browse requests.
    pub requests: u64,
    /// Browse requests per second.
    pub requests_per_second: f64,
    /// Mean request latency, seconds.
    pub avg_response_s: f64,
    /// Median request latency, seconds.
    pub p50_response_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_response_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_response_s: f64,
    /// Client-side bytes sent during the run.
    pub bytes_out: u64,
    /// Client-side bytes received during the run.
    pub bytes_in: u64,
}

pub(crate) fn dm_node() -> Arc<Dm> {
    let dm = hedc_dm::testkit::dm();
    // A few public HLEs so the browse aggregate has rows to chew on.
    let session = dm.import_session();
    let svc = dm.services();
    for k in 0..16u64 {
        let id = svc
            .create_hle(
                &session,
                &hedc_dm::HleSpec::window(k * 100, k * 100 + 50, "flare"),
            )
            .expect("seed hle");
        svc.publish(&session, "hle", id).expect("publish hle");
    }
    dm
}

/// The browse query mix: one request = `queries_per_request` DB queries,
/// alternating a catalog scan with an indexed HLE count — read-only, like
/// the §7.2 browse session.
pub(crate) fn browse_queries(n: usize) -> Vec<Query> {
    (0..n)
        .map(|i| {
            if i % 2 == 0 {
                Query::table("catalog").filter(Expr::eq("public", true))
            } else {
                Query::table("hle")
                    .filter(Expr::eq("public", true))
                    .aggregate(AggFunc::CountStar)
            }
        })
        .collect()
}

/// Boot the cluster, run the closed-loop workload, tear everything down.
pub fn run_cluster(config: &ClusterConfig) -> ClusterRunResult {
    assert!(config.nodes > 0 && config.clients > 0);
    let servers: Vec<DmServer> = (0..config.nodes)
        .map(|_| {
            DmServer::bind("127.0.0.1:0", dm_node(), ServerConfig::default())
                .expect("bind loopback DM server")
        })
        .collect();
    let remotes: Vec<Arc<dyn DmNode>> = servers
        .iter()
        .enumerate()
        .map(|(i, s)| {
            Arc::new(NetDm::connect(
                s.local_addr(),
                format!("net-dm-{i}"),
                NetConfig::default(),
            )) as Arc<dyn DmNode>
        })
        .collect();
    let router = Arc::new(DmRouter::new(remotes));

    let obs = hedc_obs::global();
    let bytes_out_before = obs.counter("net.client.bytes_out").get();
    let bytes_in_before = obs.counter("net.client.bytes_in").get();

    let queries = Arc::new(browse_queries(config.queries_per_request));
    let deadline = Instant::now() + config.measure;
    let started = Instant::now();
    let workers: Vec<_> = (0..config.clients)
        .map(|_| {
            let router = Arc::clone(&router);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    let mut ok = true;
                    for q in queries.iter() {
                        if router.execute_query(q).is_err() {
                            ok = false;
                            break;
                        }
                    }
                    if ok {
                        latencies.push(t0.elapsed().as_secs_f64());
                    }
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    drop(router);
    for mut s in servers {
        s.shutdown();
    }

    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len() as u64;
    let avg = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    ClusterRunResult {
        nodes: config.nodes,
        clients: config.clients,
        requests,
        requests_per_second: requests as f64 / elapsed.max(f64::EPSILON),
        avg_response_s: avg,
        p50_response_s: percentile(&latencies, 0.50),
        p95_response_s: percentile(&latencies, 0.95),
        p99_response_s: percentile(&latencies, 0.99),
        bytes_out: obs.counter("net.client.bytes_out").get() - bytes_out_before,
        bytes_in: obs.counter("net.client.bytes_in").get() - bytes_in_before,
    }
}

/// One point of the net-tier Figure-4 sweep: N closed-loop clients against
/// a *single* admission-controlled server.
#[derive(Debug, Clone)]
pub struct NetClientsResult {
    /// Concurrent client threads.
    pub clients: usize,
    /// Browse requests completed successfully.
    pub requests: u64,
    /// Completed requests per second.
    pub requests_per_second: f64,
    /// Mean request latency, seconds.
    pub avg_response_s: f64,
    /// Median request latency, seconds.
    pub p50_response_s: f64,
    /// 95th-percentile request latency, seconds.
    pub p95_response_s: f64,
    /// 99th-percentile request latency, seconds.
    pub p99_response_s: f64,
    /// Server-side admission sheds during the window (queue full +
    /// queue deadline + per-connection in-flight cap).
    pub sheds: u64,
    /// `sheds / (requests + sheds)` — the fraction of offered work the
    /// server refused instead of queueing into collapse.
    pub shed_rate: f64,
    /// Client-side retries that absorbed a shed before it surfaced.
    pub overload_retries: u64,
}

fn shed_total() -> u64 {
    let obs = hedc_obs::global();
    obs.counter("net.server.shed.queue_full").get()
        + obs.counter("net.server.shed.deadline").get()
        + obs.counter("net.server.shed.inflight").get()
}

/// The measured Figure-4 counterpart: instead of the paper's collapsing
/// middle tier (16 req/s at 16 clients down to 3 at 96), the event-driven
/// server holds throughput flat past saturation by shedding excess load.
/// One point per call; the harness sweeps the client counts.
pub fn run_fig4_net(clients: usize, measure: Duration, hedc: &HedcConfig) -> NetClientsResult {
    assert!(clients > 0);
    let mut server = DmServer::bind("127.0.0.1:0", dm_node(), server_config_from(hedc))
        .expect("bind loopback DM server");
    // Scale the connection pool with the client count so the sweep
    // exercises multiplexing (many threads per socket) at every point.
    let net_config = NetConfig {
        pool_size: (clients / 8).clamp(4, 64),
        ..NetConfig::default()
    };
    let client = Arc::new(NetDm::connect(server.local_addr(), "fig4-net", net_config));

    let obs = hedc_obs::global();
    let sheds_before = shed_total();
    let retries_before = obs.counter("net.client.overload_retries").get();

    let queries = Arc::new(browse_queries(2));
    let deadline = Instant::now() + measure;
    let started = Instant::now();
    let workers: Vec<_> = (0..clients)
        .map(|_| {
            let client = Arc::clone(&client);
            let queries = Arc::clone(&queries);
            std::thread::spawn(move || {
                let mut latencies = Vec::new();
                while Instant::now() < deadline {
                    let t0 = Instant::now();
                    // A shed that survives the client's retries surfaces
                    // as an error here; the request simply doesn't count.
                    if queries.iter().all(|q| client.execute_query(q).is_ok()) {
                        latencies.push(t0.elapsed().as_secs_f64());
                    }
                }
                latencies
            })
        })
        .collect();

    let mut latencies: Vec<f64> = workers
        .into_iter()
        .flat_map(|w| w.join().expect("client thread"))
        .collect();
    let elapsed = started.elapsed().as_secs_f64();
    drop(client);
    server.shutdown();

    latencies.sort_by(|a, b| a.total_cmp(b));
    let requests = latencies.len() as u64;
    let sheds = shed_total().saturating_sub(sheds_before);
    let avg = if latencies.is_empty() {
        0.0
    } else {
        latencies.iter().sum::<f64>() / latencies.len() as f64
    };
    NetClientsResult {
        clients,
        requests,
        requests_per_second: requests as f64 / elapsed.max(f64::EPSILON),
        avg_response_s: avg,
        p50_response_s: percentile(&latencies, 0.50),
        p95_response_s: percentile(&latencies, 0.95),
        p99_response_s: percentile(&latencies, 0.99),
        sheds,
        shed_rate: sheds as f64 / (requests + sheds).max(1) as f64,
        overload_retries: obs
            .counter("net.client.overload_retries")
            .get()
            .saturating_sub(retries_before),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Smoke: a 2-node loopback cluster serves real traffic.
    #[test]
    fn two_node_cluster_serves_browse_traffic() {
        let result = run_cluster(&ClusterConfig {
            nodes: 2,
            clients: 4,
            measure: Duration::from_millis(300),
            queries_per_request: 7,
        });
        assert!(result.requests > 0, "{result:?}");
        assert!(result.requests_per_second > 0.0);
        assert!(result.bytes_out > 0 && result.bytes_in > 0);
        assert!(result.p50_response_s <= result.p99_response_s);
    }

    /// The deployment config's admission knobs land on the server config.
    #[test]
    fn server_config_translates_admission_knobs() {
        let hedc = HedcConfig {
            net_max_connections: 7,
            net_workers: 3,
            net_queue_depth: 9,
            net_queue_deadline_ms: 111,
            net_read_deadline_ms: 222,
            ..HedcConfig::default()
        };
        let sc = server_config_from(&hedc);
        assert_eq!(sc.admission.max_connections, 7);
        assert_eq!(sc.admission.workers, 3);
        assert_eq!(sc.admission.queue_depth, 9);
        assert_eq!(sc.admission.queue_deadline, Duration::from_millis(111));
        assert_eq!(sc.admission.read_deadline, Duration::from_millis(222));
    }

    /// Smoke: one net-tier Figure-4 point produces a coherent row.
    #[test]
    fn fig4_net_point_reports_admission_outcome() {
        let r = run_fig4_net(4, Duration::from_millis(300), &HedcConfig::default());
        assert!(r.requests > 0, "{r:?}");
        assert!(r.requests_per_second > 0.0);
        assert!((0.0..=1.0).contains(&r.shed_rate), "{r:?}");
        assert!(r.p50_response_s <= r.p99_response_s);
    }
}
