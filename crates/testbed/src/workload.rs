//! Request workloads over replicated files.

#![cfg_attr(
    not(test),
    expect(
        clippy::panic,
        reason = "harness-level: generated workloads must reference grid hosts"
    )
)]

use datagrid_catalog::name::{LogicalFileName, PhysicalFileName};
use datagrid_core::prelude::{DataGrid, GridError, ReplayJob};
use datagrid_simnet::rng::SimRng;
use datagrid_simnet::time::{SimDuration, SimTime};

/// One client request for a logical file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Request {
    /// When the request arrives.
    pub at: SimTime,
    /// The requesting host's name.
    pub client: String,
    /// The requested logical file name.
    pub lfn: String,
}

/// A time-ordered trace of requests.
///
/// ```
/// use datagrid_simnet::time::{SimDuration, SimTime};
/// use datagrid_testbed::workload::RequestTrace;
///
/// let trace = RequestTrace::poisson(
///     &["alpha1", "gridhit2"],
///     &["file-a", "file-b"],
///     0.1,
///     SimDuration::from_secs(600),
///     7,
/// );
/// assert!(!trace.is_empty());
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RequestTrace {
    requests: Vec<Request>,
}

impl RequestTrace {
    /// Builds a trace from explicit requests, sorting by arrival time.
    pub fn from_requests(mut requests: Vec<Request>) -> Self {
        requests.sort_by_key(|r| r.at);
        RequestTrace { requests }
    }

    /// Poisson arrivals at `rate_hz` over `duration`; each request picks a
    /// uniform client and a Zipf(1)-distributed file (popular files are
    /// requested often, as in data-intensive science workloads).
    ///
    /// # Panics
    ///
    /// Panics if `clients` or `files` is empty or `rate_hz` is not
    /// positive.
    pub fn poisson(
        clients: &[&str],
        files: &[&str],
        rate_hz: f64,
        duration: SimDuration,
        seed: u64,
    ) -> Self {
        assert!(!clients.is_empty(), "need at least one client");
        assert!(!files.is_empty(), "need at least one file");
        assert!(rate_hz > 0.0, "arrival rate must be positive");
        let mut rng = SimRng::seed_from_u64(seed);
        // Zipf(1) cumulative weights over files.
        let weights: Vec<f64> = (1..=files.len()).map(|k| 1.0 / k as f64).collect();
        let total: f64 = weights.iter().sum();
        let mut requests = Vec::new();
        let mut t = SimTime::ZERO;
        loop {
            t += SimDuration::from_secs_f64(rng.exponential(rate_hz));
            if t > SimTime::ZERO + duration {
                break;
            }
            let client = clients[rng.below(clients.len() as u64) as usize];
            let mut pick = rng.uniform(0.0, total);
            let mut file = files[files.len() - 1];
            for (f, w) in files.iter().zip(&weights) {
                if pick < *w {
                    file = f;
                    break;
                }
                pick -= w;
            }
            requests.push(Request {
                at: t,
                client: client.to_string(),
                lfn: file.to_string(),
            });
        }
        RequestTrace { requests }
    }

    /// The requests in arrival order.
    pub fn requests(&self) -> &[Request] {
        &self.requests
    }

    /// Number of requests.
    pub fn len(&self) -> usize {
        self.requests.len()
    }

    /// `true` when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.requests.is_empty()
    }
}

impl IntoIterator for RequestTrace {
    type Item = Request;
    type IntoIter = std::vec::IntoIter<Request>;
    fn into_iter(self) -> Self::IntoIter {
        self.requests.into_iter()
    }
}

/// Shape of a deterministic N-client grid-scale workload (see
/// [`grid_workload`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct GridWorkloadSpec {
    /// Concurrent logical clients, mapped round-robin onto the grid's
    /// hosts.
    pub clients: usize,
    /// Logical files in the generated catalog.
    pub files: usize,
    /// Replica placements per file (clamped to the host count).
    pub replicas_per_file: usize,
    /// Median file size (lognormal spread, see [`synthetic_files`]).
    pub median_bytes: u64,
    /// Fetches issued by each client.
    pub requests_per_client: usize,
    /// Mean of each client's exponential inter-arrival time.
    pub mean_inter_arrival: SimDuration,
}

impl Default for GridWorkloadSpec {
    fn default() -> Self {
        GridWorkloadSpec {
            clients: 16,
            files: 32,
            replicas_per_file: 2,
            median_bytes: 4 << 20,
            requests_per_client: 1,
            mean_inter_arrival: SimDuration::from_secs(2),
        }
    }
}

/// A generated grid-scale workload: a file catalog, seeded replica
/// placements, and a time-ordered multi-client request trace.
#[derive(Debug, Clone, PartialEq)]
pub struct GridWorkload {
    /// `(logical name, size in bytes)` per generated file.
    pub files: Vec<(String, u64)>,
    /// Host names holding a replica, per file (same order as `files`).
    pub placements: Vec<Vec<String>>,
    /// The merged request trace, sorted by arrival time.
    pub trace: RequestTrace,
}

impl GridWorkload {
    /// Registers every generated file and replica placement into `grid`'s
    /// catalog (the data is assumed to pre-exist on the placed hosts, as
    /// with [`DataGrid::place_replica`]).
    ///
    /// # Errors
    ///
    /// Catalog errors (duplicate names) or invalid file names.
    pub fn install(&self, grid: &mut DataGrid) -> Result<(), GridError> {
        for ((lfn, bytes), hosts) in self.files.iter().zip(&self.placements) {
            let name = LogicalFileName::new(lfn)?;
            let locations = hosts
                .iter()
                .map(|host| PhysicalFileName::new(host, format!("/storage/{lfn}")))
                .collect::<Result<Vec<_>, _>>()?;
            grid.catalog_mut()
                .register_logical_with_replicas(name, *bytes, locations)?;
        }
        Ok(())
    }

    /// Resolves the request trace into [`ReplayJob`]s against `grid`
    /// (host names become [`datagrid_sysmon::host::HostId`]s), ready for
    /// [`DataGrid::replay_concurrent`].
    ///
    /// # Panics
    ///
    /// Panics if a trace client is not a host of `grid`.
    pub fn jobs(&self, grid: &DataGrid) -> Vec<ReplayJob> {
        self.trace
            .requests()
            .iter()
            .map(|r| ReplayJob {
                at: r.at,
                client: grid
                    .host_id(&r.client)
                    .unwrap_or_else(|| panic!("workload client {:?} is not a grid host", r.client)),
                lfn: r.lfn.clone(),
            })
            .collect()
    }
}

/// Generates a deterministic multi-client workload over `hosts`:
///
/// * a catalog of [`GridWorkloadSpec::files`] logical files with
///   lognormal sizes,
/// * [`GridWorkloadSpec::replicas_per_file`] seeded distinct placements
///   per file,
/// * per-client request schedules with seeded exponential inter-arrival
///   times and Zipf(1) file popularity, merged into one time-ordered
///   trace.
///
/// Every draw comes from forks of `seed`, so the same seed reproduces
/// the workload byte-for-byte and different seeds diverge.
///
/// # Panics
///
/// Panics if `hosts` is empty or the spec has zero clients/files.
pub fn grid_workload(spec: &GridWorkloadSpec, hosts: &[&str], seed: u64) -> GridWorkload {
    assert!(!hosts.is_empty(), "need at least one host");
    assert!(spec.clients > 0, "need at least one client");
    assert!(spec.files > 0, "need at least one file");
    let root = SimRng::seed_from_u64(seed);
    let files = synthetic_files(spec.files, spec.median_bytes, seed ^ 0x5eed_f11e);
    let replicas = spec.replicas_per_file.clamp(1, hosts.len());
    let mut place_rng = root.fork("placements");
    let placements: Vec<Vec<String>> = (0..files.len())
        .map(|_| {
            let mut pool: Vec<&str> = hosts.to_vec();
            (0..replicas)
                .map(|_| {
                    let i = place_rng.below(pool.len() as u64) as usize;
                    pool.swap_remove(i).to_string()
                })
                .collect()
        })
        .collect();
    // Zipf(1) cumulative weights over the catalog, hottest first.
    let weights: Vec<f64> = (1..=files.len()).map(|k| 1.0 / k as f64).collect();
    let total: f64 = weights.iter().sum();
    let rate = 1.0 / spec.mean_inter_arrival.as_secs_f64().max(f64::MIN_POSITIVE);
    let mut requests = Vec::new();
    for c in 0..spec.clients {
        let host = hosts[c % hosts.len()];
        let mut rng = root.fork(&format!("client:{c}"));
        let mut t = SimTime::ZERO;
        for _ in 0..spec.requests_per_client {
            t += SimDuration::from_secs_f64(rng.exponential(rate));
            let mut pick = rng.uniform(0.0, total);
            let mut file = files.len() - 1;
            for (i, w) in weights.iter().enumerate() {
                if pick < *w {
                    file = i;
                    break;
                }
                pick -= w;
            }
            requests.push(Request {
                at: t,
                client: host.to_string(),
                lfn: files[file].0.clone(),
            });
        }
    }
    GridWorkload {
        files,
        placements,
        trace: RequestTrace::from_requests(requests),
    }
}

/// Synthesises a catalogue of file names and sizes for a data-intensive
/// workload: lognormal sizes around `median_bytes` (high-energy physics
/// event files, genome databases).
pub fn synthetic_files(count: usize, median_bytes: u64, seed: u64) -> Vec<(String, u64)> {
    let mut rng = SimRng::seed_from_u64(seed);
    (0..count)
        .map(|i| {
            let size = (median_bytes as f64 * rng.lognormal(0.0, 0.6)).max(1.0) as u64;
            (format!("dataset/file-{i:04}"), size)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_trace_is_ordered_and_bounded() {
        let trace = RequestTrace::poisson(
            &["a", "b"],
            &["f1", "f2", "f3"],
            0.5,
            SimDuration::from_secs(1000),
            1,
        );
        assert!(trace.len() > 100); // ~500 expected
        let reqs = trace.requests();
        assert!(reqs.windows(2).all(|w| w[0].at <= w[1].at));
        assert!(reqs.iter().all(|r| r.at <= SimTime::from_secs_f64(1000.0)));
    }

    #[test]
    fn zipf_prefers_popular_files() {
        let trace = RequestTrace::poisson(
            &["a"],
            &["hot", "warm", "cold"],
            1.0,
            SimDuration::from_secs(3000),
            2,
        );
        let count = |name: &str| trace.requests().iter().filter(|r| r.lfn == name).count();
        assert!(count("hot") > count("warm"));
        assert!(count("warm") > count("cold"));
    }

    #[test]
    fn trace_deterministic_per_seed() {
        let mk =
            |seed| RequestTrace::poisson(&["a"], &["f"], 1.0, SimDuration::from_secs(100), seed);
        assert_eq!(mk(5), mk(5));
        assert_ne!(mk(5), mk(6));
    }

    #[test]
    fn from_requests_sorts() {
        let trace = RequestTrace::from_requests(vec![
            Request {
                at: SimTime::from_secs_f64(5.0),
                client: "a".into(),
                lfn: "f".into(),
            },
            Request {
                at: SimTime::from_secs_f64(1.0),
                client: "b".into(),
                lfn: "g".into(),
            },
        ]);
        assert_eq!(trace.requests()[0].client, "b");
    }

    #[test]
    fn synthetic_files_have_plausible_sizes() {
        let files = synthetic_files(50, 1 << 30, 3);
        assert_eq!(files.len(), 50);
        assert!(files.iter().all(|(n, _)| n.starts_with("dataset/")));
        let median = {
            let mut sizes: Vec<u64> = files.iter().map(|(_, s)| *s).collect();
            sizes.sort_unstable();
            sizes[25]
        };
        // Median within 2x of the requested one.
        assert!(median > 1 << 29 && median < 1 << 32, "median {median}");
    }
}
