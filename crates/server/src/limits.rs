//! Resource bounds enforced by the daemon, plus its observability knobs.

use std::path::PathBuf;
use std::time::Duration;

use hypersweep_analysis::REPORT_MAX_DIM;

/// Everything the daemon refuses to exceed, plus how it exposes its
/// telemetry. Every limit has a conservative default; the CLI exposes the
/// interesting ones as flags.
#[derive(Clone, Debug)]
pub struct ServerLimits {
    /// Largest dimension a request may ask for. Validated with the same
    /// rules as the offline `report --max-dim` flag.
    pub max_dim: u32,
    /// Longest accepted request line, in bytes. Longer lines are consumed
    /// and answered with an `oversized` error — the connection survives,
    /// and the excess bytes are discarded without buffering.
    pub max_line_bytes: usize,
    /// How long a single `plan`/`predict`/`audit` request may take before
    /// the client gets a `timeout` error. The underlying run still
    /// completes and populates the cache for the next request.
    pub request_timeout: Duration,
    /// Dispatch-queue bound: requests beyond `workers` executing plus this
    /// many queued are refused with `busy`.
    pub queue_capacity: usize,
    /// Concurrent connections served; excess connections receive a single
    /// `busy` error line and are closed.
    pub max_connections: usize,
    /// Pipelined requests a single connection may have awaiting the worker
    /// pool before the reactor stops reading from it (flow control, not an
    /// error: reading resumes as replies drain).
    pub max_pipeline: usize,
    /// Worker threads executing requests.
    pub workers: usize,
    /// LRU bound on cached run outcomes (`None` = unbounded).
    pub cache_capacity: Option<usize>,
    /// Hash-partitioned run-cache shards ([`ServerLimits::cache_capacity`]
    /// is split across them; a capacity below this count builds one shard
    /// per entry instead).
    pub cache_shards: usize,
    /// Also listen on this Unix-domain socket path, served by the same
    /// reactor as the TCP listener. A stale socket file (no daemon
    /// accepting on it) is removed and rebound; the file is unlinked again
    /// at drain.
    pub uds_path: Option<PathBuf>,
    /// Record telemetry. Off, the daemon still answers `metrics` with
    /// `"enabled":false` and the always-on accounting (request counters,
    /// cache statistics) but records no pool, sink, or latency series.
    pub telemetry: bool,
    /// Append a JSON-lines telemetry snapshot to this file every
    /// [`ServerLimits::metrics_interval`], plus one final line at drain.
    pub metrics_file: Option<PathBuf>,
    /// Export cadence for [`ServerLimits::metrics_file`].
    pub metrics_interval: Duration,
    /// Persist the run cache to this JSONL append-log: warm-load valid
    /// records at bind (`cache.warm_loaded`), append computed outcomes as
    /// they are inserted (`cache.persist_appends`), and snapshot+compact
    /// at graceful drain. Corrupt or truncated records are skipped
    /// (`cache.persist_skipped`), never fatal.
    pub persist_path: Option<PathBuf>,
}

impl Default for ServerLimits {
    fn default() -> Self {
        ServerLimits {
            max_dim: REPORT_MAX_DIM,
            max_line_bytes: 64 * 1024,
            request_timeout: Duration::from_secs(30),
            queue_capacity: 64,
            max_connections: 1024,
            max_pipeline: 512,
            workers: hypersweep_analysis::default_jobs().min(4),
            cache_capacity: Some(256),
            cache_shards: 8,
            uds_path: None,
            telemetry: true,
            metrics_file: None,
            metrics_interval: Duration::from_secs(10),
            persist_path: None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let limits = ServerLimits::default();
        assert_eq!(limits.max_dim, REPORT_MAX_DIM);
        assert!(limits.workers >= 1);
        assert!(limits.queue_capacity >= limits.workers);
        assert!(limits.max_line_bytes >= 1024);
        assert!(limits.cache_capacity.is_some());
        assert!(
            limits.cache_capacity.unwrap() >= limits.cache_shards,
            "every shard must get a non-zero capacity slice by default"
        );
        assert!(limits.max_connections >= 256, "pipelined bench headroom");
        assert!(limits.max_pipeline >= 1);
        assert!(limits.uds_path.is_none(), "no Unix socket by default");
        assert!(limits.telemetry, "telemetry records by default");
        assert!(limits.metrics_file.is_none(), "no export file by default");
        assert!(limits.metrics_interval >= Duration::from_millis(100));
        assert!(limits.persist_path.is_none(), "no persistence by default");
    }
}
