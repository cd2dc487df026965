//! The four workloads, as data: the network, the traffic, and the timed
//! phases ISSUE 11 fixed for each. The service configuration is the same
//! for all of them (`stack.rs`).

/// How origin–destination pairs are drawn.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Traffic {
    /// Both endpoints uniform over all nodes: the route cache cannot help.
    Uniform,
    /// Zipf(1.0) over a seeded pool of local trips (both endpoints within
    /// two neighbouring 256-node regions).
    ZipfLocal { pool: usize },
}

/// The update stream beside the reads.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Updates {
    /// Updates per second the updater is paced at.
    pub rate: f64,
    /// Every `decrease_every`-th update clears an earlier jam (a cost
    /// decrease); 0 = increases only.
    pub decrease_every: usize,
}

/// One open-loop phase: a seeded Poisson stream of `rate` arrivals per
/// second for `seconds`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OpenLoop {
    pub rate: f64,
    pub seconds: f64,
}

#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub network: &'static str,
    pub target_nodes: usize,
    pub traffic: Traffic,
    pub updates: Option<Updates>,
    /// The open-loop phases, lowest rate first.
    pub open: &'static [OpenLoop],
    /// Seconds of the closed-loop saturation phase (2 clients) that ends a
    /// read workload; 0 where the workload has none.
    pub saturation_seconds: f64,
    /// Latency limit of the service-level objective.
    pub limit_ms: f64,
    /// Set-ups per run, the fastest of which is `setup_s`.
    pub setup_reps: usize,
    /// The end-to-end timing the workload exists to show: what the growth
    /// driver gates on as `subject_ms` (see `contract.rs`).
    pub subject: &'static str,
    pub why: &'static str,
}

pub const POOL: usize = 4096;

/// Longest uncounted lead-in of a saturation phase, seconds (see
/// `load::closed_loop`).
const SATURATION_RAMP_MAX: f64 = 2.5;

const METRO_10K_READS: [OpenLoop; 2] = [
    OpenLoop {
        rate: 400.0,
        seconds: 12.0,
    },
    OpenLoop {
        rate: 1000.0,
        seconds: 12.0,
    },
];

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "cold-10k",
        network: "metro-10k",
        target_nodes: 10_000,
        traffic: Traffic::Uniform,
        updates: None,
        open: &METRO_10K_READS,
        saturation_seconds: 8.0,
        limit_ms: 25.0,
        setup_reps: 8,
        subject: "route_p50_ms",
        why: "uniform OD pairs on metro-10k, no updates: every request runs the A* v5 miss path, the cache does nothing",
    },
    Workload {
        name: "hot-10k",
        network: "metro-10k",
        target_nodes: 10_000,
        traffic: Traffic::ZipfLocal { pool: POOL },
        updates: Some(Updates {
            rate: 10.0,
            decrease_every: 0,
        }),
        open: &METRO_10K_READS,
        saturation_seconds: 8.0,
        limit_ms: 25.0,
        setup_reps: 8,
        subject: "update_inc_p50_ms",
        why: "Zipf local trips (pool 4x the cache) with 10 jams/s on metro-10k: cache, hand-off, invalidation and the install lock dominate",
    },
    Workload {
        name: "storm-10k",
        network: "metro-10k",
        target_nodes: 10_000,
        traffic: Traffic::ZipfLocal { pool: POOL },
        updates: Some(Updates {
            rate: 10.0,
            decrease_every: 10,
        }),
        // The writes are the subject: one phase of light reads beside
        // them, and no saturation phase.
        open: &[OpenLoop {
            rate: 200.0,
            seconds: 30.0,
        }],
        saturation_seconds: 0.0,
        limit_ms: 25.0,
        setup_reps: 8,
        subject: "update_dec_p50_ms",
        why: "10 updates/s, every 10th a cost decrease, beside light Zipf reads on metro-10k: the write path (clone, patch, customize, re-contract, sweep) is the subject",
    },
    Workload {
        name: "cold-100k",
        network: "metro-100k",
        target_nodes: 100_000,
        traffic: Traffic::Uniform,
        updates: None,
        // 20 s at 60 req/s: a thousand samples behind the p99.
        open: &[OpenLoop {
            rate: 60.0,
            seconds: 20.0,
        }],
        saturation_seconds: 10.0,
        limit_ms: 100.0,
        setup_reps: 1,
        subject: "route_p50_ms",
        why: "uniform OD pairs on metro-100k (graph larger than the buffer pool), no updates: the scale axis for per-query O(n) work and the hierarchy build",
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

/// The timed phases of one run, in seconds.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseSeconds {
    pub open: Vec<f64>,
    pub saturation: f64,
    /// Leading part of the saturation phase that is driven but not counted.
    pub saturation_ramp: f64,
}

impl Workload {
    /// Timed seconds when `--seconds` is not given: ISSUE 11's lengths.
    pub fn default_seconds(&self) -> f64 {
        self.open.iter().map(|p| p.seconds).sum::<f64>() + self.saturation_seconds
    }

    /// The same shape on metro-1k: the harness self-test.
    pub fn smoke(mut self) -> Workload {
        self.network = "metro-1k";
        self.target_nodes = 1_000;
        self.setup_reps = 1;
        if let Traffic::ZipfLocal { pool } = &mut self.traffic {
            *pool = 512;
        }
        self
    }

    /// Every phase scaled alike so that the timed phases last `seconds`.
    pub fn phase_seconds(&self, seconds: f64) -> PhaseSeconds {
        let scale = seconds / self.default_seconds();
        let saturation = self.saturation_seconds * scale;
        PhaseSeconds {
            open: self.open.iter().map(|p| p.seconds * scale).collect(),
            saturation,
            saturation_ramp: (0.4 * saturation).min(SATURATION_RAMP_MAX),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seconds_scale_every_phase_alike() {
        let cold = find("cold-10k").unwrap();
        assert_eq!(cold.default_seconds(), 32.0);
        let p = cold.phase_seconds(16.0);
        assert_eq!(p.open, vec![6.0, 6.0]);
        assert_eq!((p.saturation, p.saturation_ramp), (4.0, 1.6));
        let storm = find("storm-10k").unwrap();
        let p = storm.phase_seconds(storm.default_seconds());
        assert_eq!(p.open, vec![30.0]);
        assert_eq!((p.saturation, p.saturation_ramp), (0.0, 0.0));
        assert_eq!(find("cold-100k").unwrap().default_seconds(), 30.0);
    }
}
