//! Seeded input generation: everything the service is asked to do is
//! fixed by `--seed` before the first request is sent — the OD lists, the
//! Zipf pool, the Poisson schedules and the update script. The network is
//! not an input: it is generated from a constant (see `stack.rs`).

use crate::workload::{PhaseSeconds, Traffic, Updates, Workload};
use atis_algorithms::memory::dijkstra_pair;
use atis_graph::{Graph, NodeId, PartitionMap, SplitMix64};
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::Arc;

pub type Pair = (NodeId, NodeId);

/// Pairs of the sequential warm-up pass (also the source of
/// `cost_units_per_route`).
pub const WARMUP_PAIRS: usize = 512;
/// A jam multiplies an edge's cost by this.
pub const JAM_FACTOR: f64 = 4.0;

/// Zipf(1.0) over ranks `0..n`: `P(rank k) ∝ 1/(k+1)`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for k in 0..n {
            acc += 1.0 / (k + 1) as f64;
            cdf.push(acc);
        }
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    /// The rank a uniform draw `u ∈ [0, 1)` selects.
    pub fn rank(&self, u: f64) -> usize {
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Arrival times (seconds from the phase start) of a Poisson process of
/// `rate` per second over `seconds`.
pub fn poisson_schedule(rng: &mut SplitMix64, rate: f64, seconds: f64) -> Vec<f64> {
    let mut times = Vec::with_capacity((rate * seconds * 1.1) as usize + 8);
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.next_f64()).ln() / rate;
        if t >= seconds {
            return times;
        }
        times.push(t);
    }
}

/// A seeded, endless stream of OD pairs of one traffic kind.
#[derive(Debug, Clone)]
pub struct PairSource {
    rng: SplitMix64,
    nodes: u64,
    zipf: Option<(Arc<Vec<Pair>>, Arc<Zipf>)>,
}

impl PairSource {
    pub fn next_pair(&mut self) -> Pair {
        match &self.zipf {
            Some((pool, zipf)) => pool[zipf.rank(self.rng.next_f64())],
            None => loop {
                let s = NodeId(self.rng.next_below(self.nodes) as u32);
                let d = NodeId(self.rng.next_below(self.nodes) as u32);
                if s != d {
                    return (s, d);
                }
            },
        }
    }
}

/// One scripted traffic update: directed edge `(u, v)` takes `cost`.
#[derive(Debug, Clone, Copy)]
pub struct Update {
    pub u: NodeId,
    pub v: NodeId,
    pub cost: f64,
    pub decrease: bool,
}

/// One open-loop phase: when each request is due and what it asks.
#[derive(Debug, Clone)]
pub struct OpenPhase {
    pub due: Vec<f64>,
    pub pairs: Vec<Pair>,
}

/// Everything one run sends to the service.
#[derive(Debug, Clone)]
pub struct Inputs {
    pub warmup: Vec<Pair>,
    /// The workload's open-loop phases, in order.
    pub open: Vec<OpenPhase>,
    /// One stream per closed-loop client.
    pub saturation: [PairSource; 2],
    /// How long each timed phase lasts.
    pub seconds: PhaseSeconds,
    pub updates: Vec<Update>,
    pub update_interval: f64,
    /// Local trips (the Zipf pool; the layer probes' flat-rung sample).
    pub local_pool: Arc<Vec<Pair>>,
    pub digest: u64,
}

/// Seeded pool of `size` distinct local trips: the origin uniform in a
/// uniform region, the destination in the same or a neighbouring region.
pub fn local_pool(graph: &Graph, rng: &mut SplitMix64, size: usize) -> Vec<Pair> {
    let map = PartitionMap::build(graph, crate::stack::REGION_TARGET);
    let regions = map.region_count();
    let mut members: Vec<Vec<NodeId>> = vec![Vec::new(); regions];
    for id in graph.node_ids() {
        members[map.region_of(id) as usize].push(id);
    }
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); regions];
    for e in graph.edges() {
        let (a, b) = (map.region_of(e.from) as usize, map.region_of(e.to) as usize);
        if a != b && !neighbours[a].contains(&b) {
            neighbours[a].push(b);
        }
    }
    for n in &mut neighbours {
        n.sort_unstable();
    }
    let pick = |rng: &mut SplitMix64, region: usize| {
        members[region][rng.next_below(members[region].len() as u64) as usize]
    };
    let mut seen = HashSet::with_capacity(size);
    let mut pool = Vec::with_capacity(size);
    while pool.len() < size {
        let r = rng.next_below(regions as u64) as usize;
        let to_region = if rng.next_u64() & 1 == 0 || neighbours[r].is_empty() {
            r
        } else {
            neighbours[r][rng.next_below(neighbours[r].len() as u64) as usize]
        };
        let pair = (pick(rng, r), pick(rng, to_region));
        if pair.0 != pair.1 && seen.insert(pair) {
            pool.push(pair);
        }
    }
    pool
}

/// The update script: jams (cost × [`JAM_FACTOR`]) on edges that are not
/// jammed yet — half of them on an edge of a popular trip's shortest
/// route, half on a uniform edge — and, every `decrease_every`-th update,
/// the oldest jam cleared back to its base cost.
fn update_script(
    graph: &Graph,
    rng: &mut SplitMix64,
    updates: Updates,
    count: usize,
    popular: Option<(&[Pair], &Zipf)>,
) -> Vec<Update> {
    let mut script = Vec::with_capacity(count);
    let mut jammed: VecDeque<(NodeId, NodeId, f64)> = VecDeque::new();
    let mut jammed_set: HashSet<(NodeId, NodeId)> = HashSet::new();
    let mut routes: HashMap<usize, Vec<NodeId>> = HashMap::new();
    let nodes = graph.node_count() as u64;
    while script.len() < count {
        let k = script.len() + 1;
        if updates.decrease_every > 0 && k % updates.decrease_every == 0 {
            if let Some((u, v, base)) = jammed.pop_front() {
                jammed_set.remove(&(u, v));
                script.push(Update {
                    u,
                    v,
                    cost: base,
                    decrease: true,
                });
                continue;
            }
        }
        let on_popular_route = k % 2 == 0;
        let edge = match popular {
            Some((pool, zipf)) if on_popular_route => {
                let rank = zipf.rank(rng.next_f64());
                let route = routes.entry(rank).or_insert_with(|| {
                    let (s, d) = pool[rank];
                    dijkstra_pair(graph, s, d).map_or_else(Vec::new, |p| p.nodes)
                });
                if route.len() < 2 {
                    continue;
                }
                let hop = rng.next_below(route.len() as u64 - 1) as usize;
                (route[hop], route[hop + 1])
            }
            _ => {
                let u = NodeId(rng.next_below(nodes) as u32);
                let out = graph.neighbors(u);
                if out.is_empty() {
                    continue;
                }
                (u, out[rng.next_below(out.len() as u64) as usize].to)
            }
        };
        if jammed_set.contains(&edge) {
            continue;
        }
        let Some(base) = graph.edge_cost(edge.0, edge.1) else {
            continue;
        };
        jammed_set.insert(edge);
        jammed.push_back((edge.0, edge.1, base));
        script.push(Update {
            u: edge.0,
            v: edge.1,
            cost: base * JAM_FACTOR,
            decrease: false,
        });
    }
    script
}

/// The layer probes' own update script: `increases` jams and `decreases`
/// clearings interleaved, drawn the way the workload's updates are.
pub fn probe_script(
    workload: &Workload,
    graph: &Graph,
    inputs: &Inputs,
    seed: u64,
    increases: usize,
    decreases: usize,
) -> Vec<Update> {
    let zipf = match workload.traffic {
        Traffic::ZipfLocal { pool } => Some(Zipf::new(pool)),
        Traffic::Uniform => None,
    };
    let shape = Updates {
        rate: 0.0,
        decrease_every: (increases + decreases) / decreases.max(1),
    };
    update_script(
        graph,
        &mut SplitMix64::new(seed ^ 0x7072_6f62_6573),
        shape,
        increases + decreases,
        zipf.as_ref().map(|z| (inputs.local_pool.as_slice(), z)),
    )
}

struct Digest(u64);

impl Digest {
    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn pairs(&mut self, pairs: &[Pair]) {
        for &(s, d) in pairs {
            self.word(u64::from(s.0) << 32 | u64::from(d.0));
        }
    }
}

/// Generates a run's inputs for `workload` on `graph` from `seed`.
pub fn generate(workload: &Workload, graph: &Graph, seed: u64, seconds: f64) -> Inputs {
    let mut root = SplitMix64::new(seed ^ 0x4154_4953_2d31_3100);
    let nodes = graph.node_count() as u64;
    let pool_size = match workload.traffic {
        Traffic::ZipfLocal { pool } => pool,
        // No Zipf pool: the local trips only feed the layer probes, which
        // fill a whole route cache with them.
        Traffic::Uniform => crate::stack::CACHE_CAPACITY,
    };
    let local_pool = Arc::new(local_pool(graph, &mut root.fork(), pool_size));
    let zipf = match workload.traffic {
        Traffic::ZipfLocal { pool } => Some(Arc::new(Zipf::new(pool))),
        Traffic::Uniform => None,
    };
    let source = |rng: SplitMix64| PairSource {
        rng,
        nodes,
        zipf: zipf.as_ref().map(|z| (local_pool.clone(), z.clone())),
    };

    // Warm-up: distinct pairs — the pool's most popular trips, or fresh
    // uniform draws.
    let warmup: Vec<Pair> = match workload.traffic {
        Traffic::ZipfLocal { .. } => local_pool.iter().copied().take(WARMUP_PAIRS).collect(),
        Traffic::Uniform => {
            let mut src = source(root.fork());
            let mut seen = HashSet::new();
            std::iter::repeat_with(|| src.next_pair())
                .filter(|p| seen.insert(*p))
                .take(WARMUP_PAIRS)
                .collect()
        }
    };

    let phase_seconds = workload.phase_seconds(seconds);
    let open: Vec<OpenPhase> = workload
        .open
        .iter()
        .zip(&phase_seconds.open)
        .map(|(phase, &secs)| {
            let due = poisson_schedule(&mut root.fork(), phase.rate, secs);
            let mut src = source(root.fork());
            let pairs = due.iter().map(|_| src.next_pair()).collect();
            OpenPhase { due, pairs }
        })
        .collect();
    let saturation = [source(root.fork()), source(root.fork())];

    let (updates, update_interval) = match workload.updates {
        Some(u) => {
            // The updater may run a little ahead of its pace after a slow
            // install; script half as many again as the pace needs.
            let count = (u.rate * seconds * 1.5) as usize + 16;
            let popular = zipf.as_deref().map(|z| (local_pool.as_slice(), z));
            (
                update_script(graph, &mut root.fork(), u, count, popular),
                1.0 / u.rate,
            )
        }
        None => (Vec::new(), 0.0),
    };

    let mut digest = Digest(0xcbf2_9ce4_8422_2325);
    digest.pairs(&warmup);
    for phase in &open {
        for &t in &phase.due {
            digest.word(t.to_bits());
        }
        digest.pairs(&phase.pairs);
    }
    for client in &saturation {
        let mut head = client.clone();
        let first: Vec<Pair> = (0..1024).map(|_| head.next_pair()).collect();
        digest.pairs(&first);
    }
    for u in &updates {
        digest.word(u64::from(u.u.0) << 32 | u64::from(u.v.0));
        digest.word(u.cost.to_bits());
    }

    Inputs {
        warmup,
        open,
        saturation,
        seconds: phase_seconds,
        updates,
        update_interval,
        local_pool,
        digest: digest.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_ranks_follow_the_harmonic_weights() {
        let zipf = Zipf::new(4);
        // Weights 1, 1/2, 1/3, 1/4 over 25/12: boundaries at 0.48, 0.72, 0.88.
        assert_eq!(zipf.rank(0.0), 0);
        assert_eq!(zipf.rank(0.47), 0);
        assert_eq!(zipf.rank(0.49), 1);
        assert_eq!(zipf.rank(0.73), 2);
        assert_eq!(zipf.rank(0.89), 3);
        assert_eq!(zipf.rank(0.999_999), 3);
        // Empirically: rank 0 is drawn about twice as often as rank 1.
        let mut rng = SplitMix64::new(1);
        let big = Zipf::new(4096);
        let mut counts = [0u32; 2];
        for _ in 0..200_000 {
            let r = big.rank(rng.next_f64());
            if r < 2 {
                counts[r] += 1;
            }
        }
        let ratio = f64::from(counts[0]) / f64::from(counts[1]);
        assert!((ratio - 2.0).abs() < 0.1, "ratio {ratio}");
    }

    #[test]
    fn poisson_schedule_is_seeded_sorted_and_has_the_rate() {
        let a = poisson_schedule(&mut SplitMix64::new(9), 400.0, 10.0);
        let b = poisson_schedule(&mut SplitMix64::new(9), 400.0, 10.0);
        let c = poisson_schedule(&mut SplitMix64::new(10), 400.0, 10.0);
        assert_eq!(a, b, "the same seed gives the same schedule");
        assert_ne!(a, c);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a.iter().all(|&t| (0.0..10.0).contains(&t)));
        // 4000 expected, standard deviation ≈ 63.
        assert!((a.len() as f64 - 4000.0).abs() < 320.0, "{}", a.len());
        // Exponential gaps: about 1/e of them exceed the mean gap.
        let mean_gap = 1.0 / 400.0;
        let long = a.windows(2).filter(|w| w[1] - w[0] > mean_gap).count();
        let share = long as f64 / (a.len() - 1) as f64;
        assert!((share - (-1.0f64).exp()).abs() < 0.03, "share {share}");
    }
}
