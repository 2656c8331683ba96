//! Load generation against one `ViewServer`: a single client, `nproc`
//! closed-loop clients, and an open loop at a fixed offered rate served by
//! one worker.
//!
//! Every window replays the same query list in order from a shared cursor,
//! so the cache sees the same access pattern however many clients run. No
//! window starts more threads than the caller passes in; callers pass at
//! most `nproc`.

use crate::stats::{median, percentile};
use av_plan::PlanRef;
use av_serve::ViewServer;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// How long a window runs: for a wall-clock span, or for a fixed number of
/// requests.
#[derive(Debug, Clone, Copy)]
pub enum Budget {
    Time(Duration),
    Requests(usize),
}

/// Length of one slice of a serving round.
pub const SLICE: Duration = Duration::from_millis(250);

/// How long before an arrival is due a waiting worker stops sleeping and
/// spins.
const SPIN: Duration = Duration::from_millis(2);

/// An in-order replay of `plans` through `server`, with request tallies.
pub struct Replay<'a> {
    server: &'a ViewServer,
    plans: &'a [PlanRef],
    position: AtomicUsize,
    pub attempted: AtomicU64,
    pub failed: AtomicU64,
    pub rewrite_hits: AtomicU64,
}

impl<'a> Replay<'a> {
    pub fn new(server: &'a ViewServer, plans: &'a [PlanRef]) -> Replay<'a> {
        Replay {
            server,
            plans,
            position: AtomicUsize::new(0),
            attempted: AtomicU64::new(0),
            failed: AtomicU64::new(0),
            rewrite_hits: AtomicU64::new(0),
        }
    }

    /// Serve request `k` of a window that started at replay offset `base`.
    fn serve(&self, tenant: &str, base: usize, k: usize) {
        let plan = &self.plans[(base + k) % self.plans.len()];
        self.attempted.fetch_add(1, Ordering::Relaxed);
        match self.server.execute(tenant, plan) {
            Ok(resp) => {
                self.rewrite_hits
                    .fetch_add(resp.rewrite_hits as u64, Ordering::Relaxed);
            }
            Err(_) => {
                self.failed.fetch_add(1, Ordering::Relaxed);
            }
        }
    }

    /// Open a window: its base offset and a fresh claim counter.
    fn window(&self) -> (usize, AtomicUsize) {
        (self.position.load(Ordering::SeqCst), AtomicUsize::new(0))
    }

    /// Close a window that handed out `claimed` requests.
    fn advance(&self, served: usize) {
        self.position.fetch_add(served, Ordering::SeqCst);
    }

    /// One pass over every plan with `clients` closed-loop clients.
    pub fn pass(&self, clients: usize) {
        self.saturated(Budget::Requests(self.plans.len()), clients);
    }

    /// One client, zero think time: per-request latency in µs, in order.
    pub fn single(&self, budget: Budget) -> Vec<f64> {
        let (base, _) = self.window();
        let start = Instant::now();
        let mut lat = Vec::new();
        let mut k = 0usize;
        loop {
            match budget {
                Budget::Requests(n) if k >= n => break,
                Budget::Time(d) if start.elapsed() >= d => break,
                _ => {}
            }
            let t0 = Instant::now();
            self.serve("t0", base, k);
            lat.push(t0.elapsed().as_secs_f64() * 1e6);
            k += 1;
        }
        self.advance(k);
        lat
    }

    /// `clients` closed-loop clients with zero think time: completed
    /// requests per second.
    pub fn saturated(&self, budget: Budget, clients: usize) -> f64 {
        let (base, claimed) = self.window();
        let start = Instant::now();
        std::thread::scope(|s| {
            for c in 0..clients.max(1) {
                let claimed = &claimed;
                s.spawn(move || {
                    let tenant = format!("t{c}");
                    loop {
                        if let Budget::Time(d) = budget {
                            if start.elapsed() >= d {
                                break;
                            }
                        }
                        let k = claimed.fetch_add(1, Ordering::SeqCst);
                        if let Budget::Requests(n) = budget {
                            if k >= n {
                                break;
                            }
                        }
                        self.serve(&tenant, base, k);
                    }
                });
            }
        });
        let wall = start.elapsed().as_secs_f64();
        // With a request budget each client claims one past the end.
        let served = match budget {
            Budget::Requests(n) => n.min(claimed.into_inner()),
            Budget::Time(_) => claimed.into_inner(),
        };
        self.advance(served);
        served as f64 / wall
    }

    /// Open loop: arrivals every `1/rate` seconds, served in order by one
    /// worker that is also the dispatcher: when the next arrival is not
    /// yet due, it waits for it. Latency counts from the scheduled arrival,
    /// so time an arrival spends queued behind a slow request counts
    /// against it.
    pub fn open(&self, budget: Budget, rate: f64) -> OpenLoop {
        let (base, _) = self.window();
        let interval = Duration::from_secs_f64(1.0 / rate);
        let start = Instant::now() + Duration::from_millis(1);
        let mut o = OpenLoop::default();
        let mut k = 0usize;
        loop {
            let due = start + interval.mul_f64(k as f64);
            match budget {
                Budget::Requests(n) if k >= n => break,
                Budget::Time(d) if due >= start + d => break,
                _ => {}
            }
            if Instant::now() < due {
                wait_until(due);
                o.lateness_us.push(due.elapsed().as_secs_f64() * 1e6);
            }
            self.serve("t0", base, k);
            o.latency_us.push(due.elapsed().as_secs_f64() * 1e6);
            k += 1;
        }
        self.advance(k);
        o
    }
}

/// Sleep until shortly before `due`, then spin: a sleep can overshoot by
/// a millisecond or more, many times what a cached request takes. The spin
/// yields, so the waiting worker does not hold a core that the program's
/// pool threads are queued for.
fn wait_until(due: Instant) {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::thread::yield_now();
    }
}

/// Samples from one open-loop window.
#[derive(Debug, Default)]
pub struct OpenLoop {
    /// Latency of each arrival in µs, in arrival order.
    pub latency_us: Vec<f64>,
    /// How late each waited-for arrival started, µs.
    pub lateness_us: Vec<f64>,
}

/// The serving figures of one workload, each a median over slices.
#[derive(Debug, Default, Clone)]
pub struct ServeFigures {
    pub service_us: f64,
    pub saturated_qps: f64,
    pub open_p50_us: f64,
    pub open_p90_us: f64,
    pub open_p99_us: f64,
    pub lateness_p99_us: f64,
}

/// Open-loop slices with fewer samples than this are pooled before the
/// percentiles are taken, so that p99 has at least ten samples beyond it.
const OPEN_SLICE_MIN: usize = 1000;

/// Per-slice samples of the serving figures, gathered a round at a time
/// and interleaved with the workload's other operations, so that every
/// figure samples the whole run. The host's speed drifts over seconds;
/// a figure measured in one block would sample only part of that drift.
#[derive(Debug, Default)]
pub struct Series {
    service_us: Vec<f64>,
    qps: Vec<f64>,
    open_us: Vec<Vec<f64>>,
    lateness_us: Vec<f64>,
}

impl Series {
    /// One slice of each load shape, `budget` each: one client, then
    /// `clients` closed-loop clients, then the one-worker open loop at
    /// `rate`.
    pub fn round(&mut self, replay: &Replay, budget: Budget, clients: usize, rate: f64) {
        self.service_us.push(median(&replay.single(budget)));
        self.qps.push(replay.saturated(budget, clients));
        let open = replay.open(budget, rate);
        self.lateness_us.extend(open.lateness_us);
        self.open_us.push(open.latency_us);
    }

    pub fn is_empty(&self) -> bool {
        self.service_us.is_empty()
    }

    pub fn figures(&self) -> ServeFigures {
        let (p50, p90, p99) = if self.open_us.iter().all(|s| s.len() >= OPEN_SLICE_MIN) {
            let per = |q: f64| {
                median(
                    &self
                        .open_us
                        .iter()
                        .map(|s| percentile(s, q))
                        .collect::<Vec<_>>(),
                )
            };
            (per(0.50), per(0.90), per(0.99))
        } else {
            let all: Vec<f64> = self.open_us.iter().flatten().copied().collect();
            (
                percentile(&all, 0.50),
                percentile(&all, 0.90),
                percentile(&all, 0.99),
            )
        };
        ServeFigures {
            service_us: median(&self.service_us),
            saturated_qps: median(&self.qps),
            open_p50_us: p50,
            open_p90_us: p90,
            open_p99_us: p99,
            lateness_p99_us: percentile(&self.lateness_us, 0.99),
        }
    }
}
