//! The serve-zipf request stream and its open-loop sender.
//!
//! The stream is a pure function of the seed: seeded Poisson arrivals at
//! a fixed rate, each carrying one request of a fixed mix whose cells are
//! zipf-skewed over the suite's workloads × depths 2–64. The sender runs
//! it open loop on at most [`CONNECTIONS`] connections: a request that is
//! due while every connection is busy waits in the generator, and that
//! wait is charged to its latency, which runs from the scheduled send
//! time to the last response byte.

use crate::http::{self, Reply};
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Connections (and sender threads) in flight at once.
pub const CONNECTIONS: usize = 2;
/// Depths the zipf cells range over (the service's full valid range).
pub const DEPTHS: std::ops::RangeInclusive<u32> = 2..=64;
/// Zipf exponent over the workload × depth cells.
pub const ZIPF_S: f64 = 1.1;
/// Most cells in one evaluate request.
pub const MAX_CELLS: usize = 16;

/// SplitMix64: small, seedable, and stable across platforms.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    /// A generator for sub-stream `lane` of `seed`.
    pub fn derive(seed: u64, lane: u64) -> Rng {
        let mut r = Rng(seed ^ lane.wrapping_mul(0xd1b5_4a32_d192_ed03));
        r.next_u64();
        r
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `0..n` (n > 0).
    pub fn below(&mut self, n: usize) -> usize {
        (self.unit() * n as f64) as usize % n
    }

    /// Uniform in `lo..=hi`.
    pub fn between(&mut self, lo: usize, hi: usize) -> usize {
        lo + self.below(hi - lo + 1)
    }
}

/// Zipf over ranks `0..n`: `P(rank k) ∝ 1 / (k + 1)^s`.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut acc = 0.0;
        let mut cdf: Vec<f64> = (1..=n)
            .map(|k| {
                acc += 1.0 / (k as f64).powf(s);
                acc
            })
            .collect();
        for c in &mut cdf {
            *c /= acc;
        }
        Zipf { cdf }
    }

    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.unit();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

/// Backend an evaluate request asks for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    Sim,
    Model,
    Auto,
}

impl Backend {
    pub fn as_str(self) -> &'static str {
        match self {
            Backend::Sim => "sim",
            Backend::Model => "model",
            Backend::Auto => "auto",
        }
    }
}

/// One `(workload index, depth)` cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cell {
    pub workload: usize,
    pub depth: u32,
}

/// One request of the mix.
#[derive(Debug, Clone, PartialEq)]
pub enum Op {
    /// `POST /v1/evaluate`.
    Evaluate {
        backend: Backend,
        deadline_ms: Option<u64>,
        cells: Vec<Cell>,
    },
    /// `GET /v1/optimum?workload=..&m=..`.
    Optimum { workload: usize, m: u32 },
}

impl Op {
    /// HTTP method, path and body of the request.
    pub fn render(&self, names: &[String]) -> (&'static str, String, Option<String>) {
        match self {
            Op::Optimum { workload, m } => (
                "GET",
                format!("/v1/optimum?workload={}&m={m}", names[*workload]),
                None,
            ),
            Op::Evaluate {
                backend,
                deadline_ms,
                cells,
            } => {
                let mut body = format!("{{\"backend\": \"{}\"", backend.as_str());
                if let Some(d) = deadline_ms {
                    let _ = write!(body, ", \"deadline_ms\": {d}");
                }
                body.push_str(", \"cells\": [");
                for (i, c) in cells.iter().enumerate() {
                    if i > 0 {
                        body.push_str(", ");
                    }
                    let _ = write!(
                        body,
                        "{{\"workload\": \"{}\", \"depth\": {}}}",
                        names[c.workload], c.depth
                    );
                }
                body.push_str("]}");
                ("POST", "/v1/evaluate".to_string(), Some(body))
            }
        }
    }
}

/// A request and the time it is due, relative to the schedule start.
#[derive(Debug, Clone, PartialEq)]
pub struct Planned {
    pub due: Duration,
    pub op: Op,
}

/// The request mix over a workload list.
#[derive(Debug, Clone)]
pub struct Mix {
    pub names: Vec<String>,
    zipf: Zipf,
    /// Zipf rank → cell id (`workload * depths + depth offset`): one fixed
    /// shuffle, so every seed shares the same popular cells and a seed
    /// varies only the arrivals and the draws.
    ranked: Vec<usize>,
}

/// Seed of the fixed popularity ranking.
const RANKING_SEED: u64 = 0x5eed_0f2d_e97a;

impl Mix {
    pub fn new(names: Vec<String>) -> Mix {
        let depths = DEPTHS.count();
        let n = names.len() * depths;
        let mut ranked: Vec<usize> = (0..n).collect();
        let mut rng = Rng::new(RANKING_SEED);
        for i in (1..n).rev() {
            ranked.swap(i, rng.below(i + 1));
        }
        Mix {
            names,
            zipf: Zipf::new(n, ZIPF_S),
            ranked,
        }
    }

    fn cell(&self, rng: &mut Rng) -> Cell {
        let id = self.ranked[self.zipf.sample(rng)];
        let depths = DEPTHS.count();
        Cell {
            workload: id / depths,
            depth: *DEPTHS.start() + (id % depths) as u32,
        }
    }

    fn cells(&self, rng: &mut Rng) -> Vec<Cell> {
        let n = rng.between(1, MAX_CELLS);
        (0..n).map(|_| self.cell(rng)).collect()
    }

    /// One request drawn from the mix: 8% `sim` and 3% `auto` point
    /// requests, 4% one-workload depth sweeps, 40% `model` requests, 5%
    /// optimum queries and 40% `auto` requests with a zero deadline.
    pub fn op(&self, rng: &mut Rng) -> Op {
        let roll = rng.unit();
        let evaluate = |backend, deadline_ms, cells| Op::Evaluate {
            backend,
            deadline_ms,
            cells,
        };
        if roll < 0.08 {
            evaluate(Backend::Sim, None, self.cells(rng))
        } else if roll < 0.11 {
            evaluate(Backend::Auto, None, self.cells(rng))
        } else if roll < 0.15 {
            // A one-workload depth sweep: sweep mates share one annotation.
            let workload = self.cell(rng).workload;
            let len = rng.between(4, 12);
            let start = *DEPTHS.start() + rng.below(DEPTHS.count() - len + 1) as u32;
            let cells = (start..start + len as u32)
                .map(|depth| Cell { workload, depth })
                .collect();
            evaluate(Backend::Sim, None, cells)
        } else if roll < 0.55 {
            evaluate(Backend::Model, None, self.cells(rng))
        } else if roll < 0.60 {
            Op::Optimum {
                workload: self.cell(rng).workload,
                m: rng.between(1, 3) as u32,
            }
        } else {
            // A zero budget: every uncached cell degrades to the model.
            evaluate(Backend::Auto, Some(0), self.cells(rng))
        }
    }

    /// The schedule of sample `sample` of a run seeded `seed`: Poisson
    /// arrivals at `rate` per second over `span`.
    pub fn plan(&self, seed: u64, sample: u64, rate: f64, span: Duration) -> Vec<Planned> {
        let mut rng = Rng::derive(seed, sample);
        let mut t = 0.0;
        let mut out = Vec::new();
        loop {
            t += -(1.0 - rng.unit()).ln() / rate;
            if t >= span.as_secs_f64() {
                return out;
            }
            out.push(Planned {
                due: Duration::from_secs_f64(t),
                op: self.op(&mut rng),
            });
        }
    }
}

/// What happened to one request. Times are relative to the schedule start.
#[derive(Debug, Clone)]
pub struct Sent {
    pub due: Duration,
    pub sent: Duration,
    pub done: Duration,
    pub reply: Result<Reply, String>,
}

impl Sent {
    /// Scheduled send time to last response byte.
    pub fn latency(&self) -> Duration {
        self.done.saturating_sub(self.due)
    }

    /// How late the generator sent, versus the schedule.
    pub fn late(&self) -> Duration {
        self.sent.saturating_sub(self.due)
    }
}

/// Sends `plan` to `addr` open loop over `connections` threads. Requests
/// are rendered before the clock starts; results come back in plan order.
pub fn run_open_loop(
    addr: SocketAddr,
    plan: &[Planned],
    names: &[String],
    connections: usize,
) -> Vec<Sent> {
    let rendered: Vec<_> = plan.iter().map(|p| p.op.render(names)).collect();
    let slots: Vec<Mutex<Option<Sent>>> = plan.iter().map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..connections.max(1) {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(planned) = plan.get(i) else { break };
                let due = planned.due;
                let now = start.elapsed();
                if now < due {
                    std::thread::sleep(due - now);
                }
                let sent = start.elapsed();
                let (method, path, body) = &rendered[i];
                let reply =
                    http::request(addr, method, path, body.as_deref()).map_err(|e| e.to_string());
                let done = start.elapsed();
                *slots[i].lock().expect("a sender panicked") = Some(Sent {
                    due,
                    sent,
                    done,
                    reply,
                });
            });
        }
    });
    slots
        .into_iter()
        .map(|s| {
            s.into_inner()
                .expect("a sender panicked")
                .expect("every planned request is sent")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::TcpListener;

    /// The plan as bytes: due times in nanoseconds plus each rendered request.
    fn stream_bytes(plan: &[Planned], names: &[String]) -> Vec<u8> {
        let mut out = String::new();
        for p in plan {
            let (method, path, body) = p.op.render(names);
            let _ = writeln!(
                out,
                "{} {method} {path} {}",
                p.due.as_nanos(),
                body.unwrap_or_default()
            );
        }
        out.into_bytes()
    }

    fn names() -> Vec<String> {
        (0..55).map(|i| format!("w-{i:02}")).collect()
    }

    #[test]
    fn the_same_seed_gives_a_byte_identical_stream() {
        let span = Duration::from_secs(5);
        let a = Mix::new(names()).plan(7, 0, 40.0, span);
        let b = Mix::new(names()).plan(7, 0, 40.0, span);
        assert!(!a.is_empty());
        assert_eq!(stream_bytes(&a, &names()), stream_bytes(&b, &names()));
        let c = Mix::new(names()).plan(8, 0, 40.0, span);
        assert_ne!(stream_bytes(&a, &names()), stream_bytes(&c, &names()));
        let d = Mix::new(names()).plan(7, 1, 40.0, span);
        assert_ne!(stream_bytes(&a, &names()), stream_bytes(&d, &names()));
    }

    #[test]
    fn arrivals_come_at_the_requested_rate() {
        let plan = Mix::new(names()).plan(3, 0, 50.0, Duration::from_secs(200));
        let rate = plan.len() as f64 / 200.0;
        assert!((rate - 50.0).abs() < 2.5, "rate {rate}");
        assert!(plan.windows(2).all(|w| w[0].due <= w[1].due));
    }

    #[test]
    fn zipf_skew_is_as_specified() {
        let (n, s) = (100, 1.1);
        let zipf = Zipf::new(n, s);
        let mut rng = Rng::new(42);
        let mut counts = vec![0u64; n];
        let draws = 400_000;
        for _ in 0..draws {
            counts[zipf.sample(&mut rng)] += 1;
        }
        let h: f64 = (1..=n).map(|k| 1.0 / (k as f64).powf(s)).sum();
        let p0 = counts[0] as f64 / draws as f64;
        assert!((p0 - 1.0 / h).abs() < 0.01 * (1.0 / h) + 0.002, "p0 {p0}");
        // P(rank 1) / P(rank k) = k^s.
        for k in [2usize, 4, 10] {
            let ratio = counts[0] as f64 / counts[k - 1] as f64;
            let want = (k as f64).powf(s);
            assert!(
                (ratio / want - 1.0).abs() < 0.06,
                "k {k}: {ratio} vs {want}"
            );
        }
    }

    #[test]
    fn the_mix_stays_within_its_bounds() {
        let mix = Mix::new(names());
        let mut rng = Rng::new(5);
        let mut kinds = [0usize; 4];
        for _ in 0..5_000 {
            match mix.op(&mut rng) {
                Op::Evaluate { cells, backend, .. } => {
                    assert!((1..=MAX_CELLS).contains(&cells.len()));
                    assert!(cells
                        .iter()
                        .all(|c| c.workload < 55 && DEPTHS.contains(&c.depth)));
                    kinds[backend as usize] += 1;
                }
                Op::Optimum { workload, m } => {
                    assert!(workload < 55 && (1..=3).contains(&m));
                    kinds[3] += 1;
                }
            }
        }
        assert!(kinds.iter().all(|&k| k > 0), "{kinds:?}");
    }

    /// A listener that answers one connection at a time, each after a
    /// fixed stall.
    fn stalled_listener(
        stall: Duration,
        answers: usize,
    ) -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            for _ in 0..answers {
                let (mut stream, _) = listener.accept().unwrap();
                std::thread::sleep(stall);
                let mut buf = [0u8; 4096];
                let _ = stream.read(&mut buf);
                stream
                    .write_all(b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
                    .unwrap();
            }
        });
        (addr, handle)
    }

    #[test]
    fn lateness_is_charged_against_a_stalled_listener() {
        let stall = Duration::from_millis(100);
        let (addr, server) = stalled_listener(stall, 4);
        let op = Op::Optimum { workload: 0, m: 3 };
        let plan: Vec<Planned> = (0..4)
            .map(|_| Planned {
                due: Duration::ZERO,
                op: op.clone(),
            })
            .collect();
        let sent = run_open_loop(addr, &plan, &names(), 2);
        server.join().unwrap();
        assert!(sent.iter().all(|s| s.reply.as_ref().unwrap().status == 200));
        // The first two go out on time; the last two wait for a free
        // connection, and that wait is in their latency.
        let mut by_send: Vec<&Sent> = sent.iter().collect();
        by_send.sort_by_key(|s| s.sent);
        for s in &by_send[..2] {
            assert!(s.late() < stall / 2, "late {:?}", s.late());
        }
        for s in &by_send[2..] {
            assert!(
                s.late() >= stall - Duration::from_millis(5),
                "late {:?}",
                s.late()
            );
            assert!(s.latency() >= s.late() + stall - Duration::from_millis(5));
        }
        // Serially served: the last answer lands after four stalls, and
        // its latency counts from when it was due, not when it was sent.
        let slowest = sent.iter().map(Sent::latency).max().unwrap();
        assert!(
            slowest >= 4 * stall - Duration::from_millis(5),
            "{slowest:?}"
        );
    }
}
