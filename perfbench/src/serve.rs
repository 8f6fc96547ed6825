//! `serve-mixed`: closed-loop clients against an in-process ohm-serve.
//!
//! The daemon's state directory is warmed with a seeded set of
//! `quick_test` cells before timing starts. Eight clients then each
//! submit one-cell jobs and wait for the job's terminal NDJSON line
//! before sending the next: about 80% re-request warm cells (cache
//! hits), the rest use fresh seeds that must simulate (misses). Cells
//! take milliseconds, so HTTP, job handling, the cache and journal
//! appends dominate.
//!
//! The daemon runs with `FsyncPolicy::OnClose`, not its default
//! `Always`. Under `Always` every job waits for two or three fsyncs taken
//! under the job-table lock, so throughput followed the host disk's
//! fsync latency, which moved threefold between identical runs on a
//! shared virtual disk; the daemon's own code left a third of the CPUs
//! idle. With `OnClose` the load is CPU-bound and repeats within a few
//! percent.

use std::collections::{BTreeMap, HashMap};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use ohm_core::checkpoint::{report_digest, FsyncPolicy, Journal};
use ohm_core::json::parse_json;
use ohm_core::{OperationalMode, Platform, SimReport, SystemConfig};
use ohm_serve::{parse_job, Client, ServeOptions, Server};
use ohm_sim::SplitMix64;
use ohm_workloads::all_workloads;

use crate::rss::RssSampler;
use crate::spans::Tracer;
use crate::stats::{percentile, Table};
use crate::{Ctx, Outcome};

/// Distinct cells in the warm set.
const WARM_CELLS: usize = 128;
/// Share of jobs that re-request a warm cell.
const HIT_SHARE: f64 = 0.8;
/// Closed-loop clients. Eight keep both CPUs busy, so throughput and
/// latency follow the daemon's CPU cost per job rather than the host's
/// thread wake-up latency.
const CLIENTS: usize = 8;
/// Server starts per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Every this-many-th miss is simulated again in-process to check the
/// digest the daemon streamed.
const VERIFY_EVERY: usize = 20;
/// Samples a p99 needs to have ten beyond it.
const P99_MIN: usize = 1000;

/// One client request as the client saw it.
struct JobRecord {
    body: String,
    warm: bool,
    latency_ms: f64,
    /// Completion time, seconds after the load phase started.
    done_at: f64,
    submit_ms: f64,
    stream_ms: f64,
    /// The cell line's `outcome` (`cached`, `completed`, ...).
    outcome: String,
    digest: Option<u64>,
    error: Option<String>,
}

fn job_body(platform: Platform, workload: &str, mode: OperationalMode, seed: u64) -> String {
    let mode = match mode {
        OperationalMode::Planar => "planar",
        OperationalMode::TwoLevel => "two-level",
    };
    format!(
        "{{\"config\":{{\"seed\":{seed}}},\"platforms\":[\"{}\"],\"workloads\":[\"{workload}\"],\"mode\":\"{mode}\"}}",
        platform.name()
    )
}

/// The benchmark seed folded below 2^40: job bodies carry seeds as
/// JSON numbers, which `parse_job` accepts only below 2^53.
fn job_seed(seed: u64) -> u64 {
    (seed ^ (seed >> 40)) & ((1 << 40) - 1)
}

/// A random cell of the mix with the given seed.
fn random_body(rng: &mut SplitMix64, seed: u64) -> String {
    let workloads = all_workloads();
    let platform = Platform::ALL[rng.next_below(Platform::ALL.len() as u64) as usize];
    let workload = workloads[rng.next_below(workloads.len() as u64) as usize].name;
    let mode = if rng.chance(0.5) {
        OperationalMode::Planar
    } else {
        OperationalMode::TwoLevel
    };
    job_body(platform, workload, mode, seed)
}

fn hex(v: &ohm_core::json::JsonValue) -> Option<u64> {
    v.as_str().and_then(|s| u64::from_str_radix(s, 16).ok())
}

/// Submits `body` and follows its event stream to the terminal line.
fn one_job(client: &Client, body: String, warm: bool, tracer: &mut Tracer, run: u64) -> JobRecord {
    let mut rec = JobRecord {
        body,
        warm,
        latency_ms: 0.0,
        done_at: 0.0,
        submit_ms: 0.0,
        stream_ms: 0.0,
        outcome: String::new(),
        digest: None,
        error: None,
    };
    let open = tracer.begin("serve.job", None, run);
    let (resp, d) = tracer.time("serve.submit", open.id(), run, || client.submit(&rec.body));
    rec.submit_ms = d.as_secs_f64() * 1e3;
    let id = match resp {
        Ok(r) if r.status == 200 => parse_json(&r.body)
            .ok()
            .and_then(|v| v.get("job").and_then(|j| j.as_str()).map(str::to_string)),
        Ok(r) => {
            rec.error = Some(format!("submit: HTTP {}: {}", r.status, r.body.trim()));
            None
        }
        Err(e) => {
            rec.error = Some(format!("submit: {e}"));
            None
        }
    };
    if let Some(id) = id {
        let mut done = false;
        let (streamed, d) = tracer.time("serve.stream", open.id(), run, || {
            client.stream_events(&id, |line| {
                let Ok(v) = parse_json(line) else { return };
                if v.get("done").is_some() {
                    done = v.get("digest").and_then(hex).is_some();
                } else {
                    rec.outcome = v
                        .get("outcome")
                        .and_then(|o| o.as_str())
                        .unwrap_or_default()
                        .to_string();
                    rec.digest = v.get("report_digest").and_then(hex);
                }
            })
        });
        rec.stream_ms = d.as_secs_f64() * 1e3;
        match streamed {
            Err(e) => rec.error = Some(format!("stream {id}: {e}")),
            Ok(()) if !done => rec.error = Some(format!("stream {id}: no terminal digest")),
            Ok(()) => {}
        }
    } else if rec.error.is_none() {
        rec.error = Some("submit: response without a job id".into());
    }
    rec.latency_ms = tracer.end(open).as_secs_f64() * 1e3;
    rec
}

/// `GET /stats` cache counters: `(hits, misses, coalesced)`.
fn cache_stats(client: &Client) -> Option<(f64, f64, f64)> {
    let r = client.stats().ok().filter(|r| r.status == 200)?;
    let v = parse_json(&r.body).ok()?;
    let c = v.get("cache")?;
    let n = |k: &str| c.get(k).and_then(|x| x.as_f64());
    Some((n("hits")?, n("misses")?, n("coalesced")?))
}

/// The load phase: closed-loop clients until `budget` has passed.
#[derive(Default)]
struct Load {
    jobs: Vec<JobRecord>,
    wall: f64,
    /// Cache counter deltas over the phase: (hits, misses, coalesced).
    cache: (f64, f64, f64),
}

impl Load {
    /// Appends a later phase; its completion times continue this one's.
    fn extend(&mut self, mut next: Load) {
        for j in &mut next.jobs {
            j.done_at += self.wall;
        }
        self.jobs.append(&mut next.jobs);
        self.wall += next.wall;
        self.cache.0 += next.cache.0;
        self.cache.1 += next.cache.1;
        self.cache.2 += next.cache.2;
    }
}

fn load(
    addr: &str,
    warm: &[String],
    seed: u64,
    phase: u64,
    budget: Duration,
    tracer: &mut Tracer,
) -> Load {
    let client = Client::new(addr);
    let before = cache_stats(&client).unwrap_or_default();
    let start = Instant::now();
    let deadline = start + budget;
    let (on, origin) = (tracer.is_on(), tracer.origin());
    let results: Vec<(Vec<JobRecord>, Tracer)> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..CLIENTS as u64)
            .map(|c| {
                let mut t = Tracer::new(on, origin);
                s.spawn(move || {
                    let client = Client::new(addr);
                    let mut rng = SplitMix64::new(seed).fork(phase * 64 + c);
                    let mut jobs = Vec::new();
                    let mut n = 0u64;
                    while Instant::now() < deadline {
                        let (body, is_warm) = if rng.chance(HIT_SHARE) {
                            (
                                warm[rng.next_below(warm.len() as u64) as usize].clone(),
                                true,
                            )
                        } else {
                            // Fresh seeds, disjoint from the warm set's
                            // and from every other client's.
                            let fresh = job_seed(seed) + (1 << 41) + ((phase * 64 + c) << 32) + n;
                            (random_body(&mut rng, fresh), false)
                        };
                        let run = ((phase * 64 + c) << 32) | n;
                        let mut rec = one_job(&client, body, is_warm, &mut t, run);
                        rec.done_at = start.elapsed().as_secs_f64();
                        jobs.push(rec);
                        n += 1;
                    }
                    (jobs, t)
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    let wall = start.elapsed().as_secs_f64();
    let after = cache_stats(&client).unwrap_or_default();
    let mut jobs = Vec::new();
    for (j, t) in results {
        jobs.extend(j);
        tracer.absorb(t);
    }
    Load {
        jobs,
        wall,
        cache: (after.0 - before.0, after.1 - before.1, after.2 - before.2),
    }
}

/// Starts the daemon and waits until `GET /stats` answers.
fn start(state: &Path, workers: usize) -> std::io::Result<(Server, Duration)> {
    let t = Instant::now();
    let opts = ServeOptions {
        workers,
        fsync: FsyncPolicy::OnClose,
        ..ServeOptions::default()
    };
    let server = Server::start("127.0.0.1:0", state, opts)?;
    let client = Client::new(server.local_addr().to_string());
    for _ in 0..10_000 {
        if client.stats().is_ok_and(|r| r.status == 200) {
            return Ok((server, t.elapsed()));
        }
        std::thread::sleep(Duration::from_micros(100));
    }
    Err(std::io::Error::other("GET /stats never answered"))
}

pub fn serve_mixed(ctx: &Ctx) -> Outcome {
    let mut out = Outcome::default();
    let state: PathBuf = ctx
        .out_dir
        .join(format!("serve-state-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&state);
    if let Err(e) = run(ctx, &state, &mut out) {
        out.check(false, || format!("serve-mixed: {e}"));
    }
    let _ = std::fs::remove_dir_all(&state);
    out
}

fn run(ctx: &Ctx, state: &Path, out: &mut Outcome) -> std::io::Result<()> {
    let workers = ctx.nproc;
    let mut rng = SplitMix64::new(ctx.seed);
    let warm_cells = if ctx.smoke { 16 } else { WARM_CELLS };
    let mut warm: Vec<String> = Vec::with_capacity(warm_cells);
    while warm.len() < warm_cells {
        let seed = job_seed(ctx.seed) + rng.next_below(16);
        let body = random_body(&mut rng, seed);
        if !warm.contains(&body) {
            warm.push(body);
        }
    }

    // Warm the state directory; the digests it returns are what every
    // later hit must stream.
    let mut off = Tracer::new(false, ctx.origin);
    let mut warm_digest: HashMap<String, u64> = HashMap::new();
    {
        let (server, _) = start(state, workers)?;
        let client = Client::new(server.local_addr().to_string());
        for (i, body) in warm.iter().enumerate() {
            let rec = one_job(&client, body.clone(), false, &mut off, i as u64);
            out.check(rec.error.is_none() && rec.digest.is_some(), || {
                format!("warm-up job {i}: {:?}", rec.error)
            });
            if let Some(d) = rec.digest {
                warm_digest.insert(rec.body, d);
            }
        }
    }

    // Set-up: restart on the warm directory (journal replay included).
    let mut setup = Vec::with_capacity(SETUP_REPS);
    let mut server = None;
    for _ in 0..SETUP_REPS {
        drop(server.take());
        let (s, d) = start(state, workers)?;
        setup.push(d.as_secs_f64());
        server = Some(s);
    }
    let server = server.expect("at least one start");
    let addr = server.local_addr().to_string();

    // An unmeasured warm-up load lets the daemon's threads, sockets and
    // allocator settle before timing starts.
    let budget = Duration::from_secs_f64(ctx.seconds);
    let warmup = load(&addr, &warm, ctx.seed, 4, budget / 20, &mut off);
    check_jobs(&warmup, &warm_digest, out);
    let mut tracer = Tracer::new(ctx.trace, ctx.origin);
    let mut rss = (0.0, 0);
    let measured = if ctx.trace {
        // Untraced and traced quarters alternate, so a drift in the
        // host's speed over the run cancels out of the overhead.
        let mut plain = Load::default();
        let mut traced = Load::default();
        for phase in 0..4 {
            if phase % 2 == 0 {
                plain.extend(load(&addr, &warm, ctx.seed, phase, budget / 4, &mut off));
            } else {
                traced.extend(load(&addr, &warm, ctx.seed, phase, budget / 4, &mut tracer));
            }
        }
        let rate = |l: &Load| l.jobs.len() as f64 / l.wall;
        out.table.value(
            "trace.overhead_frac",
            "fraction",
            rate(&plain) / rate(&traced) - 1.0,
        );
        check_jobs(&plain, &warm_digest, out);
        traced
    } else {
        let sampler = RssSampler::start();
        let l = load(&addr, &warm, ctx.seed, 0, budget, &mut off);
        rss = sampler.finish(if ctx.smoke { 0.25 } else { 1.0 });
        l
    };
    drop(server);
    check_jobs(&measured, &warm_digest, out);
    verify_misses(&measured, out);

    let jobs = &measured.jobs;
    let ok: Vec<&JobRecord> = jobs.iter().filter(|j| j.error.is_none()).collect();
    let lat = |hit: bool| -> Vec<f64> {
        ok.iter()
            .filter(|j| (j.outcome == "cached") == hit)
            .map(|j| j.latency_ms)
            .collect()
    };
    let (hits, misses) = (lat(true), lat(false));
    for (what, xs) in [("hit", &hits), ("miss", &misses)] {
        if xs.len() < P99_MIN {
            out.notes.push(format!(
                "note: {} {what} jobs, fewer than {P99_MIN}: {what} p99 has fewer than ten samples beyond it",
                xs.len()
            ));
        }
    }
    let t = &mut out.table;
    for (name, xs, p) in [
        ("serve.hit_p50_ms", &hits, 50.0),
        ("serve.hit_p99_ms", &hits, 99.0),
        ("serve.miss_p50_ms", &misses, 50.0),
        ("serve.miss_p99_ms", &misses, 99.0),
    ] {
        t.value_of(name, "ms", percentile(xs, p), xs.len());
    }

    if ctx.trace {
        let submit: Vec<f64> = ok.iter().map(|j| j.submit_ms).collect();
        let stream: Vec<f64> = ok.iter().map(|j| j.stream_ms).collect();
        t.median("serve.submit_ms", "ms", &submit);
        t.median("serve.stream_ms", "ms", &stream);
        let (h, m, c) = measured.cache;
        t.value("serve.hit_ratio", "fraction", h / (h + m).max(1.0));
        t.value("serve.coalesced", "count", c);
        layer_metrics(state, &warm, jobs, &mut tracer, t)?;
        t.value("trace.spans", "count", tracer.len() as f64);
        out.spans = Some(tracer);
    } else {
        let cfg = SystemConfig::quick_test();
        let insts = (cfg.gpu.sms * cfg.gpu.sm.warps) as f64 * cfg.insts_per_warp as f64;
        let all: Vec<f64> = ok.iter().map(|j| j.latency_ms).collect();
        let rates = window_rates(&ok, measured.wall, if ctx.smoke { 0.25 } else { 1.0 });
        let minst: Vec<f64> = rates.iter().map(|r| r * insts / 1e6).collect();
        t.median("setup_s", "s", &setup);
        t.median("sim_minst_per_s", "Minst/s", &minst);
        t.median("jobs_per_s", "1/s", &rates);
        t.median("latency_p50_ms", "ms", &all);
        t.value_of("peak_rss_mb", "MiB", rss.0, rss.1);
    }
    Ok(())
}

/// Jobs completed per second in each whole `window` of the load
/// phase; their median resists a stall in one window.
fn window_rates(jobs: &[&JobRecord], wall: f64, window: f64) -> Vec<f64> {
    let windows = ((wall / window) as usize).max(1);
    let mut counts = vec![0u32; windows];
    for j in jobs {
        if let Some(c) = counts.get_mut((j.done_at / window) as usize) {
            *c += 1;
        }
    }
    counts.iter().map(|&c| f64::from(c) / window).collect()
}

/// Every job must succeed; every hit must stream its warm digest.
fn check_jobs(l: &Load, warm: &HashMap<String, u64>, out: &mut Outcome) {
    for (i, j) in l.jobs.iter().enumerate() {
        let expected = if j.warm {
            warm.get(&j.body).copied()
        } else {
            None
        };
        let ok = j.error.is_none()
            && j.digest.is_some()
            && matches!(j.outcome.as_str(), "cached" | "completed")
            && (expected.is_none() || expected == j.digest);
        out.check(ok, || {
            format!(
                "job {i} ({}): outcome {:?}, digest {:?}, expected {expected:?}, error {:?}",
                j.body, j.outcome, j.digest, j.error
            )
        });
    }
}

/// Simulates a sample of the misses in-process: the digest the daemon
/// streamed must match, and the report must retire every instruction.
fn verify_misses(l: &Load, out: &mut Outcome) {
    let misses = l.jobs.iter().filter(|j| j.error.is_none() && !j.warm);
    let mut verified = 0;
    for j in misses.step_by(VERIFY_EVERY) {
        let spec = match parse_job(&j.body) {
            Ok(s) => s,
            Err(e) => {
                out.check(false, || format!("parse_job({}): {e}", j.body));
                continue;
            }
        };
        let cell = &spec.cells()[0];
        let report = cell.run().execute();
        let cfg = &cell.config;
        let insts = (cfg.gpu.sms * cfg.gpu.sm.warps) as u64 * cfg.insts_per_warp;
        let digest = report_digest(&report);
        out.check(
            Some(digest) == j.digest && report.instructions == insts,
            || {
                format!(
                    "job {}: streamed {:?}, in-process {digest:016x}, {} instructions",
                    j.body, j.digest, report.instructions
                )
            },
        );
        verified += 1;
    }
    out.notes
        .push(format!("check {verified} misses re-simulated in-process"));
}

/// ohm-serve's parser and ohm-core's journal, timed on this run's
/// inputs and the daemon's own cache journal.
fn layer_metrics(
    state: &Path,
    warm: &[String],
    jobs: &[JobRecord],
    tracer: &mut Tracer,
    t: &mut Table,
) -> std::io::Result<()> {
    let mut bodies: Vec<&str> = warm.iter().map(String::as_str).collect();
    bodies.extend(jobs.iter().map(|j| j.body.as_str()));
    let (specs, d) = tracer.time("serve.parse_job", None, 0, || {
        bodies.iter().map(|b| parse_job(b)).collect::<Vec<_>>()
    });
    t.value_of(
        "serve.parse_job_us",
        "us",
        d.as_secs_f64() * 1e6 / bodies.len().max(1) as f64,
        bodies.len(),
    );

    let (journal, d) = tracer.time("checkpoint.open", None, 0, || {
        Journal::open(state.join("cache.ohmj"))
    });
    let journal = journal.map_err(|e| std::io::Error::other(format!("cache journal: {e}")))?;
    t.value("checkpoint.open_ms", "ms", d.as_secs_f64() * 1e3);
    t.value("checkpoint.records", "count", journal.len() as f64);

    // Re-encode the daemon's records into a scratch journal, then open
    // it again: append cost per record, and open cost per record.
    let reports: BTreeMap<u64, SimReport> = specs
        .iter()
        .filter_map(|s| s.as_ref().ok())
        .filter_map(|s| {
            let key = s.cells()[0].key();
            journal.get(key).map(|r| (key, r.clone()))
        })
        .collect();
    let scratch = state.join("scratch.ohmj");
    let mut j = Journal::open_with(&scratch, FsyncPolicy::OnClose)
        .map_err(|e| std::io::Error::other(format!("scratch journal: {e}")))?;
    let (appended, d) = tracer.time("checkpoint.append", None, 0, || {
        reports.iter().try_for_each(|(k, r)| j.append(*k, r))
    });
    appended.map_err(|e| std::io::Error::other(format!("scratch append: {e}")))?;
    t.value_of(
        "checkpoint.encode_us",
        "us",
        d.as_secs_f64() * 1e6 / reports.len().max(1) as f64,
        reports.len(),
    );
    drop(j);
    let (reopened, d) = tracer.time("checkpoint.open", None, 0, || Journal::open(&scratch));
    let n = reopened.map_or(0, |j| j.len());
    t.value_of(
        "checkpoint.decode_us",
        "us",
        d.as_secs_f64() * 1e6 / n.max(1) as f64,
        n,
    );
    Ok(())
}
