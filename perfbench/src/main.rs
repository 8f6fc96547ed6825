//! The Ohm-GPU benchmark: one command, three workloads, checked outputs.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload planar-table2 --seed 122513232 --seconds 35 --trace 0
//! ```
//!
//! `--workload all` runs the three workloads one after another.
//! `--trace 0` measures the end-to-end metrics; `--trace 1` records
//! spans around each layer call and reports the per-layer metrics.
//! Human-readable lines (provenance, checks, every metric with its
//! sample count and quartiles) come first; the last line of stdout is
//! one JSON object `{"correct", "attempted", "failed", "metrics"}`.
//! README.md in this directory documents the workloads and metrics.

mod replay;
mod rss;
mod serve;
mod sim;
mod spans;
mod stats;

use std::path::PathBuf;
use std::time::Instant;

use stats::{json_num, Table};

/// The workloads, in BENCHMARK.json order.
const WORKLOADS: [&str; 3] = ["planar-table2", "llm-twolevel-16g", "serve-mixed"];

/// End-to-end metrics: every workload reports each of them.
pub const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("sim_minst_per_s", "Minst/s"),
    ("jobs_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics of the traced run. A layer the workload leaves
/// idle reports 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("workloads.slice_ns", "ns"),
    ("workloads.slices", "count"),
    ("sim.event_ns", "ns"),
    ("sm.l1_ns", "ns"),
    ("sm.l1_calls", "count"),
    ("sm.l2_ns", "ns"),
    ("sm.l2_calls", "count"),
    ("sm.xbar_ns", "ns"),
    ("sm.l1_hit_rate", "fraction"),
    ("sm.l2_hit_rate", "fraction"),
    ("sm.replay_l1_hit_rate", "fraction"),
    ("sm.replay_l2_hit_rate", "fraction"),
    ("hetero.planar_ns", "ns"),
    ("hetero.planar_calls", "count"),
    ("hetero.two_level_ns", "ns"),
    ("hetero.two_level_calls", "count"),
    ("hetero.dram_hit_rate", "fraction"),
    ("hetero.migrations", "count"),
    ("mem.dram_ns", "ns"),
    ("mem.dram_calls", "count"),
    ("mem.xpoint_read_ns", "ns"),
    ("mem.xpoint_write_ns", "ns"),
    ("mem.xpoint_calls", "count"),
    ("mem.dram_p99_ns", "ns"),
    ("mem.xpoint_p99_ns", "ns"),
    ("optic.transfer_ns", "ns"),
    ("optic.transfer_calls", "count"),
    ("optic.channel_util", "fraction"),
    ("optic.migration_frac", "fraction"),
    ("optic.xfer_mean_ns", "ns"),
    ("core.system_new_ms", "ms"),
    ("core.system_run_ms", "ms"),
    ("core.unattributed_ms", "ms"),
    ("core.state_bytes", "bytes"),
    ("core.mem_latency_ns", "ns"),
    ("core.ctrl_queue_p99_ns", "ns"),
    ("core.migration_p99_ns", "ns"),
    ("runner.grid_s", "s"),
    ("runner.idle_frac", "fraction"),
    ("checkpoint.encode_us", "us"),
    ("checkpoint.decode_us", "us"),
    ("checkpoint.open_ms", "ms"),
    ("checkpoint.records", "count"),
    ("serve.parse_job_us", "us"),
    ("serve.submit_ms", "ms"),
    ("serve.stream_ms", "ms"),
    ("serve.hit_ratio", "fraction"),
    ("serve.coalesced", "count"),
    ("serve.hit_p50_ms", "ms"),
    ("serve.hit_p99_ms", "ms"),
    ("serve.miss_p50_ms", "ms"),
    ("serve.miss_p99_ms", "ms"),
    ("fidelity.gap_origin", "fraction"),
    ("fidelity.gap_base", "fraction"),
    ("trace.overhead_frac", "fraction"),
    ("trace.spans", "count"),
    ("trace.replay_cells", "count"),
];

/// Settings of one benchmark run.
pub struct Ctx {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Small inputs that finish in seconds (the benchmark's own tests).
    pub smoke: bool,
    pub nproc: usize,
    /// Scratch and span output, inside the working directory.
    pub out_dir: PathBuf,
    pub origin: Instant,
}

/// What a workload measured and checked.
#[derive(Default)]
pub struct Outcome {
    pub table: Table,
    /// Units of work (cells, jobs) plus extra checks attempted.
    pub attempted: u64,
    /// Units or checks that failed.
    pub failed: u64,
    /// Informational lines (digests, check results).
    pub notes: Vec<String>,
    /// Spans recorded by a traced run.
    pub spans: Option<spans::Tracer>,
}

impl Outcome {
    /// Counts one check, recording why it failed.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: ohm_core::SystemConfig::default().seed,
        seconds: 20.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            args.smoke = true;
            continue;
        }
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be `all` or one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// `VmHWM` of this process, in MiB.
fn vm_hwm_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Host and build facts recorded with every result.
fn provenance(seed: u64, nproc: usize) -> Vec<(&'static str, String)> {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".into(), |s| s.trim().to_string());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        );
    vec![
        ("nproc", nproc.to_string()),
        ("cpu", cpu),
        ("kernel", kernel),
        ("rustc", rustc),
        ("commit", git_commit()),
        ("seed", seed.to_string()),
    ]
}

/// The checked-out commit, read from `.git` in the working directory
/// only (an exported tree has none).
fn git_commit() -> String {
    let Ok(head) = std::fs::read_to_string(".git/HEAD") else {
        return "unknown".into();
    };
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        None => head.to_string(),
        Some(r) => std::fs::read_to_string(format!(".git/{r}"))
            .ok()
            .or_else(|| {
                let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
                packed
                    .lines()
                    .find(|l| l.ends_with(r))
                    .map(|l| l.split(' ').next().unwrap_or_default().to_string())
            })
            .map_or_else(|| "unknown".into(), |s| s.trim().to_string()),
    }
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if args.workload == "all" {
        std::process::exit(run_all());
    }
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        smoke: args.smoke,
        nproc,
        out_dir: PathBuf::from(".perfbench"),
        origin: Instant::now(),
    };
    if let Err(e) = std::fs::create_dir_all(&ctx.out_dir) {
        eprintln!("perfbench: {}: {e}", ctx.out_dir.display());
        std::process::exit(1);
    }

    let prov = provenance(ctx.seed, nproc);
    println!(
        "perfbench workload={} seed={} seconds={} trace={}{}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(ctx.trace),
        if ctx.smoke { " smoke" } else { "" }
    );
    for (k, v) in &prov {
        println!("provenance {k}: {v}");
    }

    let mut out = match args.workload.as_str() {
        "planar-table2" => sim::planar_table2(&ctx),
        "llm-twolevel-16g" => sim::llm_twolevel_16g(&ctx),
        _ => serve::serve_mixed(&ctx),
    };

    let wanted: &[(&str, &str)] = if ctx.trace { &PER_LAYER } else { &END_TO_END };
    // A layer the workload leaves idle did no work: report 0.
    if ctx.trace {
        for &(name, unit) in wanted {
            if out.table.get(name).is_none() {
                out.table.value_of(name, unit, 0.0, 0);
            }
        }
    }
    for &(name, unit) in wanted {
        let ok = out
            .table
            .get(name)
            .is_some_and(|m| m.unit == unit && m.value.is_finite());
        out.check(ok, || format!("metric {name} missing or not finite"));
    }

    for note in &out.notes {
        println!("{note}");
    }
    println!("process VmHWM: {:.3} MiB", vm_hwm_mb());
    println!(
        "checks: {} attempted, {} failed, error_rate {}",
        out.attempted,
        out.failed,
        out.failed as f64 / out.attempted.max(1) as f64
    );
    print!("{}", out.table.render());

    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        ctx.seed,
        u8::from(ctx.trace)
    );
    if let Some(tracer) = &out.spans {
        let path = ctx.out_dir.join(format!("spans-{stem}.jsonl"));
        match tracer.write_jsonl(&path) {
            Ok(()) => println!("spans: {} written to {}", tracer.len(), path.display()),
            Err(e) => eprintln!("perfbench: {}: {e}", path.display()),
        }
    }
    write_result(&ctx, &stem, &prov, &out);

    let metrics: Vec<String> = wanted
        .iter()
        .filter_map(|&(name, unit)| {
            out.table.get(name).map(|m| {
                format!(
                    "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                    json_num(m.value)
                )
            })
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

/// `--workload all`: runs every workload in its own process (so each
/// reports its own peak RSS) with the other arguments unchanged, and
/// fails if any of them fails.
fn run_all() -> i32 {
    let exe = std::env::current_exe().expect("path of this executable");
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let at = args
        .iter()
        .position(|a| a == "--workload")
        .expect("--workload given")
        + 1;
    let mut code = 0;
    for w in WORKLOADS {
        args[at] = w.to_string();
        let ok = std::process::Command::new(&exe)
            .args(&args)
            .status()
            .is_ok_and(|s| s.success());
        if !ok {
            eprintln!("perfbench: workload {w} failed");
            code = 1;
        }
    }
    code
}

/// Writes the full result (provenance, every metric with its sample
/// count and quartiles, notes) as JSON next to the spans.
fn write_result(ctx: &Ctx, stem: &str, prov: &[(&str, String)], out: &Outcome) {
    use ohm_core::json::escape_json;
    let prov: Vec<String> = prov
        .iter()
        .map(|(k, v)| format!("\"{k}\": \"{}\"", escape_json(v)))
        .collect();
    let metrics: Vec<String> = out
        .table
        .metrics
        .iter()
        .map(|m| {
            let s = m.summary;
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\", \"n\": {}, \"q1\": {}, \"median\": {}, \"q3\": {}}}",
                m.name,
                json_num(m.value),
                m.unit,
                s.n,
                json_num(s.q1),
                json_num(s.median),
                json_num(s.q3)
            )
        })
        .collect();
    let notes: Vec<String> = out
        .notes
        .iter()
        .map(|n| format!("\"{}\"", escape_json(n)))
        .collect();
    let doc = format!(
        "{{\"provenance\": {{{}}}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}, \"notes\": [{}]}}\n",
        prov.join(", "),
        out.attempted,
        out.failed,
        metrics.join(", "),
        notes.join(", ")
    );
    let path = ctx.out_dir.join(format!("result-{stem}.json"));
    if let Err(e) = std::fs::write(&path, doc) {
        eprintln!("perfbench: {}: {e}", path.display());
    }
}
