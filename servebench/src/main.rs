//! servebench — the serving benchmark for lambekd.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <interactive|bulk|grammars|deep> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One client thread drives lambekd's public API in a closed loop
//! against an `Engine::new()` with its default worker pool. With
//! `--trace 0` the harness prints the end-to-end metrics; with
//! `--trace 1` it replays a fixed number of the seed's calls in staged
//! form and prints the per-layer metrics, writing the spans under
//! `.bench_out/spans/`. Every answer is checked against the
//! generator's oracle. The last stdout line is one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`.
//!
//! The harness never runs a workload in its own process: workloads run
//! in child processes (this executable with `--child`), so an abort
//! costs the in-flight call, which is counted as failed together with
//! the signal that ended it.

mod gen;
mod stats;
mod sys;
mod trace;
mod workload;

#[cfg(test)]
mod tests;

use std::collections::BTreeMap;
use std::io::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::time::{Duration, Instant};

use stats::{percentile, MIN_BEYOND};
use sys::{quote, run_child, End, Machine};
use trace::{add, Acc, Replay};
use workload::{execute, Call, CallGen, Served, Status, Workload};

const USAGE: &str = "usage: servebench --workload <interactive|bulk|grammars|deep> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Separate set-up processes timed per run; `setup_s` is their median.
const SETUP_SAMPLES: usize = 7;

/// Calls a p99 needs: ten samples beyond it.
const P99_CALLS: usize = 1000;

/// The `deep` workload runs at least one request of each shape.
const DEEP_MIN_REQUESTS: usize = 7;

/// A child that prints nothing for this long is killed.
const IDLE: Duration = Duration::from_secs(150);

/// Crashed worker processes are replaced at most this often per run.
const MAX_RESTARTS: usize = 20;

const OUT_DIR: &str = ".bench_out";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let flags = match parse_flags(&args) {
        Ok(f) => f,
        Err(e) => {
            eprintln!("servebench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = match flags.get("child") {
        Some(role) => child(role, &flags),
        None => harness(&flags),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("servebench: {e}");
            ExitCode::FAILURE
        }
    }
}

type Flags = BTreeMap<String, String>;

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags::new();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let key = a
            .strip_prefix("--")
            .ok_or_else(|| format!("unexpected argument {a:?}"))?;
        let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
        flags.insert(key.to_owned(), value.clone());
    }
    Ok(flags)
}

fn flag<T: std::str::FromStr>(flags: &Flags, key: &str) -> Result<T, String> {
    let v = flags.get(key).ok_or_else(|| format!("missing --{key}"))?;
    v.parse()
        .map_err(|_| format!("--{key}: cannot parse {v:?}"))
}

fn workload_flag(flags: &Flags) -> Result<Workload, String> {
    let name: String = flag(flags, "workload")?;
    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))
}

// ---- child processes ---------------------------------------------------

fn child(role: &str, flags: &Flags) -> Result<(), String> {
    match role {
        "setup" => {
            Served::new()?;
            println!("READY");
            Ok(())
        }
        "worker" => worker(flags),
        "replay" => replay(flags),
        _ => Err(format!("unknown child role {role:?}")),
    }
}

/// Set-up: every pipeline, or only the one `deep` request `start`
/// needs.
fn serve(workload: Workload, start: usize) -> Result<Served, String> {
    match workload {
        Workload::Deep => Served::with(&[workload::deep_pipe(start)]),
        _ => Served::new(),
    }
}

/// The timed closed loop. Prints `S <setup ns>`, then per call
/// `C <index> <status> <bytes> <ns> <end, ns since the epoch>`,
/// `R <VmHWM kB>` once `min-calls` calls are done, and `E <VmHWM kB>`
/// at the end.
fn worker(flags: &Flags) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let start: usize = flag(flags, "start")?;
    let min_calls: usize = flag(flags, "min-calls")?;
    let window = Duration::from_millis(flag(flags, "window-ms")?);
    let t0 = Instant::now();
    let served = serve(workload, start)?;
    let mut gen = CallGen::new(workload, seed, sys::nproc());
    let mut out = std::io::stdout().lock();
    let io = |e: std::io::Error| format!("writing results: {e}");
    writeln!(out, "S {}", t0.elapsed().as_nanos()).map_err(io)?;
    out.flush().map_err(io)?;
    let deadline = Instant::now() + window;
    let mut logged = 0;
    let mut i = start;
    while i < min_calls || Instant::now() < deadline {
        let call = gen.call(i);
        if workload == Workload::Deep {
            writeln!(out, "R {}", sys::vmhwm_kb()).map_err(io)?;
            out.flush().map_err(io)?;
        }
        let e = execute(&served, &call);
        if let Some(why) = &e.detail {
            if logged < 10 {
                eprintln!("servebench: {} call {i}: {why}", workload.name());
                logged += 1;
            }
        }
        writeln!(
            out,
            "C {i} {} {} {} {}",
            e.status as u8,
            call.bytes(),
            e.elapsed.as_nanos(),
            sys::epoch_ns()
        )
        .map_err(io)?;
        i += 1;
        if i == min_calls {
            writeln!(out, "R {}", sys::vmhwm_kb()).map_err(io)?;
        }
        out.flush().map_err(io)?;
    }
    writeln!(out, "E {}", sys::vmhwm_kb()).map_err(io)?;
    out.flush().map_err(io)
}

/// Probe counters of every layer, read together.
struct Probes {
    lex: lambek_lex::LexProbes,
    lr: lambek_lr::LrProbes,
    frontend: lambek_frontend::probes::FrontendProbes,
    engine: lambek_engine::EngineStats,
}

impl Probes {
    fn take(served: &Served) -> Probes {
        Probes {
            lex: lambek_lex::probes::snapshot(),
            lr: lambek_lr::probes::snapshot(),
            frontend: lambek_frontend::probes::snapshot(),
            engine: served.engine.engine_stats(),
        }
    }

    fn deltas(&self, before: &Probes, acc: &mut Acc) {
        let d = |a: u64, b: u64| a.saturating_sub(b) as f64;
        for (key, v) in [
            (
                "probe.scan_bytes",
                d(self.lex.scan_bytes, before.lex.scan_bytes),
            ),
            (
                "probe.backtracks",
                d(self.lex.backtracks, before.lex.backtracks),
            ),
            (
                "probe.verdict_hits",
                d(self.lex.verdict_cache_hits, before.lex.verdict_cache_hits),
            ),
            (
                "probe.verdict_misses",
                d(
                    self.lex.verdict_cache_misses,
                    before.lex.verdict_cache_misses,
                ),
            ),
            ("probe.shifts", d(self.lr.shifts, before.lr.shifts)),
            ("probe.reduces", d(self.lr.reduces, before.lr.reduces)),
            (
                "probe.claims_checked",
                d(self.lr.claims_checked, before.lr.claims_checked),
            ),
            (
                "probe.texts",
                d(self.frontend.texts_compiled, before.frontend.texts_compiled),
            ),
            (
                "probe.cache_hits",
                d(self.engine.cache.hits, before.engine.cache.hits),
            ),
            (
                "probe.cache_misses",
                d(self.engine.cache.misses, before.engine.cache.misses),
            ),
            (
                "probe.cache_compiles",
                d(self.engine.cache.compiles, before.engine.cache.compiles),
            ),
            (
                "probe.cache_evictions",
                d(self.engine.evictions, before.engine.evictions),
            ),
            (
                "probe.pool_steals",
                d(self.engine.pool.steals, before.engine.pool.steals),
            ),
        ] {
            add(acc, key, v);
        }
    }
}

/// Replays calls `start..start + calls`: untraced (`--traced 0`: busy
/// time and probe deltas) or staged under the tracer (`--traced 1`).
/// Prints `A <key> <value>` sums at the end.
fn replay(flags: &Flags) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let start: usize = flag(flags, "start")?;
    let n: usize = flag(flags, "calls")?;
    let traced: u8 = flag(flags, "traced")?;
    let served = serve(workload, start)?;
    let mut gen = CallGen::new(workload, seed, sys::nproc());
    let calls: Vec<Call> = (start..start + n).map(|i| gen.call(i)).collect();
    let mut acc = Acc::new();
    if traced == 0 {
        let before = Probes::take(&served);
        for call in &calls {
            let e = execute(&served, call);
            add(&mut acc, "untraced.calls", 1.0);
            add(&mut acc, "untraced.busy_ns", e.elapsed.as_nanos() as f64);
            add(&mut acc, "untraced.tree_nodes", e.tree_nodes as f64);
            match e.status {
                Status::Ok => {}
                Status::Wrong => add(&mut acc, "untraced.wrong", 1.0),
                _ => add(&mut acc, "untraced.crashed", 1.0),
            }
            if let Some(why) = e.detail {
                eprintln!("servebench: {} call: {why}", workload.name());
            }
        }
        Probes::take(&served).deltas(&before, &mut acc);
    } else {
        let mut rp = Replay::new(&served);
        for (k, call) in calls.iter().enumerate() {
            let req = (start + k) as u32;
            add(&mut acc, "traced.calls", 1.0);
            match catch_unwind(AssertUnwindSafe(|| rp.call(req, call))) {
                Ok(Ok(())) => {}
                Ok(Err(why)) => {
                    add(&mut acc, "traced.wrong", 1.0);
                    eprintln!("servebench: traced {} call {req}: {why}", workload.name());
                }
                Err(p) => {
                    rp.tr.close_all();
                    add(&mut acc, "traced.crashed", 1.0);
                    eprintln!(
                        "servebench: traced {} call {req}: {}",
                        workload.name(),
                        workload::panic_message(&*p)
                    );
                }
            }
        }
        rp.totals(&mut acc);
        trace::pool_probe(&served, &mut rp.tr, &calls, &mut acc);
        let spans = acc.get("spans").copied().unwrap_or(0.0);
        add(&mut acc, "span_cost_ns", trace::span_cost_ns() * spans);
        let name = format!("{}-seed{seed}-start{start}", workload.name());
        trace::write_spans(&rp.tr, &Path::new(OUT_DIR).join("spans"), &name)
            .map_err(|e| format!("writing spans: {e}"))?;
    }
    let mut out = std::io::stdout().lock();
    for (k, v) in &acc {
        writeln!(out, "A {k} {v}").map_err(|e| format!("writing results: {e}"))?;
    }
    out.flush().map_err(|e| format!("writing results: {e}"))
}

// ---- the harness -------------------------------------------------------

/// One attempted call as the harness saw it.
#[derive(Debug, Clone, Copy)]
struct CallRec {
    status: Status,
    /// Time inside lambekd, in ns (0 when the process died).
    ns: f64,
    bytes: f64,
    /// Wall-clock end, ns since the Unix epoch.
    end: u64,
}

/// Calls of one timed run as the harness saw them.
#[derive(Debug, Default)]
struct Tally {
    calls: Vec<CallRec>,
    /// VmHWM after the workload's fixed call count.
    rss_kb: Option<u64>,
    rss_at: usize,
    max_kb: u64,
    signals: Vec<String>,
    next: usize,
}

impl Tally {
    fn line(&mut self, line: &str) {
        let mut parts = line.split_whitespace();
        let tag = parts.next();
        let nums: Vec<f64> = parts.filter_map(|p| p.parse().ok()).collect();
        match (tag, nums.as_slice()) {
            (Some("C"), [i, st, bytes, ns, end]) => {
                self.next = *i as usize + 1;
                self.calls.push(CallRec {
                    status: Status::from_code(*st as u8).unwrap_or(Status::Wrong),
                    ns: *ns,
                    bytes: *bytes,
                    end: *end as u64,
                });
            }
            (Some("R"), [kb]) => {
                self.max_kb = self.max_kb.max(*kb as u64);
                if self.rss_kb.is_none() && self.next >= self.rss_at {
                    self.rss_kb = Some(*kb as u64);
                }
            }
            (Some("E"), [kb]) => self.max_kb = self.max_kb.max(*kb as u64),
            _ => {}
        }
    }

    /// The process running call `self.next` died.
    fn abort(&mut self, why: String) {
        self.calls.push(CallRec {
            status: Status::Abort,
            ns: 0.0,
            bytes: 0.0,
            end: sys::epoch_ns(),
        });
        self.signals.push(format!("call {}: {why}", self.next));
        self.next += 1;
    }

    fn count(&self, status: Status) -> usize {
        self.calls.iter().filter(|c| c.status == status).count()
    }
}

/// The calls made while the hypervisor took the least CPU time from
/// this machine: whole sampling windows, quietest first, until they
/// hold half of the run's calls (at least `P99_CALLS`), plus every
/// failed call wherever it fell. Windows are chosen by the measured
/// steal time alone, never by how the calls in them performed.
/// Returns the calls and the steal share of the chosen windows.
fn quiet_calls<'a>(calls: &'a [CallRec], samples: &[sys::Sample]) -> (Vec<&'a CallRec>, f64) {
    let windows: Vec<(u64, f64, u64, u64)> = samples
        .windows(2)
        .filter(|w| w[1].total > w[0].total)
        .map(|w| {
            let (steal, total) = (w[1].steal - w[0].steal, w[1].total - w[0].total);
            (w[1].at, steal as f64 / total as f64, steal, total)
        })
        .collect();
    if windows.is_empty() {
        return (calls.iter().collect(), f64::NAN);
    }
    let window_of = |c: &CallRec| {
        windows
            .partition_point(|w| w.0 < c.end)
            .min(windows.len() - 1)
    };
    let mut per_window = vec![0usize; windows.len()];
    for c in calls {
        per_window[window_of(c)] += 1;
    }
    let mut order: Vec<usize> = (0..windows.len()).collect();
    order.sort_by(|&a, &b| windows[a].1.total_cmp(&windows[b].1));
    let need = (calls.len() / 2).max(P99_CALLS);
    let mut keep = vec![false; windows.len()];
    let (mut held, mut steal, mut total) = (0, 0, 0);
    for k in order {
        if held >= need {
            break;
        }
        keep[k] = true;
        held += per_window[k];
        steal += windows[k].2;
        total += windows[k].3;
    }
    let kept = calls
        .iter()
        .filter(|c| keep[window_of(c)] || c.status != Status::Ok)
        .collect();
    (kept, steal as f64 / total.max(1) as f64)
}

/// Throughput, request rate and latency percentiles over `calls`.
fn figures(calls: &[&CallRec]) -> [Option<f64>; 4] {
    let busy_s: f64 = calls.iter().map(|c| c.ns).sum::<f64>() / 1e9;
    let ok: Vec<&&CallRec> = calls.iter().filter(|c| c.status == Status::Ok).collect();
    let bytes: f64 = ok.iter().map(|c| c.bytes).sum();
    let mut lat: Vec<f64> = calls
        .iter()
        .map(|c| match c.status {
            Status::Ok => c.ns / 1e6,
            _ => f64::INFINITY,
        })
        .collect();
    lat.sort_by(f64::total_cmp);
    let per_s = |x: f64| (busy_s > 0.0).then(|| x / busy_s);
    [
        per_s(bytes / 1e6),
        per_s(ok.len() as f64),
        finite(percentile(&lat, 0.5, MIN_BEYOND)),
        finite(percentile(&lat, 0.99, MIN_BEYOND)),
    ]
}

struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)`; `None` is printed as `null`.
    metrics: Vec<(&'static str, Option<f64>, &'static str)>,
    notes: Vec<String>,
}

fn harness(flags: &Flags) -> Result<(), String> {
    let workload = workload_flag(flags)?;
    let seed: u64 = flag(flags, "seed")?;
    let seconds: u64 = flag(flags, "seconds")?;
    let traced: u8 = flag(flags, "trace")?;
    if seconds == 0 || traced > 1 {
        return Err(format!(
            "--seconds must be positive and --trace 0 or 1\n{USAGE}"
        ));
    }
    let machine = Machine::probe();
    println!(
        "# servebench workload={} seed={seed} seconds={seconds} trace={traced}",
        workload.name()
    );
    println!("# machine {}", machine.json());
    let report = if traced == 0 {
        timed(workload, seed, seconds)?
    } else {
        traced_run(workload, seed)?
    };
    for note in &report.notes {
        println!("# {note}");
    }
    let fmt = |v: Option<f64>| v.map_or("null".to_owned(), |v| format!("{v}"));
    for (name, value, unit) in &report.metrics {
        println!("{name:<28} {:>16} {unit}", fmt(*value));
    }
    let metrics: Vec<String> = report
        .metrics
        .iter()
        .filter(|(name, ..)| traced == 1 || END_TO_END.contains(name))
        .map(|(name, value, unit)| {
            format!(
                "{}:{{\"value\":{},\"unit\":{}}}",
                quote(name),
                fmt(*value),
                quote(unit)
            )
        })
        .collect();
    let line = format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        report.correct,
        report.attempted,
        report.failed,
        metrics.join(",")
    );
    let record = format!(
        "{{\"workload\":{},\"seed\":{seed},\"seconds\":{seconds},\"trace\":{traced},\
         \"machine\":{},\"notes\":[{}],\"result\":{line}}}\n",
        quote(workload.name()),
        machine.json(),
        report
            .notes
            .iter()
            .map(|n| quote(n))
            .collect::<Vec<_>>()
            .join(",")
    );
    let dir = PathBuf::from(OUT_DIR).join("results");
    std::fs::create_dir_all(&dir)
        .and_then(|()| {
            std::fs::write(
                dir.join(format!("{}-seed{seed}-trace{traced}.json", workload.name())),
                record,
            )
        })
        .map_err(|e| format!("writing the result record: {e}"))?;
    println!("{line}");
    Ok(())
}

/// The end-to-end metrics the last line carries; `failed_share` is
/// printed above it (the JSON line carries `failed` and `attempted`).
const END_TO_END: [&str; 6] = [
    "setup_s",
    "throughput_mb_s",
    "requests_per_s",
    "latency_p50_ms",
    "latency_p99_ms",
    "peak_rss_mb",
];

fn child_args(role: &str, workload: Workload, seed: u64, extra: &[(&str, String)]) -> Vec<String> {
    let mut args = vec![
        "--child".to_owned(),
        role.to_owned(),
        "--workload".to_owned(),
        workload.name().to_owned(),
        "--seed".to_owned(),
        seed.to_string(),
    ];
    for (k, v) in extra {
        args.push(format!("--{k}"));
        args.push(v.clone());
    }
    args
}

/// `setup_s`: process start to READY, in separate processes.
fn setup_samples(workload: Workload, seed: u64) -> Result<Vec<f64>, String> {
    (0..SETUP_SAMPLES)
        .map(|_| {
            let t0 = Instant::now();
            let mut ready = None;
            let end = run_child(&child_args("setup", workload, seed, &[]), IDLE, |l| {
                if l == "READY" && ready.is_none() {
                    ready = Some(t0.elapsed().as_secs_f64());
                }
            });
            match (end, ready) {
                (End::Clean, Some(s)) => Ok(s),
                (End::Died(why), _) => Err(format!("set-up process died: {why}")),
                (End::Clean, None) => Err("set-up process exited without READY".to_owned()),
            }
        })
        .collect()
}

fn timed(workload: Workload, seed: u64, seconds: u64) -> Result<Report, String> {
    let setup = setup_samples(workload, seed)?;
    let window = Duration::from_secs(seconds);
    let mut tally = Tally {
        rss_at: workload.min_calls(),
        ..Tally::default()
    };
    let mut measured = Duration::ZERO;
    let mut restarts = 0;
    let log_path = Path::new(OUT_DIR).join("worker.log");
    std::fs::create_dir_all(OUT_DIR).map_err(|e| format!("creating {OUT_DIR}: {e}"))?;
    let mut samples = Vec::new();
    loop {
        let deep = workload == Workload::Deep;
        // `deep` runs one request per process; the others run until
        // the window is used and at least `min_calls` calls are made.
        let (min_calls, left) = if deep {
            (tally.next + 1, Duration::ZERO)
        } else {
            (workload.min_calls(), window.saturating_sub(measured))
        };
        let args = child_args(
            "worker",
            workload,
            seed,
            &[
                ("start", tally.next.to_string()),
                ("min-calls", min_calls.to_string()),
                ("window-ms", left.as_millis().to_string()),
            ],
        );
        let (end, wall, log) = sys::run_logged(&args, &log_path, IDLE, &mut samples);
        let mut setup_ns = None;
        for line in log.lines() {
            match line.strip_prefix("S ") {
                Some(ns) => setup_ns = ns.trim().parse::<u64>().ok(),
                None => tally.line(line),
            }
        }
        // A `deep` request's set-up is part of serving it; elsewhere the
        // window counts calls only.
        match setup_ns {
            Some(_) if deep => measured += wall,
            Some(ns) => measured += wall.saturating_sub(Duration::from_nanos(ns)),
            None => {}
        }
        match end {
            End::Clean => {}
            End::Died(why) if setup_ns.is_some() => {
                tally.abort(why);
                if !deep {
                    restarts += 1;
                }
            }
            End::Died(why) => return Err(format!("worker died during set-up: {why}")),
        }
        let done = if deep {
            tally.next >= DEEP_MIN_REQUESTS && measured >= window
        } else {
            (tally.next >= workload.min_calls() && measured >= window) || restarts > MAX_RESTARTS
        };
        if done {
            break;
        }
    }
    let (kept, kept_steal) = quiet_calls(&tally.calls, &samples);
    let [throughput, rate, p50, p99] = figures(&kept);
    let rss = tally.rss_kb.unwrap_or(tally.max_kb) as f64 / 1024.0;
    let attempted = tally.calls.len();
    let wrong = tally.count(Status::Wrong);
    let failed = attempted - tally.count(Status::Ok);
    let steal = match (samples.first(), samples.last()) {
        (Some(a), Some(b)) if b.total > a.total => {
            (b.steal - a.steal) as f64 / (b.total - a.total) as f64
        }
        _ => f64::NAN,
    };
    let mut notes = vec![
        format!(
            "calls={attempted} ok={} wrong={wrong} panics={} aborts={} setup_samples={setup:?}",
            tally.count(Status::Ok),
            tally.count(Status::Panic),
            tally.count(Status::Abort),
        ),
        format!(
            "cpu steal share {steal:.3} over the run; the figures use the {} calls made in \
             its quietest windows (steal share {kept_steal:.3})",
            kept.len()
        ),
    ];
    if !tally.signals.is_empty() {
        notes.push(format!("aborted: {}", tally.signals.join("; ")));
    }
    Ok(Report {
        correct: wrong == 0,
        attempted: attempted as u64,
        failed: failed as u64,
        metrics: vec![
            ("setup_s", stats::median(&setup), "s"),
            ("throughput_mb_s", throughput, "MB/s"),
            ("requests_per_s", rate, "1/s"),
            ("latency_p50_ms", p50, "ms"),
            ("latency_p99_ms", p99, "ms"),
            ("peak_rss_mb", Some(rss), "MiB"),
            (
                "failed_share",
                Some(failed as f64 / attempted.max(1) as f64),
                "ratio",
            ),
        ],
        notes,
    })
}

/// An infinite percentile (more failures than samples beyond it) has
/// no JSON number; it is reported as missing.
fn finite(v: Option<f64>) -> Option<f64> {
    v.filter(|x| x.is_finite())
}

/// Runs a replay child and merges its `A` lines into `acc`; a child
/// that dies costs its calls.
fn replay_child(
    workload: Workload,
    seed: u64,
    start: usize,
    calls: usize,
    traced: u8,
    acc: &mut Acc,
    notes: &mut Vec<String>,
) {
    let args = child_args(
        "replay",
        workload,
        seed,
        &[
            ("start", start.to_string()),
            ("calls", calls.to_string()),
            ("traced", traced.to_string()),
        ],
    );
    let mut got = Acc::new();
    let end = run_child(&args, IDLE, |l| {
        let mut parts = l.split_whitespace();
        if let (Some("A"), Some(k), Some(v)) = (parts.next(), parts.next(), parts.next()) {
            if let Ok(v) = v.parse::<f64>() {
                add(&mut got, k, v);
            }
        }
    });
    let pass = if traced == 1 { "traced" } else { "untraced" };
    if let End::Died(why) = end {
        notes.push(format!("{pass} replay of calls {start}.. died: {why}"));
        add(acc, &format!("{pass}.calls"), calls as f64);
        add(acc, &format!("{pass}.crashed"), calls as f64);
        return;
    }
    for (k, v) in got {
        add(acc, &k, v);
    }
}

/// The per-layer metrics from the merged sums of the replay children.
fn layer_metrics(acc: &Acc) -> Vec<(&'static str, f64, &'static str)> {
    let get = |k: &str| acc.get(k).copied().unwrap_or(0.0);
    let ms = |span: &str| get(&format!("self_ns.{span}")) / 1e6;
    let mean_us = |span: &str| {
        let c = get(&format!("count.{span}"));
        if c > 0.0 {
            get(&format!("self_ns.{span}")) / c / 1e3
        } else {
            0.0
        }
    };
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let layer_ns: f64 = acc
        .iter()
        .filter_map(|(k, v)| k.strip_prefix("self_ns.").map(|name| (name, v)))
        .filter(|(name, _)| *name != "call" && !name.starts_with("bench."))
        .map(|(_, v)| v)
        .sum();
    let bench_ns: f64 = acc
        .iter()
        .filter(|(k, _)| k.starts_with("self_ns.bench."))
        .map(|(_, v)| v)
        .sum();
    let snapshots = get("count.engine.session.snapshot");
    let hits = get("probe.verdict_hits");
    let misses = get("probe.verdict_misses");
    vec![
        ("engine.cache.lookup_us", mean_us("engine.cache"), "us"),
        ("engine.cache.hits", get("probe.cache_hits"), "count"),
        ("engine.cache.misses", get("probe.cache_misses"), "count"),
        (
            "engine.cache.compiles",
            get("probe.cache_compiles"),
            "count",
        ),
        (
            "engine.cache.evictions",
            get("probe.cache_evictions"),
            "count",
        ),
        (
            "engine.pool.efficiency",
            ratio(get("pool.seq_ns"), get("pool.shard_wall_ns")),
            "ratio",
        ),
        (
            "engine.pool.overhead_ms",
            get("pool.overhead_ns") / 1e6,
            "ms",
        ),
        ("engine.pool.steals", get("probe.pool_steals"), "count"),
        ("lex.scan_ms", ms("lex.scan"), "ms"),
        ("lex.scan_bytes", get("probe.scan_bytes"), "bytes"),
        ("lex.backtracks", get("probe.backtracks"), "count"),
        ("lex.certify_ms", ms("lex.certify"), "ms"),
        ("lex.verdict_hits", hits, "count"),
        ("lex.verdict_misses", misses, "count"),
        ("lex.verdict_hit_ratio", ratio(hits, hits + misses), "ratio"),
        ("lr.drive_ms", ms("lr.drive"), "ms"),
        ("lr.shifts", get("probe.shifts"), "count"),
        ("lr.reduces", get("probe.reduces"), "count"),
        ("lr.claims_checked", get("probe.claims_checked"), "count"),
        ("core.tree_nodes", get("untraced.tree_nodes"), "count"),
        ("core.tree_walk_ms", ms("core.tree_walk"), "ms"),
        ("core.tree_drop_ms", ms("core.tree_drop"), "ms"),
        ("engine.stream.open_ms", ms("engine.stream.open"), "ms"),
        ("engine.stream.push_ms", ms("engine.stream.push"), "ms"),
        ("engine.stream.finish_ms", ms("engine.stream.finish"), "ms"),
        (
            "engine.session.snapshot_us",
            mean_us("engine.session.snapshot"),
            "us",
        ),
        (
            "engine.session.resume_us",
            mean_us("engine.session.resume"),
            "us",
        ),
        (
            "engine.session.blob_bytes",
            ratio(get("blob_bytes"), snapshots),
            "bytes",
        ),
        ("frontend.meta_spec_us", mean_us("frontend.meta_spec"), "us"),
        ("frontend.parse_ms", ms("frontend.parse"), "ms"),
        ("frontend.elaborate_ms", ms("frontend.elaborate"), "ms"),
        ("engine.spec_ms", ms("engine.spec"), "ms"),
        ("engine.compile_ms", ms("engine.compile"), "ms"),
        ("trace.layer_self_ms", layer_ns / 1e6, "ms"),
        ("trace.client_self_ms", ms("call"), "ms"),
        ("trace.traced_ms", (get("root_ns") - bench_ns) / 1e6, "ms"),
        ("trace.untraced_ms", get("untraced.busy_ns") / 1e6, "ms"),
        ("trace.span_cost_ms", get("span_cost_ns") / 1e6, "ms"),
        ("trace.spans", get("spans"), "count"),
    ]
}

fn traced_run(workload: Workload, seed: u64) -> Result<Report, String> {
    let mut acc = Acc::new();
    let mut notes = Vec::new();
    let n = workload.traced_calls();
    if workload == Workload::Deep {
        for i in 0..n {
            replay_child(workload, seed, i, 1, 0, &mut acc, &mut notes);
            replay_child(workload, seed, i, 1, 1, &mut acc, &mut notes);
        }
    } else {
        replay_child(workload, seed, 0, n, 0, &mut acc, &mut notes);
        replay_child(workload, seed, 0, n, 1, &mut acc, &mut notes);
    }
    let get = |k: &str| acc.get(k).copied().unwrap_or(0.0);
    let metrics = layer_metrics(&acc);
    let layer_ms = metrics
        .iter()
        .find(|(name, ..)| *name == "trace.layer_self_ms")
        .map_or(0.0, |m| m.1);
    let wrong = get("untraced.wrong") + get("traced.wrong");
    let failed = wrong + get("untraced.crashed") + get("traced.crashed");
    notes.push(format!(
        "replayed {} calls untraced and {} traced; layer self times sum to {:.3} ms \
         against {:.3} ms untraced end to end; distinct lexemes {} of {}",
        get("untraced.calls"),
        get("traced.calls"),
        layer_ms,
        get("untraced.busy_ns") / 1e6,
        get("distinct_lexemes"),
        get("lexemes"),
    ));
    Ok(Report {
        correct: wrong == 0.0,
        attempted: (get("untraced.calls") + get("traced.calls")) as u64,
        failed: failed as u64,
        metrics: metrics
            .into_iter()
            .map(|(name, v, unit)| (name, Some(v), unit))
            .collect(),
        notes,
    })
}
