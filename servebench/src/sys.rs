//! Process and machine facts: peak RSS, the machine descriptor, and
//! child processes watched from the harness.

use std::fs::File;
use std::io::{BufRead, BufReader};
use std::path::Path;
use std::process::{Command, ExitStatus, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant, SystemTime, UNIX_EPOCH};

/// `VmHWM` of this process in KiB (0 where `/proc` is unavailable).
pub fn vmhwm_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        })
        .unwrap_or(0)
}

/// Where and on what the numbers were measured.
#[derive(Debug, Clone)]
pub struct Machine {
    pub nproc: usize,
    pub cpu: String,
    pub rustc: String,
    pub commit: String,
    pub source_digest: String,
}

impl Machine {
    pub fn probe() -> Machine {
        let cpu = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("model name"))
                    .map(|v| v.trim_start_matches([' ', '\t', ':']).trim().to_owned())
            })
            .unwrap_or_else(|| "unknown".to_owned());
        Machine {
            nproc: nproc(),
            cpu,
            rustc: env!("SERVEBENCH_RUSTC").to_owned(),
            commit: commit(),
            source_digest: source_digest(),
        }
    }

    pub fn json(&self) -> String {
        format!(
            "{{\"nproc\":{},\"cpu\":{},\"rustc\":{},\"commit\":{},\"source_digest\":{}}}",
            self.nproc,
            quote(&self.cpu),
            quote(&self.rustc),
            quote(&self.commit),
            quote(&self.source_digest)
        )
    }
}

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The checked-out commit, when the working directory is a git
/// checkout; benchmark checkouts without history say so.
fn commit() -> String {
    if !Path::new(".git").exists() {
        return "unknown (no .git; see source_digest)".to_owned();
    }
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned())
}

/// FNV-1a over the paths and bytes of the sources under test
/// (`crates/**` plus the root manifest and lock file), sorted by path:
/// identifies the code measured even where there is no git history.
fn source_digest() -> String {
    fn walk(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                if p.file_name().is_some_and(|n| n != "target") {
                    walk(&p, out);
                }
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(Path::new("crates"), &mut files);
    if files.is_empty() {
        return "unknown".to_owned();
    }
    files.push("Cargo.toml".into());
    files.push("Cargo.lock".into());
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |bytes: &[u8]| {
        for &b in bytes {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        feed(f.to_string_lossy().as_bytes());
        feed(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv64:{h:016x}")
}

/// A JSON string literal.
pub fn quote(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// How often a measuring child's machine is sampled for steal time.
const SAMPLE_EVERY: Duration = Duration::from_millis(500);

/// How a child process ended.
#[derive(Debug, Clone)]
pub enum End {
    /// Exited with status 0.
    Clean,
    /// Died: a signal, a non-zero exit, or killed for going silent.
    Died(String),
}

/// Runs this executable with `args`, handing each stdout line to
/// `on_line` as it arrives. A child that prints nothing for `idle` is
/// killed. The child is always waited for.
pub fn run_child(args: &[String], idle: Duration, mut on_line: impl FnMut(&str)) -> End {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => return End::Died(format!("cannot locate the benchmark executable: {e}")),
    };
    let mut child = match Command::new(exe)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => return End::Died(format!("spawn failed: {e}")),
    };
    let stdout = child.stdout.take().expect("stdout is piped");
    let (tx, rx) = mpsc::channel::<String>();
    let reader = std::thread::spawn(move || {
        for line in BufReader::new(stdout).lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let mut killed = false;
    loop {
        match rx.recv_timeout(idle) {
            Ok(line) => on_line(&line),
            Err(mpsc::RecvTimeoutError::Timeout) => {
                let _ = child.kill();
                killed = true;
                // Drain whatever arrives before the pipe closes.
                while let Ok(line) = rx.recv() {
                    on_line(&line);
                }
                break;
            }
            Err(mpsc::RecvTimeoutError::Disconnected) => break,
        }
    }
    let status = child.wait();
    let _ = reader.join();
    match status {
        _ if killed => End::Died(format!("killed after {}s without output", idle.as_secs())),
        Ok(s) if s.success() => End::Clean,
        Ok(s) => End::Died(describe(s)),
        Err(e) => End::Died(format!("wait failed: {e}")),
    }
}

/// Runs this executable with `args` and its stdout in the file `log`,
/// returning how it ended, how long it ran and what it wrote. Nothing
/// in the harness wakes up per line while the child measures; the file
/// keeps every line written before a crash. Meanwhile `/proc/stat` is
/// read into `samples` every `SAMPLE_EVERY`. A child whose log stops
/// growing for `idle` is killed. The child is always waited for.
pub fn run_logged(
    args: &[String],
    log: &Path,
    idle: Duration,
    samples: &mut Vec<Sample>,
) -> (End, Duration, String) {
    let started = Instant::now();
    let spawned = std::env::current_exe()
        .map_err(|e| format!("cannot locate the benchmark executable: {e}"))
        .and_then(|exe| {
            let file = File::create(log).map_err(|e| format!("creating {}: {e}", log.display()))?;
            Command::new(exe)
                .args(args)
                .stdin(Stdio::null())
                .stdout(file)
                .stderr(Stdio::inherit())
                .spawn()
                .map_err(|e| format!("spawn failed: {e}"))
        });
    let mut child = match spawned {
        Ok(c) => c,
        Err(e) => return (End::Died(e), started.elapsed(), String::new()),
    };
    let (mut size, mut grew) = (0, Instant::now());
    let mut killed = false;
    let mut sampled = Instant::now();
    samples.extend(cpu_sample());
    let status = loop {
        if sampled.elapsed() >= SAMPLE_EVERY {
            sampled = Instant::now();
            samples.extend(cpu_sample());
        }
        match child.try_wait() {
            Ok(Some(status)) => break Ok(status),
            Ok(None) => {}
            Err(e) => break Err(e),
        }
        std::thread::sleep(Duration::from_millis(20));
        let now = std::fs::metadata(log).map_or(0, |m| m.len());
        if now != size {
            (size, grew) = (now, Instant::now());
        } else if grew.elapsed() > idle && !killed {
            let _ = child.kill();
            killed = true;
        }
    };
    let wall = started.elapsed();
    samples.extend(cpu_sample());
    let text = std::fs::read_to_string(log).unwrap_or_default();
    let end = match status {
        _ if killed => End::Died(format!("killed after {}s without output", idle.as_secs())),
        Ok(s) if s.success() => End::Clean,
        Ok(s) => End::Died(describe(s)),
        Err(e) => End::Died(format!("wait failed: {e}")),
    };
    (end, wall, text)
}

/// One reading of `/proc/stat`'s `cpu` line.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When, in ns since the Unix epoch.
    pub at: u64,
    /// Ticks the hypervisor gave to other guests.
    pub steal: u64,
    /// All ticks.
    pub total: u64,
}

pub fn cpu_sample() -> Option<Sample> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let cpu = stat.lines().next()?.strip_prefix("cpu ")?;
    let ticks: Vec<u64> = cpu
        .split_whitespace()
        .filter_map(|t| t.parse().ok())
        .collect();
    Some(Sample {
        at: epoch_ns(),
        steal: *ticks.get(7)?,
        total: ticks.iter().sum(),
    })
}

/// Wall-clock time in ns since the Unix epoch: the one clock the
/// harness and its children share.
pub fn epoch_ns() -> u64 {
    SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map_or(0, |d| d.as_nanos() as u64)
}

#[cfg(unix)]
fn describe(s: ExitStatus) -> String {
    use std::os::unix::process::ExitStatusExt;
    match (s.signal(), s.code()) {
        (Some(sig), _) => format!("signal {sig}{}", signal_name(sig)),
        (None, Some(code)) => format!("exit code {code}"),
        _ => s.to_string(),
    }
}

#[cfg(not(unix))]
fn describe(s: ExitStatus) -> String {
    s.to_string()
}

#[cfg(unix)]
fn signal_name(sig: i32) -> &'static str {
    match sig {
        6 => " (SIGABRT)",
        9 => " (SIGKILL)",
        11 => " (SIGSEGV)",
        7 => " (SIGBUS)",
        _ => "",
    }
}
