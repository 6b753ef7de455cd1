//! Host and process probes: what tells a reader whether the code or the
//! machine moved.

use crate::stats;
use serde::Value;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::process::Command;
use std::time::Instant;

pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn read(path: &str) -> String {
    std::fs::read_to_string(path).unwrap_or_default()
}

/// One-minute load average; 0 when `/proc/loadavg` is unreadable.
pub fn loadavg_1m() -> f64 {
    read("/proc/loadavg")
        .split_whitespace()
        .next()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.0)
}

/// A `kB` field of `/proc/self/status` (`VmRSS`, `VmHWM`), in MiB.
pub fn status_mib(field: &str) -> f64 {
    read("/proc/self/status")
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|rest| rest.split_whitespace().next()?.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// CPU time and context switches of the daemon's threads so far.
#[derive(Debug, Clone, Copy, Default)]
pub struct Usage {
    /// User + system CPU time, µs. Ticks are taken as 100/s (`USER_HZ`).
    pub cpu_us: f64,
    pub user_cpu_us: f64,
    /// Voluntary plus involuntary context switches.
    pub ctx_switches: u64,
    pub threads: usize,
}

impl Usage {
    pub fn since(self, earlier: Usage) -> Usage {
        Usage {
            cpu_us: self.cpu_us - earlier.cpu_us,
            user_cpu_us: self.user_cpu_us - earlier.user_cpu_us,
            ctx_switches: self.ctx_switches.saturating_sub(earlier.ctx_switches),
            threads: self.threads,
        }
    }
}

/// Usage of the live threads the daemon named `gaugur-serve-*` (acceptor,
/// workers, retrainer). The load generator's threads are left out: they
/// poll, so their CPU time is wall time. A thread that has exited is no
/// longer counted, so read this while the daemon is up.
pub fn daemon_usage() -> Usage {
    let mut usage = Usage::default();
    let Ok(tasks) = std::fs::read_dir("/proc/self/task") else {
        return usage;
    };
    for task in tasks.flatten() {
        let file = |name: &str| read(&format!("{}/{name}", task.path().display()));
        if !file("comm").starts_with("gaugur-serve") {
            continue;
        }
        let stat = file("stat");
        // The command name may hold spaces; fields are counted after its ")".
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map_or("", |(_, rest)| rest)
            .split_whitespace()
            .collect();
        let ticks = |i: usize| {
            fields
                .get(i)
                .and_then(|s| s.parse::<f64>().ok())
                .unwrap_or(0.0)
        };
        let (utime, stime) = (ticks(11), ticks(12));
        usage.cpu_us += (utime + stime) * 10_000.0;
        usage.user_cpu_us += utime * 10_000.0;
        usage.ctx_switches += file("status")
            .lines()
            .filter(|l| l.contains("ctxt_switches"))
            .filter_map(|l| l.split_whitespace().last()?.parse::<u64>().ok())
            .sum::<u64>();
        usage.threads += 1;
    }
    usage
}

/// Median round trip of a 64-byte message between two threads of this
/// process over loopback TCP, in µs: the floor under any `p50_us`.
pub fn echo_rtt_p50_us() -> f64 {
    const ROUNDS: usize = 2_000;
    let run = || -> std::io::Result<f64> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        std::thread::scope(|scope| {
            let server = scope.spawn(move || -> std::io::Result<()> {
                let (mut s, _) = listener.accept()?;
                s.set_nodelay(true)?;
                let mut buf = [0u8; 64];
                while s.read_exact(&mut buf).is_ok() {
                    s.write_all(&buf)?;
                }
                Ok(())
            });
            let rtts = (|| {
                let mut c = TcpStream::connect(addr)?;
                c.set_nodelay(true)?;
                let mut buf = [7u8; 64];
                let mut rtts = Vec::with_capacity(ROUNDS);
                for _ in 0..ROUNDS {
                    let t = Instant::now();
                    c.write_all(&buf)?;
                    c.read_exact(&mut buf)?;
                    rtts.push(t.elapsed().as_nanos() as f64 / 1e3);
                }
                Ok::<_, std::io::Error>(rtts)
            })();
            // The client's stream is closed by now, which ends the echo loop.
            server.join().expect("echo thread does not panic")?;
            Ok(stats::percentile(&stats::sorted(&rtts?), 50.0))
        })
    };
    run().unwrap_or(0.0)
}

/// Wall time of a fixed arithmetic loop, in ms: moves with the CPU this VM
/// was given, not with the code under test.
pub fn spin_ms() -> f64 {
    let t = Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// The host block every report carries.
pub fn block(seed: u64, load_before: f64) -> Value {
    let cpu_model = read("/proc/cpuinfo")
        .lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split(':').nth(1))
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Value::Map(vec![
        ("nproc".into(), Value::Int(nproc() as i64)),
        ("cpu_model".into(), Value::Str(cpu_model)),
        ("build_profile".into(), Value::Str(profile.into())),
        ("rustc".into(), Value::Str(command_line("rustc", &["-V"]))),
        (
            "git_rev".into(),
            Value::Str(command_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed".into(), Value::Int(seed as i64)),
        ("loadavg_1m_before".into(), Value::Float(load_before)),
        ("loadavg_1m_after".into(), Value::Float(loadavg_1m())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn proc_probes_read_something_on_linux() {
        assert!(nproc() >= 1);
        assert!(status_mib("VmRSS") > 0.0);
        assert!(status_mib("VmHWM") >= status_mib("VmRSS") * 0.5);
    }

    #[test]
    fn daemon_usage_counts_only_threads_the_daemon_named() {
        let before = daemon_usage().threads;
        let (tx, rx) = std::sync::mpsc::channel::<()>();
        let (up_tx, up_rx) = std::sync::mpsc::channel::<()>();
        let worker = std::thread::Builder::new()
            .name("gaugur-serve-worker-9".into())
            .spawn(move || {
                up_tx.send(()).unwrap();
                let _ = rx.recv();
            })
            .unwrap();
        up_rx.recv().unwrap();
        let during = daemon_usage();
        drop(tx);
        worker.join().unwrap();
        assert_eq!(during.threads, before + 1);
        assert!(during.cpu_us >= during.user_cpu_us);
    }

    #[test]
    fn echo_and_spin_take_measurable_time() {
        assert!(echo_rtt_p50_us() > 0.0);
        assert!(spin_ms() > 0.0);
    }
}
