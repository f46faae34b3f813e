//! The served process under test, and what `/proc` says about it.
//!
//! The benchmark spawns the shipped `serve` binary (found next to its
//! own executable) and reads its counters from `/proc/<pid>`; nothing
//! inside the server is instrumented for the benchmark.

use std::fs;
use std::io;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use crate::workload::SHARDS;

/// How long a spawned server may take to publish its address.
const START_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `serve` process; dropping it kills the process and waits
/// for it to exit.
#[derive(Debug)]
pub struct Server {
    child: Child,
    pub addr: SocketAddr,
    addr_file: PathBuf,
}

impl Server {
    /// Spawns `serve` with the benchmark's fixed configuration (2 sliced
    /// shards, no device pacing, no self-sampled traces) and waits until
    /// it has published its address.
    ///
    /// # Errors
    ///
    /// Spawn failures, and a server that does not come up within
    /// [`START_TIMEOUT`].
    pub fn spawn(serve: &Path, scratch: &Path, serve_secs: u64) -> io::Result<Server> {
        let addr_file = scratch.join(format!("serve-{}-{}.addr", std::process::id(), unique()));
        let _ = fs::remove_file(&addr_file);
        let child = Command::new(serve)
            .args(["--shards", &SHARDS.to_string()])
            .args([
                "--backend",
                "sliced",
                "--cycle-ns",
                "0",
                "--trace-every",
                "0",
            ])
            .arg("--addr-file")
            .arg(&addr_file)
            .args(["--serve-secs", &serve_secs.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .spawn()?;
        let mut server = Server {
            child,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            addr_file,
        };
        let deadline = Instant::now() + START_TIMEOUT;
        loop {
            // The address file is written non-atomically: a read can see
            // it empty, so keep polling until it parses.
            if let Some(addr) = fs::read_to_string(&server.addr_file)
                .ok()
                .and_then(|s| s.trim().parse().ok())
            {
                server.addr = addr;
                return Ok(server);
            }
            if let Some(status) = server.child.try_wait()? {
                return Err(io::Error::other(format!("serve exited early: {status}")));
            }
            if Instant::now() > deadline {
                return Err(io::Error::other("serve did not publish its address"));
            }
            // Yield rather than sleep: a sleep's timer slack would add
            // tens of microseconds to every `setup_s` sample.
            std::thread::yield_now();
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = fs::remove_file(&self.addr_file);
    }
}

fn unique() -> u64 {
    use std::sync::atomic::{AtomicU64, Ordering};
    static NEXT: AtomicU64 = AtomicU64::new(0);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// `utime + stime` in ticks from the text of a `/proc/<pid>/stat` file.
/// The command name (field 2) is parenthesised and may itself contain
/// spaces and parentheses, so fields are counted from the last `)`.
pub fn parse_stat_ticks(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_whitespace();
    // After the name: state, ppid, pgrp, session, tty_nr, tpgid, flags,
    // minflt, cminflt, majflt, cmajflt, then utime and stime.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(utime + stime)
}

/// CPU time (user + system) of process `pid` as the kernel accounts it,
/// exited threads included, in whole `USER_HZ` ticks of 10 ms: too
/// coarse to time a slice, so it only cross-checks [`cpu_ns`] over a
/// whole window.
pub fn cpu_ticks(pid: u32) -> io::Result<u64> {
    let stat = fs::read_to_string(format!("/proc/{pid}/stat"))?;
    parse_stat_ticks(&stat).ok_or_else(|| io::Error::other(format!("unparsable /proc/{pid}/stat")))
}

/// Run time in ns, the first field of a `/proc/<pid>/task/<tid>/schedstat`
/// file.
pub fn parse_schedstat_ns(schedstat: &str) -> Option<u64> {
    schedstat.split_whitespace().next()?.parse().ok()
}

/// CPU time of process `pid` (`"self"` for this one), summed over its
/// live threads from the scheduler's nanosecond run-time accounting. A
/// thread that exits takes its time out of the sum; the server's threads
/// live for the whole pass.
pub fn cpu_ns(pid: &str) -> io::Result<u64> {
    let mut total = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread can exit between listing and reading; skip it.
        let Ok(text) = fs::read_to_string(task?.path().join("schedstat")) else {
            continue;
        };
        total += parse_schedstat_ns(&text)
            .ok_or_else(|| io::Error::other(format!("unparsable schedstat of {pid}")))?;
    }
    Ok(total)
}

/// The value of a `Key:   value ...` line of a `/proc/*/status` file.
pub fn status_field(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let value = line.strip_prefix(key)?.strip_prefix(':')?;
        value.split_whitespace().next()?.parse().ok()
    })
}

/// Peak resident set size (`VmHWM`) of process `pid`, in KiB.
pub fn peak_rss_kib(pid: u32) -> io::Result<u64> {
    let status = fs::read_to_string(format!("/proc/{pid}/status"))?;
    status_field(&status, "VmHWM").ok_or_else(|| io::Error::other("no VmHWM in status"))
}

/// Thread count and summed voluntary + involuntary context switches
/// over every live thread of process `pid`.
pub fn thread_switches(pid: u32) -> io::Result<(u64, u64)> {
    let mut threads = 0;
    let mut switches = 0;
    for task in fs::read_dir(format!("/proc/{pid}/task"))? {
        // A thread can exit between listing and reading; skip it.
        let Ok(status) = fs::read_to_string(task?.path().join("status")) else {
            continue;
        };
        threads += 1;
        switches += status_field(&status, "voluntary_ctxt_switches").unwrap_or(0)
            + status_field(&status, "nonvoluntary_ctxt_switches").unwrap_or(0);
    }
    Ok((threads, switches))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_spaces_and_parentheses_in_the_name() {
        let plain = "4242 (serve) S 1 4242 4242 0 -1 4194560 120 0 0 0 37 5 0 0 20 0 9 0";
        assert_eq!(parse_stat_ticks(plain), Some(42));
        let hostile = "4242 (a) b (c) d) R 1 4242 4242 0 -1 4194560 120 0 0 0 1000 234 0 0 20";
        assert_eq!(parse_stat_ticks(hostile), Some(1234));
        assert_eq!(parse_stat_ticks("4242 (serve) S 1 2"), None);
        assert_eq!(parse_stat_ticks("no name here"), None);
    }

    #[test]
    fn schedstat_run_time_is_the_first_field() {
        assert_eq!(
            parse_schedstat_ns("307229200 2576631 26\n"),
            Some(307_229_200)
        );
        assert_eq!(parse_schedstat_ns(""), None);
        assert_eq!(parse_schedstat_ns("x 1 2"), None);
    }

    #[test]
    fn own_process_counters_are_readable() {
        // This thread only: other test threads may exit meanwhile and
        // take their run time out of the process sum.
        let own = || {
            let text = fs::read_to_string("/proc/thread-self/schedstat").expect("own schedstat");
            parse_schedstat_ns(&text).expect("parsable schedstat")
        };
        let before = own();
        let spin = Instant::now();
        // Longer than several scheduler ticks, at which the running
        // thread's run time is brought up to date.
        while spin.elapsed() < Duration::from_millis(50) {
            std::hint::black_box(spin.elapsed());
        }
        assert!(own() > before, "a 50 ms spin must add run time");
        assert!(cpu_ns("self").expect("own tasks") > 0);
        cpu_ticks(std::process::id()).expect("own stat");
        let (threads, _) = thread_switches(std::process::id()).expect("own tasks");
        assert!(threads >= 1);
        assert!(peak_rss_kib(std::process::id()).expect("own status") > 0);
    }

    #[test]
    fn status_fields_need_an_exact_key() {
        let status = "VmPeak:\t  9000 kB\nVmHWM:\t  1234 kB\nvoluntary_ctxt_switches:\t7\n\
                      nonvoluntary_ctxt_switches:\t3\n";
        assert_eq!(status_field(status, "VmHWM"), Some(1234));
        assert_eq!(status_field(status, "voluntary_ctxt_switches"), Some(7));
        assert_eq!(status_field(status, "nonvoluntary_ctxt_switches"), Some(3));
        assert_eq!(status_field(status, "VmRSS"), None);
    }
}
