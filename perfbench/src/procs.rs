//! Child processes under measurement: wall time from spawn to exit and the
//! peak resident set (`VmHWM`) read from `/proc/<pid>/status`.

use std::io;
use std::process::{Child, Command, ExitStatus, Stdio};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// How often the watcher re-reads `VmHWM`. The kernel keeps the
/// high-water mark itself, so polling only risks missing growth in the
/// last interval before exit.
const POLL: Duration = Duration::from_millis(1);

/// Parses the `VmHWM:` line of a `/proc/<pid>/status` text, in KiB.
pub fn parse_vmhwm(status: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix("VmHWM:")?;
        let mut fields = rest.split_whitespace();
        let value: u64 = fields.next()?.parse().ok()?;
        match fields.next() {
            Some("kB") | None => Some(value),
            Some(_) => None,
        }
    })
}

/// A finished, measured child.
#[derive(Debug, Clone, Copy)]
pub struct Finished {
    pub status: ExitStatus,
    pub wall: Duration,
    /// Highest `VmHWM` seen while the child ran, in KiB (0 if never read).
    pub peak_rss_kib: u64,
}

impl Finished {
    pub fn peak_rss_mib(&self) -> f64 {
        self.peak_rss_kib as f64 / 1024.0
    }
}

/// A running child with a thread polling its peak RSS.
#[derive(Debug)]
pub struct Watched {
    pub child: Child,
    started: Instant,
    stop: Arc<AtomicBool>,
    peak: Arc<AtomicU64>,
    poller: Option<JoinHandle<()>>,
}

impl Watched {
    /// Spawns `cmd` (stdin closed) and starts watching it.
    pub fn spawn(cmd: &mut Command) -> io::Result<Watched> {
        let started = Instant::now();
        let child = cmd.stdin(Stdio::null()).spawn()?;
        let stop = Arc::new(AtomicBool::new(false));
        let peak = Arc::new(AtomicU64::new(0));
        let path = format!("/proc/{}/status", child.id());
        let poller = {
            let (stop, peak) = (Arc::clone(&stop), Arc::clone(&peak));
            thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    match std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| parse_vmhwm(&s))
                    {
                        Some(kib) => {
                            peak.fetch_max(kib, Ordering::Relaxed);
                        }
                        // Exited (a zombie has no VmHWM line) or gone.
                        None if peak.load(Ordering::Relaxed) > 0 => break,
                        None => {}
                    }
                    thread::sleep(POLL);
                }
            })
        };
        Ok(Watched {
            child,
            started,
            stop,
            peak,
            poller: Some(poller),
        })
    }

    /// Time since spawn.
    pub fn elapsed(&self) -> Duration {
        self.started.elapsed()
    }

    /// Waits for exit and stops the poller.
    pub fn wait(mut self) -> io::Result<Finished> {
        let status = self.child.wait();
        let wall = self.started.elapsed();
        self.stop_poller();
        Ok(Finished {
            status: status?,
            wall,
            peak_rss_kib: self.peak.load(Ordering::Relaxed),
        })
    }

    fn stop_poller(&mut self) {
        self.stop.store(true, Ordering::Relaxed);
        if let Some(handle) = self.poller.take() {
            let _ = handle.join();
        }
    }
}

impl Drop for Watched {
    fn drop(&mut self) {
        if self.poller.is_some() {
            let _ = self.child.kill();
            let _ = self.child.wait();
            self.stop_poller();
        }
    }
}

/// Runs `cmd` to completion under measurement.
pub fn run_measured(cmd: &mut Command) -> io::Result<Finished> {
    Watched::spawn(cmd)?.wait()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vmhwm_parses_from_a_status_text() {
        let status = "Name:\trepro\nVmPeak:\t  912344 kB\nVmHWM:\t  123456 kB\nVmRSS:\t 100 kB\n";
        assert_eq!(parse_vmhwm(status), Some(123_456));
        assert_eq!(parse_vmhwm("Name:\tx\nState:\tZ (zombie)\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\tlots kB\n"), None);
        assert_eq!(parse_vmhwm("VmHWM:\t12 MB\n"), None);
    }

    #[test]
    fn vmhwm_parses_from_this_process() {
        let own = std::fs::read_to_string("/proc/self/status").unwrap();
        assert!(parse_vmhwm(&own).unwrap() > 0);
    }

    #[test]
    fn a_measured_child_reports_wall_and_rss() {
        let done = run_measured(Command::new("sleep").arg("0.05")).unwrap();
        assert!(done.status.success());
        assert!(done.wall >= Duration::from_millis(50));
        assert!(done.peak_rss_kib > 0);
    }
}
