//! What the system under test cost, read from outside it: wall clock, CPU
//! seconds and peak resident memory of `tps` child processes.
//!
//! CPU comes from `wait4(2)`'s `rusage` (microseconds, and it includes every
//! grandchild the child reaped — the `--dist-local` workers), not from the
//! 10 ms ticks of `/proc/self/stat`: a 150 ms run would otherwise read in
//! steps of 7 %. A live daemon's CPU comes from its POSIX CPU-time clock.
//! Peak memory is the sum over the SUT's processes of `VmHWM`, polled from
//! `/proc` by a thread. `rusage.ru_maxrss` would be exact but is not the
//! child's own: at `exec` the kernel folds the high-water mark of the address
//! space the child was spawned from — the ledger's — into it, so a ledger that
//! has grown past the child's peak would report its own size.

use std::collections::HashMap;
use std::io;
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How often the poller samples `VmHWM`.
const POLL_INTERVAL: Duration = Duration::from_millis(5);
/// The poller looks for new descendants on every this-many-th sample (a
/// scan of `/proc` costs more than reading one status file).
const RESCAN_EVERY: u32 = 4;

/// A `timeval` (seconds, microseconds) or a `timespec` (seconds,
/// nanoseconds): two 64-bit integers on 64-bit Linux either way.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Timeval {
    sec: i64,
    usec: i64,
}

/// `struct rusage` of 64-bit Linux: two timevals and fourteen longs.
#[repr(C)]
#[derive(Clone, Copy, Default)]
struct Rusage {
    utime: Timeval,
    stime: Timeval,
    rest: [i64; 14],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut Rusage) -> i32;
    fn clock_getcpuclockid(pid: i32, clock_id: *mut i32) -> i32;
    fn clock_gettime(clock_id: i32, now: *mut Timeval) -> i32;
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

/// A `cpu_set_t`: one bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

fn set_affinity(mask: &CpuSet) -> bool {
    // SAFETY: `mask` is live and of the size passed; pid 0 is the calling thread.
    unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), mask.as_ptr()) == 0 }
}

/// The calling thread confined to one CPU until this is dropped; a child
/// spawned meanwhile inherits the confinement.
///
/// A serve workload is a closed loop between two processes of which one runs
/// at a time. Left to the scheduler they sit on the box's two vCPUs and each
/// request wakes an idle one, which the host may have parked anywhere:
/// alternating invocations, `serve_read` read 411–520 ns/key that way and
/// 429–463 on one CPU, `serve_churn` 443–512 against 342–405.
pub struct OneCpu {
    before: CpuSet,
}

impl OneCpu {
    /// Confine the calling thread to the highest-numbered CPU it may run on
    /// (CPU 0 takes more of the box's interrupts). `None`, and nothing
    /// changed, where the kernel refuses: the pin steadies, nothing depends on it.
    pub fn pin() -> Option<OneCpu> {
        let mut before: CpuSet = [0; 16];
        // SAFETY: `before` is live, writable and of the size passed.
        let rc =
            unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), before.as_mut_ptr()) };
        if rc != 0 {
            return None;
        }
        let (word, bits) = before.iter().enumerate().rev().find(|(_, w)| **w != 0)?;
        let mut one: CpuSet = [0; 16];
        one[word] = 1 << (63 - bits.leading_zeros());
        set_affinity(&one).then_some(OneCpu { before })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        set_affinity(&self.before);
    }
}

/// What one reaped child cost.
#[derive(Clone, Copy, Debug)]
pub struct Reaped {
    /// Whether the child exited with status 0.
    pub success: bool,
    /// user+sys CPU seconds of the child and of every descendant it waited for.
    pub cpu_secs: f64,
}

/// Wait for `child` with `wait4`, returning its exit state and resource use.
/// Consumes the handle: the process is reaped here, so `Child::wait` must not
/// run afterwards.
pub fn reap(child: Child) -> io::Result<Reaped> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = Rusage::default();
    loop {
        // SAFETY: `status` and `ru` are live, writable and of the layouts
        // wait4 expects on 64-bit Linux (an int, a struct rusage); `pid` is a
        // child of this process that nothing else waits for.
        let r = unsafe { wait4(pid, &mut status, 0, &mut ru) };
        if r == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    drop(child);
    let secs = |t: Timeval| t.sec as f64 + t.usec as f64 / 1e6;
    Ok(Reaped {
        // WIFEXITED && WEXITSTATUS == 0
        success: status & 0x7f == 0 && (status >> 8) & 0xff == 0,
        cpu_secs: secs(ru.utime) + secs(ru.stime),
    })
}

/// user+sys CPU seconds a live process has used so far (all its threads),
/// from its POSIX CPU-time clock: nanoseconds from the scheduler's own
/// accounting, where `/proc/<pid>/stat` would give 10 ms ticks.
pub fn pid_cpu_secs(pid: u32) -> io::Result<f64> {
    let mut clock = 0i32;
    let mut now = Timeval::default();
    // SAFETY: `clock` and `now` are live and writable; a timespec is two
    // 64-bit integers like the `Timeval` above (seconds, then nanoseconds).
    let rc = unsafe { clock_getcpuclockid(pid as i32, &mut clock) };
    if rc != 0 {
        return Err(io::Error::from_raw_os_error(rc));
    }
    // SAFETY: as above.
    if unsafe { clock_gettime(clock, &mut now) } != 0 {
        return Err(io::Error::last_os_error());
    }
    Ok(now.sec as f64 + now.usec as f64 / 1e9)
}

/// Peak resident set of a live process (`VmHWM` of `/proc/<pid>/status`), kB.
pub fn vm_hwm_kb(pid: u32) -> Option<u64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
}

/// Direct children of `parent`, found by the `PPid` of every process.
fn children_of(parent: u32) -> Vec<u32> {
    let Ok(dir) = std::fs::read_dir("/proc") else {
        return Vec::new();
    };
    dir.flatten()
        .filter_map(|e| e.file_name().to_str()?.parse::<u32>().ok())
        .filter(|&pid| {
            std::fs::read_to_string(format!("/proc/{pid}/stat"))
                .ok()
                .and_then(|s| {
                    // After the parenthesised command name: state, then ppid.
                    let rest = s.rsplit_once(')')?.1;
                    rest.split_whitespace().nth(1)?.parse::<u32>().ok()
                })
                == Some(parent)
        })
        .collect()
}

/// A thread that samples `VmHWM` of a process (and, if asked, of its
/// children) until stopped.
struct RssPoller {
    stop: Arc<AtomicBool>,
    handle: std::thread::JoinHandle<u64>,
}

impl RssPoller {
    fn start(root: u32, descendants: bool) -> RssPoller {
        let stop = Arc::new(AtomicBool::new(false));
        let flag = stop.clone();
        let handle = std::thread::spawn(move || {
            let mut peaks: HashMap<u32, u64> = HashMap::from([(root, 0)]);
            let mut tick = 0u32;
            loop {
                // Read the flag first: the sample taken after the child has
                // been reaped finds no process and changes nothing.
                let last = flag.load(Ordering::Relaxed);
                if descendants && tick.is_multiple_of(RESCAN_EVERY) {
                    for pid in children_of(root) {
                        peaks.entry(pid).or_insert(0);
                    }
                }
                for (pid, peak) in peaks.iter_mut() {
                    if let Some(kb) = vm_hwm_kb(*pid) {
                        *peak = (*peak).max(kb);
                    }
                }
                if last {
                    break;
                }
                tick += 1;
                std::thread::sleep(POLL_INTERVAL);
            }
            peaks.values().sum()
        });
        RssPoller { stop, handle }
    }

    /// Stop sampling; the sum over processes of their highest `VmHWM`, kB.
    fn finish(self) -> u64 {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .join()
            .expect("the poller thread does not panic")
    }
}

/// One finished child run.
#[derive(Clone, Copy, Debug)]
pub struct ChildRun {
    /// `Command::spawn` → child reaped.
    pub wall: Duration,
    pub cpu_secs: f64,
    /// Sum over the SUT's processes of their peak resident set, kB.
    pub peak_rss_kb: u64,
    pub success: bool,
}

/// Run `cmd` to completion as one measured child. `descendants` makes the
/// memory poller follow the child's own children (`--dist-local` workers).
pub fn run_child(cmd: &mut Command, descendants: bool) -> io::Result<ChildRun> {
    cmd.stdin(Stdio::null()).stdout(Stdio::null());
    let start = Instant::now();
    let child = cmd.spawn()?;
    let poller = RssPoller::start(child.id(), descendants);
    let reaped = reap(child);
    let wall = start.elapsed();
    let peak_rss_kb = poller.finish();
    let reaped = reaped?;
    Ok(ChildRun {
        wall,
        cpu_secs: reaped.cpu_secs,
        peak_rss_kb,
        success: reaped.success,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_own_process() {
        let me = std::process::id();
        assert!(vm_hwm_kb(me).unwrap() > 0);
        let before = pid_cpu_secs(me).unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = std::hint::black_box(x.wrapping_add(i));
        }
        let after = pid_cpu_secs(me).unwrap();
        assert!(after > before, "{before} -> {after}");
    }

    #[test]
    fn one_cpu_pins_and_restores() {
        let allowed = || {
            let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
            let list = status
                .lines()
                .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                .unwrap();
            list.trim().to_string()
        };
        let before = allowed();
        if let Some(pin) = OneCpu::pin() {
            assert!(!allowed().contains([',', '-']), "{}", allowed());
            drop(pin);
        }
        assert_eq!(allowed(), before);
    }

    #[test]
    fn measures_a_child_and_its_exit_status() {
        // Long enough for the 5 ms poller to see it at least once.
        let ok = run_child(
            Command::new("sleep").arg("0.05").stderr(Stdio::null()),
            true,
        )
        .unwrap();
        assert!(ok.success);
        assert!(ok.peak_rss_kb > 0);
        assert!(ok.wall >= Duration::from_millis(50));
        let bad = run_child(Command::new("false").stderr(Stdio::null()), false).unwrap();
        assert!(!bad.success);
    }
}
