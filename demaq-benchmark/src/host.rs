//! What the benchmark reads from the host: CPU time and memory of this
//! process, a fingerprint of the machine, and the directory it may write.

use std::path::{Path, PathBuf};
use std::time::Instant;

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads /proc and calls clock_gettime with the 64-bit Linux ABI");

/// `struct timespec` of the 64-bit Linux ABI.
#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock_id: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
const CLOCK_THREAD_CPUTIME_ID: i32 = 3;

/// CPU time (user plus system) at nanosecond resolution. `/proc/…/stat`
/// only has 10 ms ticks charged by sampling, far too coarse to price a
/// one-second segment; the standard library has no CPU clock.
fn cpu_clock_ns(clock_id: i32) -> u64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` with the layout
    // the 64-bit Linux ABI defines (enforced by the cfg above), and
    // `clock_gettime` writes nothing else. Both clock ids are constants
    // every Linux kernel since 2.6.12 supports.
    let rc = unsafe { clock_gettime(clock_id, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime({clock_id}) failed");
    ts.tv_sec as u64 * 1_000_000_000 + ts.tv_nsec as u64
}

/// CPU consumed so far by every thread of this process, exited ones
/// included.
pub fn process_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID)
}

/// CPU consumed so far by the calling thread.
pub fn thread_cpu_ns() -> u64 {
    cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID)
}

/// The yardstick on the builder's host when quiet. Only fixes the scale
/// of the scaled figures; it cancels out of every comparison.
pub const YARDSTICK_NOMINAL_NS: f64 = 1400.0;

/// Thread CPU nanoseconds per iteration of a fixed piece of work shaped
/// like message processing: a dozen small heap nodes with formatted names
/// and text are built, linked, walked and hashed, and the hash counted in
/// a map of a few megabytes. This host's cores are shared: the same
/// work costs up to a third more CPU time for minutes on end. Time-based
/// gated metrics are multiplied by nominal ÷ yardstick, both measured in
/// the same second, which takes most of that out.
pub fn yardstick_ns_per_op() -> f64 {
    use std::collections::HashMap;
    const OPS: u64 = 3_000;
    struct Node {
        name: String,
        text: String,
        children: Vec<usize>,
    }
    // Sized past L2 so that, like the engine, the yardstick feels a busy
    // sibling core through the shared cache and not only the pipeline.
    let mut seen: HashMap<u64, u64> = HashMap::with_capacity(1 << 17);
    let mut nodes: Vec<Node> = Vec::with_capacity(16);
    let mut t0 = 0;
    // The first third warms caches and allocator and is not timed: the
    // yardstick is read right after work that left them in any state.
    for i in 0..OPS + OPS / 3 {
        if i == OPS / 3 {
            t0 = thread_cpu_ns();
        }
        nodes.clear();
        for field in 0..12u64 {
            let text = (i.wrapping_mul(2_654_435_761) ^ field).to_string();
            nodes.push(Node {
                name: format!("field{field}"),
                text,
                children: Vec::new(),
            });
            let parent = (field / 3) as usize;
            if parent != field as usize {
                nodes[parent].children.push(field as usize);
            }
        }
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for node in &nodes {
            for b in node.name.bytes().chain(node.text.bytes()) {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
            h = h.wrapping_add(
                node.children
                    .iter()
                    .map(|&c| nodes[c].text.len() as u64)
                    .sum::<u64>(),
            );
        }
        *seen.entry(h % 100_003).or_insert(0) += h & 1;
    }
    std::hint::black_box(&seen);
    (thread_cpu_ns() - t0) as f64 / OPS as f64
}

/// `USER_HZ`: the unit of `utime`/`stime` in `/proc/<pid>/stat`. Fixed at
/// 100 by the Linux ABI on every architecture Rust targets.
const TICK_NS: u64 = 10_000_000;

/// The user/system split of CPU time, in nanoseconds at tick (10 ms)
/// resolution — only good for totals over a whole run.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub user_ns: u64,
    pub sys_ns: u64,
}

impl CpuTimes {
    pub fn since(self, earlier: CpuTimes) -> CpuTimes {
        CpuTimes {
            user_ns: self.user_ns.saturating_sub(earlier.user_ns),
            sys_ns: self.sys_ns.saturating_sub(earlier.sys_ns),
        }
    }
}

/// Parse `utime` and `stime` (fields 14 and 15) out of a `/proc/…/stat`
/// line. The command name (field 2) may itself contain spaces and
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_stat_cpu(stat: &str) -> Option<CpuTimes> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    let mut fields = after_comm.split_ascii_whitespace();
    // after_comm starts at field 3 (state); utime is field 14.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some(CpuTimes {
        user_ns: utime * TICK_NS,
        sys_ns: stime * TICK_NS,
    })
}

fn read_cpu(path: &str) -> CpuTimes {
    let stat = std::fs::read_to_string(path).unwrap_or_else(|e| panic!("read {path}: {e}"));
    parse_stat_cpu(&stat).unwrap_or_else(|| panic!("unparseable {path}: {stat}"))
}

/// User/system split of the whole process, exited threads included.
pub fn process_cpu_split() -> CpuTimes {
    read_cpu("/proc/self/stat")
}

/// Parse the `VmHWM` (peak resident set) line of `/proc/self/status`.
pub fn parse_peak_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_ascii_whitespace().nth(1)?.parse().ok()
}

pub fn peak_rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_peak_rss_kb(&status).expect("VmHWM in /proc/self/status")
}

pub fn cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A workload that needs more threads than the host has cores would
/// measure the scheduler, not the program: refuse instead of degrading.
pub fn require_cores(needed: usize, workload: &str) -> Result<(), String> {
    let have = cores();
    if needed > have {
        return Err(format!(
            "workload `{workload}` runs {needed} threads but this host has {have} core(s)"
        ));
    }
    Ok(())
}

/// The one directory the benchmark writes: `<cargo target dir>/benchmark`,
/// found from the running executable so it stays inside the checkout the
/// binary was built in.
pub fn work_dir() -> PathBuf {
    let exe = std::env::current_exe().expect("path of the running executable");
    let profile_dir = exe.parent().expect("executable has a directory");
    let dir = profile_dir
        .parent()
        .unwrap_or(profile_dir)
        .join("benchmark");
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// A fresh, empty directory under [`work_dir`].
pub fn fresh_dir(name: &str) -> PathBuf {
    let dir = work_dir().join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
    dir
}

/// File-system type and device backing `path`, from the longest matching
/// mount point in `/proc/self/mountinfo` text.
pub fn parse_storage_kind(mountinfo: &str, path: &Path) -> String {
    let mut best: Option<(usize, String)> = None;
    for line in mountinfo.lines() {
        // "36 35 98:0 /mnt1 /mnt2 rw,noatime - ext3 /dev/root rw"
        let Some((left, right)) = line.split_once(" - ") else {
            continue;
        };
        let Some(mount_point) = left.split(' ').nth(4) else {
            continue;
        };
        if !path.starts_with(mount_point) {
            continue;
        }
        let mut fs = right.split(' ');
        let kind = format!("{}:{}", fs.next().unwrap_or("?"), fs.next().unwrap_or("?"));
        if best
            .as_ref()
            .is_none_or(|(len, _)| mount_point.len() >= *len)
        {
            best = Some((mount_point.len(), kind));
        }
    }
    best.map_or_else(|| "unknown".to_string(), |(_, kind)| kind)
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

/// Median latency (µs) of a 256-byte append followed by `fdatasync`, the
/// WAL's durable-commit primitive, on the benchmark's own directory.
pub fn fsync_us_p50(dir: &Path, iterations: usize) -> f64 {
    use std::io::Write;
    let path = dir.join("fsync-probe.dat");
    let mut file = std::fs::File::create(&path).expect("create fsync probe file");
    let mut samples = Vec::with_capacity(iterations);
    for _ in 0..iterations {
        file.write_all(&[0u8; 256]).expect("probe append");
        let t = Instant::now();
        file.sync_data().expect("probe fdatasync");
        samples.push(t.elapsed().as_nanos() as f64 / 1e3);
    }
    drop(file);
    let _ = std::fs::remove_file(&path);
    crate::stats::median(&samples)
}

/// Where and on what a result was measured.
#[derive(Debug, Clone)]
pub struct Fingerprint {
    pub cores: usize,
    pub kernel: String,
    pub storage: String,
    pub fsync_us_p50: f64,
    pub rustc: String,
    pub git_commit: String,
}

impl Fingerprint {
    pub fn collect() -> Fingerprint {
        let dir = work_dir();
        let mountinfo = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
        let canonical = dir.canonicalize().unwrap_or_else(|_| dir.clone());
        Fingerprint {
            cores: cores(),
            kernel: std::fs::read_to_string("/proc/sys/kernel/osrelease")
                .map(|s| s.trim().to_string())
                .unwrap_or_else(|_| "unknown".to_string()),
            storage: parse_storage_kind(&mountinfo, &canonical),
            fsync_us_p50: fsync_us_p50(&dir, 64),
            rustc: command_line("rustc", &["--version"]),
            git_commit: command_line("git", &["rev-parse", "HEAD"]),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parser_survives_hostile_command_names() {
        let line = "1234 (demaq) bench) x) S 1 1234 1234 0 -1 4194560 \
                    2207 0 0 0 357 41 0 0 20 0 3 0 8163 1 2 3";
        assert_eq!(
            parse_stat_cpu(line),
            Some(CpuTimes {
                user_ns: 357 * TICK_NS,
                sys_ns: 41 * TICK_NS
            })
        );
        assert_eq!(parse_stat_cpu("garbage"), None);
        assert_eq!(parse_stat_cpu("1 (x) S 1 2"), None);
    }

    #[test]
    fn cpu_clocks_advance_with_work() {
        let (split0, process0, thread0) = (process_cpu_split(), process_cpu_ns(), thread_cpu_ns());
        let mut x = 0u64;
        let t = Instant::now();
        while t.elapsed().as_millis() < 60 {
            x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(7));
        }
        let spun = thread_cpu_ns() - thread0;
        assert!(
            spun >= 30_000_000,
            "thread clock saw {spun} ns of a 60 ms spin"
        );
        assert!(process_cpu_ns() - process0 >= spun);
        let split = process_cpu_split().since(split0);
        assert!(split.user_ns + split.sys_ns >= 3 * TICK_NS, "{split:?}");
    }

    #[test]
    fn peak_rss_parses() {
        assert_eq!(
            parse_peak_rss_kb("Name:\tx\nVmHWM:\t   51234 kB\n"),
            Some(51234)
        );
        assert_eq!(parse_peak_rss_kb("Name:\tx\n"), None);
        assert!(peak_rss_kb() > 0);
    }

    #[test]
    fn storage_kind_takes_longest_mount() {
        let mi = "22 1 254:0 / / rw,relatime - ext4 /dev/vda rw\n\
                  30 22 0:26 / /dev/shm rw - tmpfs tmpfs rw\n";
        assert_eq!(
            parse_storage_kind(mi, Path::new("/dev/shm/x")),
            "tmpfs:tmpfs"
        );
        assert_eq!(
            parse_storage_kind(mi, Path::new("/root/repo/target")),
            "ext4:/dev/vda"
        );
        assert_eq!(parse_storage_kind("", Path::new("/x")), "unknown");
    }

    #[test]
    fn too_many_threads_is_an_error() {
        assert!(require_cores(1, "w").is_ok());
        let err = require_cores(cores() + 1, "w").unwrap_err();
        assert!(err.contains("core"), "{err}");
    }
}
