//! Where a run happened: the host (core count, CPU model, kernel), the
//! code measured (git commit when available, plus a content hash of the
//! workspace sources that works in a plain checkout), and the process's
//! peak resident set.

use std::fs;
use std::path::Path;
use std::process::Command;

use redsim_util::hash::fx64;
use redsim_util::Json;

/// Host and code identity, recorded beside every run's numbers.
pub fn identity() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = fs::read_to_string("/proc/sys/kernel/osrelease")
        .map_or_else(|_| "unknown".to_owned(), |s| s.trim().to_owned());
    // Only this checkout's own metadata: a parent directory's
    // repository would name the wrong code.
    let commit = Path::new(".git")
        .exists()
        .then(|| Command::new("git"))
        .and_then(|mut git| git.args(["rev-parse", "HEAD"]).output().ok())
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned());
    Json::obj()
        .field("nproc", nproc)
        .field("cpu", cpu)
        .field("kernel", kernel)
        .field("commit", commit.map_or(Json::Null, Json::from))
        .field("source_fx64", format!("{:016x}", source_fingerprint()))
}

/// fx64 over every manifest and Rust source of the workspace crates, in
/// path order: identifies the measured code where no git metadata is.
fn source_fingerprint() -> u64 {
    let mut files = Vec::new();
    collect(Path::new("crates"), &mut files);
    files.push(Path::new("Cargo.toml").to_path_buf());
    files.push(Path::new("Cargo.lock").to_path_buf());
    files.sort();
    let mut bytes = Vec::new();
    for f in files {
        bytes.extend_from_slice(f.to_string_lossy().as_bytes());
        bytes.push(0);
        bytes.extend(fs::read(&f).unwrap_or_default());
    }
    fx64(&bytes)
}

fn collect(dir: &Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = fs::read_dir(dir) else {
        return;
    };
    for e in entries.flatten() {
        let p = e.path();
        if p.is_dir() {
            collect(&p, out);
        } else if p.extension().is_some_and(|x| x == "rs" || x == "toml") {
            out.push(p);
        }
    }
}

/// Returns the heap memory the allocator holds free to the kernel, so
/// the resident set is what is live (glibc `malloc_trim`; elsewhere a
/// no-op).
pub fn release_free_heap() {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        extern "C" {
            fn malloc_trim(pad: usize) -> std::ffi::c_int;
        }
        // SAFETY: malloc_trim takes no pointers; it only hands free
        // pages of glibc's own arenas back to the kernel, under the
        // arenas' locks.
        unsafe {
            malloc_trim(0);
        }
    }
}

/// Restarts peak tracking: `VmHWM` drops to the current resident set
/// (best effort; kernels without the `clear_refs` mode 5 keep the
/// process-lifetime peak).
pub fn reset_peak_rss() {
    let _ = fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_mb("VmHWM:")
}

/// Current resident set of this process in MiB (`VmRSS`).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS:")
}

fn status_mb(field: &str) -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Seconds of CPU (user + system) this process has used, and seconds
/// the hypervisor stole from the host's CPUs (`/proc/stat`), both in
/// 100 Hz clock ticks.
pub fn cpu_and_steal_s() -> (f64, f64) {
    let ticks = |text: Option<String>, fields: &[usize]| -> f64 {
        text.map_or(0.0, |t| {
            let f: Vec<&str> = t.split_whitespace().collect();
            fields
                .iter()
                .filter_map(|&i| f.get(i)?.parse::<f64>().ok())
                .sum::<f64>()
                / 100.0
        })
    };
    // In /proc/self/stat the command may contain spaces; fields are
    // counted after its closing parenthesis (utime, stime = 14, 15).
    let own = fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| s.rsplit_once(')').map(|(_, rest)| rest.to_owned()));
    let steal = fs::read_to_string("/proc/stat")
        .ok()
        .and_then(|s| s.lines().next().map(str::to_owned));
    (ticks(own, &[11, 12]), ticks(steal, &[8]))
}
