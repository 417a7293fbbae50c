//! Host fingerprint and process memory: what a result must be stamped with so that
//! runs from different machines or builds are never compared.

use renaissance_bench::report::Json;
use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the benchmark package sits one level below it.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .map(Path::to_path_buf)
        .unwrap_or_else(|| PathBuf::from("."))
}

/// CPU model, core count, compiler, source revision, and the CPU the run was
/// pinned to (`null` when unpinned).
pub fn fingerprint(pinned: Option<usize>) -> Json {
    Json::obj([
        ("cpu", Json::str(cpu_model())),
        ("nproc", Json::num(nproc() as f64)),
        ("rustc", Json::str(rustc_version())),
        ("commit", Json::str(revision())),
        (
            "pinned_cpu",
            pinned.map_or(Json::Null, |c| Json::num(c as f64)),
        ),
    ])
}

/// Online CPUs of the host (not of this process's affinity mask).
fn nproc() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|info| info.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(1)
        .max(1)
}

/// Pins the calling thread, and every thread it spawns afterwards, to the CPU it is
/// running on, and returns that CPU (`None` when the kernel refuses).
///
/// A closed-loop client and the server threads it waits on then hand off on one
/// CPU: each wake-up finds the CPU running instead of waking an idle one, whose
/// latency on a shared virtual machine swings with the neighbours' load. The
/// single-threaded workloads lose nothing and stop migrating between CPUs.
pub fn pin_to_current_cpu() -> Option<usize> {
    extern "C" {
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
    let stat = std::fs::read_to_string("/proc/thread-self/stat").ok()?;
    // Field 39, `processor`, counted from the first field after the command name
    // (field 3).
    let cpu: usize = stat
        .rsplit_once(')')?
        .1
        .split_whitespace()
        .nth(39 - 3)?
        .parse()
        .ok()?;
    let mut mask = [0u64; 16];
    *mask.get_mut(cpu / 64)? |= 1 << (cpu % 64);
    // SAFETY: `mask` is an initialised array that outlives the call, and the size
    // passed is its exact size in bytes; pid 0 names the calling thread.
    let rc = unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    (rc == 0).then_some(cpu)
}

fn cpu_model() -> String {
    std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|info| {
            info.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

fn rustc_version() -> String {
    Command::new("rustc")
        .arg("-V")
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string())
}

/// The git commit when the sources are a git checkout; otherwise a hash of the
/// sources the benchmark compiles (`tree-<fnv64>`), which identifies the code just
/// as well in an exported tree.
fn revision() -> String {
    let root = repo_root();
    let git = root.join(".git").exists().then(|| {
        Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    });
    git.flatten().unwrap_or_else(|| {
        let mut files = Vec::new();
        for dir in ["crates", "perfbench"] {
            collect_sources(&root.join(dir), &mut files);
        }
        files.sort();
        let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
        for file in files {
            let bytes = std::fs::read(&file).unwrap_or_default();
            for b in file.to_string_lossy().bytes().chain(bytes) {
                hash ^= u64::from(b);
                hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
            }
        }
        format!("tree-{hash:016x}")
    })
}

fn collect_sources(dir: &Path, out: &mut Vec<PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        let Ok(kind) = entry.file_type() else {
            continue;
        };
        if kind.is_dir() {
            collect_sources(&path, out);
        } else if matches!(
            path.extension().and_then(|e| e.to_str()),
            Some("rs" | "toml")
        ) {
            out.push(path);
        }
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}
