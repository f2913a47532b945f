//! The host and build a result came from, so that a noisy set of runs can
//! be recognised: CPU count, toolchain, profile, source identity, and CPU
//! pressure before and after the run.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The repository root: the benchmark's package sits one level below it.
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package lives inside the repository")
        .to_path_buf()
}

/// `/proc/pressure/cpu`'s `some` line, or the load average where the
/// kernel has no pressure stall information.
pub fn cpu_pressure() -> String {
    let read = |p: &str| std::fs::read_to_string(p).ok();
    if let Some(psi) = read("/proc/pressure/cpu") {
        if let Some(line) = psi.lines().find(|l| l.starts_with("some")) {
            return format!("psi {line}");
        }
    }
    match read("/proc/loadavg") {
        Some(l) => format!("loadavg {}", l.trim()),
        None => "unavailable".to_string(),
    }
}

/// The process's peak resident set (`VmHWM`), in MiB.
pub fn peak_rss_mib() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kib| kib / 1024.0)
}

fn command_line(program: &str, args: &[&str], dir: &Path) -> Option<String> {
    let out = Command::new(program)
        .args(args)
        .current_dir(dir)
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| String::from_utf8_lossy(&out.stdout).trim().to_string())
}

/// FNV-1a over the relative path and bytes of every file under the
/// repository's `crates/` and `shims/`, in sorted order: identifies the
/// source a build came from where no git metadata exists.
fn source_digest(root: &Path) -> String {
    fn walk(dir: &Path, out: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for e in entries.flatten() {
            let p = e.path();
            if p.is_dir() {
                walk(&p, out);
            } else {
                out.push(p);
            }
        }
    }
    let mut files = Vec::new();
    walk(&root.join("crates"), &mut files);
    walk(&root.join("shims"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |bytes: &[u8]| {
        for &b in bytes {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    };
    for f in &files {
        eat(f
            .strip_prefix(root)
            .unwrap_or(f)
            .to_string_lossy()
            .as_bytes());
        eat(&std::fs::read(f).unwrap_or_default());
    }
    format!("fnv1a64:{h:016x} over {} files", files.len())
}

/// Host and build record of one run.
pub struct Host {
    /// `(key, value)` pairs, in print order.
    pub fields: Vec<(&'static str, String)>,
}

impl Host {
    /// Everything but the closing pressure reading.
    pub fn capture() -> Host {
        let root = repo_root();
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        let git = if root.join(".git").exists() {
            command_line("git", &["rev-parse", "HEAD"], &root)
        } else {
            None
        };
        let profile = if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        };
        Host {
            fields: vec![
                ("nproc", nproc.to_string()),
                (
                    "rustc",
                    command_line("rustc", &["--version"], &root)
                        .unwrap_or_else(|| "unknown".into()),
                ),
                ("profile", profile.to_string()),
                (
                    "git_commit",
                    git.unwrap_or_else(|| "none (not a git checkout)".into()),
                ),
                ("source", source_digest(&root)),
                ("cpu_pressure_before", cpu_pressure()),
            ],
        }
    }

    /// Adds the closing pressure reading.
    pub fn finish(&mut self) {
        self.fields.push(("cpu_pressure_after", cpu_pressure()));
    }

    /// The record as a JSON object.
    pub fn to_json(&self) -> String {
        let body: Vec<String> = self
            .fields
            .iter()
            .map(|(k, v)| {
                format!(
                    "\"{k}\": \"{}\"",
                    v.replace('\\', "\\\\").replace('"', "\\\"")
                )
            })
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}
