//! The runner fingerprint printed with every result, so figures from
//! different machines are never compared as if they were one.

use std::path::Path;

/// Facts about the runner a result depends on.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Fingerprint {
    /// CPUs this process may run on (what `nproc` prints).
    pub nproc: usize,
    /// `model name` of the first CPU in `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `std::thread::available_parallelism()`.
    pub available_parallelism: usize,
    /// `WBSN_THREADS`, when set in the environment.
    pub wbsn_threads: Option<String>,
    /// Commit of the checkout, when it is a git work tree.
    pub git_revision: String,
}

impl Fingerprint {
    /// Reads the fingerprint of this process on this machine; `root` is
    /// the checkout the benchmark runs from.
    #[must_use]
    pub fn capture(root: &Path) -> Self {
        let available_parallelism =
            std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        Self {
            nproc: allowed_cpus().unwrap_or(available_parallelism),
            cpu_model: cpu_model().unwrap_or_else(|| "unknown".to_string()),
            available_parallelism,
            wbsn_threads: std::env::var("WBSN_THREADS").ok(),
            git_revision: git_revision(root).unwrap_or_else(|| "unknown".to_string()),
        }
    }

    /// One-line JSON rendering.
    #[must_use]
    pub fn json(&self) -> String {
        let threads = self
            .wbsn_threads
            .as_ref()
            .map_or_else(|| "null".to_string(), |v| format!("\"{}\"", escape(v)));
        format!(
            r#"{{"nproc": {}, "cpu_model": "{}", "available_parallelism": {}, "wbsn_threads_set": {}, "wbsn_threads": {}, "git_revision": "{}"}}"#,
            self.nproc,
            escape(&self.cpu_model),
            self.available_parallelism,
            self.wbsn_threads.is_some(),
            threads,
            escape(&self.git_revision)
        )
    }
}

fn escape(s: &str) -> String {
    s.chars()
        .filter(|c| !c.is_control())
        .flat_map(|c| match c {
            '"' | '\\' => vec!['\\', c],
            _ => vec![c],
        })
        .collect()
}

/// Size of the CPU affinity mask (`Cpus_allowed_list` in
/// `/proc/self/status`), which is what `nproc` counts.
fn allowed_cpus() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status.lines().find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?.trim();
    let mut count = 0;
    for part in list.split(',').filter(|p| !p.is_empty()) {
        count += if let Some((a, b)) = part.split_once('-') {
            b.parse::<usize>().ok()?.checked_sub(a.parse::<usize>().ok()?)? + 1
        } else {
            part.parse::<usize>().ok()?;
            1
        };
    }
    (count > 0).then_some(count)
}

fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, v)| v.trim().to_string())
}

/// Resolves `HEAD` by reading `.git` directly (no subprocess).
fn git_revision(root: &Path) -> Option<String> {
    let git = root.join(".git");
    let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return Some(head.to_string());
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return Some(rev.trim().to_string());
    }
    let packed = std::fs::read_to_string(git.join("packed-refs")).ok()?;
    packed.lines().find_map(|l| {
        let (rev, name) = l.split_once(' ')?;
        (name == reference).then(|| rev.to_string())
    })
}
