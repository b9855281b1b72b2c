//! Run metadata printed with every set of results.

use crate::workload::nproc;
use roia_obs::export as json;
use std::process::Command;

/// Where and how a set of runs was made.
#[derive(Debug, Clone, PartialEq)]
pub struct RunMeta {
    /// `git rev-parse HEAD`, or `unknown` outside a work tree.
    pub git_rev: String,
    /// Host parallelism.
    pub nproc: usize,
    /// First `model name` of `/proc/cpuinfo`.
    pub cpu_model: String,
    /// `rustc --version`.
    pub rustc: String,
    /// Cargo profile the ledger was built with.
    pub profile: &'static str,
    /// The `--seed` argument.
    pub seed: u64,
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .and_then(|out| String::from_utf8(out.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

impl RunMeta {
    /// Collects the metadata (spawns `git` and `rustc`, so only the
    /// `run`/`repeat` parents call it, never a measured child).
    pub fn collect(seed: u64) -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split(':').nth(1))
                    .map(|s| s.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".to_string());
        Self {
            git_rev: command_line("git", &["rev-parse", "HEAD"]),
            nproc: nproc(),
            cpu_model,
            rustc: command_line("rustc", &["--version"]),
            profile: if cfg!(debug_assertions) {
                "debug"
            } else {
                "release"
            },
            seed,
        }
    }

    /// The metadata as JSON fields.
    pub fn to_json(&self) -> String {
        json::object(&[
            ("git_rev", json::string(&self.git_rev)),
            ("nproc", json::uint(self.nproc as u64)),
            ("cpu_model", json::string(&self.cpu_model)),
            ("rustc", json::string(&self.rustc)),
            ("profile", json::string(self.profile)),
            ("seed", json::string(&self.seed.to_string())),
        ])
    }
}
