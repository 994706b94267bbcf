//! Host context recorded with every result, so figures from different
//! hosts are never compared silently.

use std::path::Path;

use crate::Ctx;

/// CPUs the kernel reports online (`nproc` without affinity limits).
fn online_cpus() -> Option<usize> {
    let text = std::fs::read_to_string("/sys/devices/system/cpu/online").ok()?;
    let mut n = 0;
    for part in text.trim().split(',') {
        n += match part.split_once('-') {
            Some((a, b)) => b.parse::<usize>().ok()? - a.parse::<usize>().ok()? + 1,
            None => {
                part.parse::<usize>().ok()?;
                1
            }
        };
    }
    Some(n)
}

/// File-system type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> String {
    let Ok(path) = path.canonicalize() else {
        return "unknown".into();
    };
    let Ok(mounts) = std::fs::read_to_string("/proc/mounts") else {
        return "unknown".into();
    };
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, point, kind) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or("unknown".into(), |(_, kind)| kind)
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

pub fn context(ctx: &Ctx) -> Vec<(&'static str, String)> {
    let available = std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get);
    vec![
        (
            "nproc",
            online_cpus().map_or("unknown".into(), |n| n.to_string()),
        ),
        ("available_parallelism", available.to_string()),
        ("parallelism", format!("{:?}", ctx.parallelism())),
        ("work_fs", fs_type(&ctx.work)),
        ("os", std::env::consts::OS.to_string()),
        ("arch", std::env::consts::ARCH.to_string()),
    ]
}

/// The context as one JSON object.
pub fn json(pairs: &[(&'static str, String)]) -> String {
    let body: Vec<String> = pairs
        .iter()
        .map(|(k, v)| {
            format!(
                "\"{k}\":\"{}\"",
                v.replace('\\', "\\\\").replace('"', "\\\"")
            )
        })
        .collect();
    format!("{{{}}}", body.join(","))
}
