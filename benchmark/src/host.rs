//! Host fingerprint recorded with every result, and the guard that
//! refuses to measure under a behaviour switch.

use std::process::Command;

use hpc_framework::seamless::codegen::native_available;

use crate::json::Json;

/// Environment switches that change what the crates do. A number taken
/// with one of them set is not a number of the default configuration.
pub const SWITCHES: [&str; 5] = [
    "HPC_KERNEL_TIER",
    "HPC_TRACE",
    "HPC_METRICS",
    "HPC_CRITPATH",
    "HPC_FAULT_SEED",
];

/// The switches among `SWITCHES` that `is_set` reports as present.
pub fn switches_set(is_set: impl Fn(&str) -> bool) -> Vec<&'static str> {
    SWITCHES.iter().copied().filter(|v| is_set(v)).collect()
}

fn first_line(cmd: &str, arg: &str) -> String {
    Command::new(cmd)
        .arg(arg)
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| {
            String::from_utf8_lossy(&o.stdout)
                .lines()
                .next()
                .map(str::to_string)
        })
        .unwrap_or_else(|| "unavailable".to_string())
}

fn read(path: &str) -> Option<String> {
    std::fs::read_to_string(path)
        .ok()
        .map(|s| s.trim().to_string())
}

fn cpu_model() -> String {
    read("/proc/cpuinfo")
        .and_then(|text| {
            text.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|s| s.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string())
}

/// `L1d=32K L1i=32K L2=4096K L3=266240K` from sysfs, cpu0's view.
fn caches() -> String {
    let mut out = Vec::new();
    for i in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{i}");
        let (Some(level), Some(size)) =
            (read(&format!("{dir}/level")), read(&format!("{dir}/size")))
        else {
            continue;
        };
        let kind = match read(&format!("{dir}/type")).as_deref() {
            Some("Data") => "d",
            Some("Instruction") => "i",
            _ => "",
        };
        out.push(format!("L{level}{kind}={size}"));
    }
    if out.is_empty() {
        "unknown".to_string()
    } else {
        out.join(" ")
    }
}

pub fn fingerprint() -> Json {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj(vec![
        ("nproc", Json::Int(nproc as u64)),
        ("cpu_model", Json::Str(cpu_model())),
        ("caches", Json::Str(caches())),
        ("rustc", Json::Str(first_line("rustc", "--version"))),
        ("cc", Json::Str(first_line("cc", "--version"))),
        ("native_available", Json::Bool(native_available())),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guard_names_every_switch_that_is_set() {
        assert!(switches_set(|_| false).is_empty());
        assert_eq!(switches_set(|v| v == "HPC_TRACE"), vec!["HPC_TRACE"]);
        assert_eq!(switches_set(|_| true).len(), SWITCHES.len());
    }

    #[test]
    fn fingerprint_is_valid_json() {
        hpc_framework::obs::json::validate(&fingerprint().to_text()).unwrap();
    }
}
