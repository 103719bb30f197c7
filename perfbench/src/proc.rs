//! Running the shipped CLI: `phe build` to completion and `phe serve` as
//! a child that is always stopped and waited for, on every exit path.

use std::fs::File;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Runs `phe <args>` to completion with its output in `dir`.
pub fn run(phe: &Path, dir: &Path, name: &str, args: &[&str]) -> Result<(), String> {
    let out = dir.join(format!("{name}.out"));
    let err = dir.join(format!("{name}.err"));
    let status = Command::new(phe)
        .args(args)
        .current_dir(dir)
        .stdout(file(&out)?)
        .stderr(file(&err)?)
        .status()
        .map_err(|e| format!("starting {}: {e}", phe.display()))?;
    if status.success() {
        Ok(())
    } else {
        Err(format!(
            "phe {} failed ({status}):\n{}",
            args.join(" "),
            std::fs::read_to_string(&err).unwrap_or_default()
        ))
    }
}

fn file(path: &Path) -> Result<File, String> {
    File::create(path).map_err(|e| format!("creating {}: {e}", path.display()))
}

/// `(steal, total)` CPU ticks of this machine since boot, from
/// `/proc/stat` (zeros where it cannot be read): across a window, the
/// share of CPU time the hypervisor gave to other guests.
pub fn cpu_ticks() -> (f64, f64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let ticks: Vec<f64> = stat
        .lines()
        .next()
        .unwrap_or("")
        .split_whitespace()
        .skip(1)
        .filter_map(|v| v.parse().ok())
        .collect();
    (ticks.get(7).copied().unwrap_or(0.0), ticks.iter().sum())
}

/// A running `phe serve`.
pub struct Server {
    child: Child,
    pub addr: String,
    err: PathBuf,
}

impl Server {
    /// Starts `phe serve <args> --addr 127.0.0.1:0` and waits until it
    /// names the port it listens on.
    pub fn start(phe: &Path, dir: &Path, args: &[&str]) -> Result<Server, String> {
        let out = dir.join("serve.out");
        let err = dir.join("serve.err");
        let child = Command::new(phe)
            .arg("serve")
            .args(args)
            .args(["--addr", "127.0.0.1:0"])
            .current_dir(dir)
            .stdin(Stdio::null())
            .stdout(file(&out)?)
            .stderr(file(&err)?)
            .spawn()
            .map_err(|e| format!("starting phe serve: {e}"))?;
        eprintln!("perfbench: phe serve pid {}", child.id());
        let mut server = Server {
            child,
            addr: String::new(),
            err,
        };
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let text = std::fs::read_to_string(&out).unwrap_or_default();
            if let Some(addr) = text
                .lines()
                .find(|l| l.starts_with("serving "))
                .and_then(|l| l.split(" on ").nth(1))
                .and_then(|rest| rest.split_whitespace().next())
            {
                server.addr = addr.to_owned();
                return Ok(server);
            }
            if let Ok(Some(status)) = server.child.try_wait() {
                return Err(format!("phe serve exited ({status}):\n{}", server.stderr()));
            }
            if Instant::now() > deadline {
                return Err(format!("phe serve named no address:\n{}", server.stderr()));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn stderr(&self) -> String {
        std::fs::read_to_string(&self.err).unwrap_or_default()
    }

    /// Peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mib(&self) -> Result<f64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()))
            .map_err(|e| format!("reading server status: {e}"))?;
        let kib: f64 = status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.split_whitespace().next())
            .and_then(|v| v.parse().ok())
            .ok_or("no VmHWM in server status")?;
        Ok(kib / 1024.0)
    }

    /// User plus system CPU time the server has used, in seconds (clock
    /// ticks of 1/100 s, Linux's fixed `USER_HZ`).
    pub fn cpu_seconds(&self) -> Result<f64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.pid()))
            .map_err(|e| format!("reading server stat: {e}"))?;
        // Fields after the parenthesised command name; utime and stime
        // are fields 14 and 15 of the whole line.
        let rest = stat.rsplit_once(')').ok_or("malformed stat")?.1;
        let fields: Vec<&str> = rest.split_whitespace().collect();
        let ticks = |i: usize| -> Result<f64, String> {
            fields
                .get(i)
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| "malformed stat".to_owned())
        };
        Ok((ticks(11)? + ticks(12)?) / 100.0)
    }

    /// Stops the server and waits for it.
    pub fn stop(mut self) {
        self.kill();
    }

    fn kill(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.kill();
    }
}
