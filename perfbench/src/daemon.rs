//! The daemon under test, run as a child process of the benchmark: the
//! benchmark binary re-executes itself as `perfbench serve`, which hosts a
//! `ScheduleService` behind an `HttpServer` with the shipped defaults (one
//! solver thread, one portfolio thread) and serves until its stdin closes.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, Command, Stdio};
use std::sync::Arc;
use std::time::{Duration, Instant};
use tessel_service::{HttpServer, ScheduleService, ServerConfig, ServiceConfig};

/// Entry point of `perfbench serve [--journal PATH]`.
pub fn serve(args: &[String]) -> Result<(), String> {
    let mut config = ServiceConfig::default();
    match args {
        [] => {}
        [flag, path] if flag == "--journal" => config.cache_path = Some(PathBuf::from(path)),
        _ => return Err(format!("serve: unexpected arguments {args:?}")),
    }
    let service = ScheduleService::new(config).map_err(|e| format!("service: {e}"))?;
    let server_config = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    let server =
        HttpServer::serve(Arc::new(service), &server_config).map_err(|e| format!("bind: {e}"))?;
    let mut stdout = std::io::stdout();
    writeln!(stdout, "listening {}", server.local_addr()).map_err(|e| e.to_string())?;
    stdout.flush().map_err(|e| e.to_string())?;
    // Serve until the parent closes our stdin (or dies).
    let _ = std::io::stdin().read_to_end(&mut Vec::new());
    server.shutdown();
    Ok(())
}

/// A running daemon child process. Dropping it stops the child and waits
/// for it.
#[derive(Debug)]
pub struct Daemon {
    child: Child,
    stdin: Option<ChildStdin>,
    addr: String,
}

impl Daemon {
    /// Starts a daemon and waits until it answers `GET /healthz`.
    pub fn start(journal: Option<&Path>) -> Result<Daemon, String> {
        let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
        let mut command = Command::new(exe);
        command.arg("serve");
        if let Some(path) = journal {
            command.arg("--journal").arg(path);
        }
        // The daemon logs one line per request at its default level, as
        // `tessel-server` does; the benchmark discards them.
        let mut child = command
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .stderr(Stdio::null())
            .spawn()
            .map_err(|e| format!("spawn daemon: {e}"))?;
        let stdin = child.stdin.take();
        let stdout = child.stdout.take().expect("stdout is piped");
        let mut daemon = Daemon {
            child,
            stdin,
            addr: String::new(),
        };
        let mut line = String::new();
        BufReader::new(stdout)
            .read_line(&mut line)
            .map_err(|e| format!("read daemon address: {e}"))?;
        daemon.addr = line
            .trim()
            .strip_prefix("listening ")
            .ok_or_else(|| format!("daemon did not start: {line:?}"))?
            .to_string();
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            match tessel_service::http::http_call(&daemon.addr, "GET", "/healthz", None) {
                Ok((200, _)) => return Ok(daemon),
                _ if Instant::now() < deadline => std::thread::sleep(Duration::from_millis(2)),
                other => return Err(format!("daemon not healthy: {other:?}")),
            }
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// Peak resident set size of the daemon process so far, in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map(|kib| kib / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the daemon to shut down and waits for it.
    pub fn stop(mut self) -> Result<(), String> {
        self.stdin.take();
        let status = self.child.wait().map_err(|e| format!("wait daemon: {e}"))?;
        if status.success() {
            Ok(())
        } else {
            Err(format!("daemon exited with {status}"))
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if self.stdin.take().is_some() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}
