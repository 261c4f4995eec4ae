//! `revmax-served` as a child process: start it, time start-to-listening,
//! read its peak memory, and stop it — cleanly through a `Shutdown` frame,
//! or by killing it if the benchmark bails out early.

use revmax_serve::proto::{self, Request, Response};
use std::io::BufRead;
use std::net::TcpStream;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::Duration;

const START_TIMEOUT: Duration = Duration::from_secs(60);
const STOP_TIMEOUT: Duration = Duration::from_secs(10);

pub struct Served {
    child: Child,
    stdout: Option<JoinHandle<()>>,
    pub addr: String,
}

impl Served {
    /// Start `exe` with `args` and wait for its `listening on` line.
    /// Returns the daemon and its start-to-listening time.
    pub fn start(exe: &Path, args: &[String]) -> Result<(Served, Duration), String> {
        let t0 = crate::trace::now();
        let mut child = Command::new(exe)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", exe.display()))?;
        let out = child.stdout.take().expect("stdout is piped");
        let (tx, rx) = mpsc::channel::<String>();
        // Drain stdout to its end so the daemon never blocks on the pipe.
        let stdout = std::thread::spawn(move || {
            for line in std::io::BufReader::new(out).lines().map_while(Result::ok) {
                let _ = tx.send(line);
            }
        });
        let mut served = Served { child, stdout: Some(stdout), addr: String::new() };
        loop {
            let left = START_TIMEOUT.saturating_sub(t0.elapsed());
            let line = rx.recv_timeout(left).map_err(|_| {
                format!("{} printed no 'listening on' line within {START_TIMEOUT:?}", exe.display())
            })?;
            if let Some(rest) = line.split("listening on ").nth(1) {
                served.addr = rest.split_whitespace().next().unwrap_or_default().to_string();
                return Ok((served, t0.elapsed()));
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Ask for a clean shutdown and wait for the process to exit 0.
    pub fn stop(mut self) -> Result<(), String> {
        let mut stream =
            TcpStream::connect(&self.addr).map_err(|e| format!("connect {}: {e}", self.addr))?;
        match proto::roundtrip(&mut stream, &Request::Shutdown) {
            Ok(Response::Bye) => {}
            other => return Err(format!("Shutdown answered {other:?}")),
        }
        let t0 = crate::trace::now();
        loop {
            match self.child.try_wait().map_err(|e| format!("wait: {e}"))? {
                Some(status) if status.success() => break,
                Some(status) => return Err(format!("revmax-served exited with {status}")),
                None if t0.elapsed() > STOP_TIMEOUT => {
                    return Err(format!(
                        "revmax-served still running {STOP_TIMEOUT:?} after Shutdown"
                    ))
                }
                None => std::thread::sleep(Duration::from_millis(5)),
            }
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
        Ok(())
    }
}

impl Drop for Served {
    /// A daemon not stopped cleanly is killed, so no run leaves one behind.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        if let Some(h) = self.stdout.take() {
            let _ = h.join();
        }
    }
}
