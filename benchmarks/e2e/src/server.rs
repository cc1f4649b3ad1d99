//! The system under test as a child process, and one protocol connection.
//!
//! The child is the real `ecrpq-serve` binary. It cannot outlive the
//! benchmark: `Drop` kills and reaps it (normal exit, error return and
//! unwinding panic), and the kernel kills it if the benchmark dies any
//! other way (SIGINT, SIGKILL) through the parent-death signal.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::os::unix::process::CommandExt;
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// A reply not read within this long is a failed operation.
pub const READ_TIMEOUT: Duration = Duration::from_secs(30);

pub struct Server {
    child: Child,
    addr: String,
}

extern "C" {
    fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
}
const PR_SET_PDEATHSIG: i32 = 1;
const SIGKILL: u64 = 9;

impl Server {
    /// Starts `bin` on an ephemeral loopback port with default settings
    /// (plus `extra`, e.g. `--open`), and waits for its `listening on` line.
    pub fn spawn(bin: &Path, extra: &[String]) -> Result<Server, String> {
        let mut cmd = Command::new(bin);
        // Its stderr is only chatter here (`opened …` per `--open`); a
        // failure reaches the benchmark as an error reply or a lost child.
        cmd.args(["--addr", "127.0.0.1:0"]).args(extra);
        cmd.stdin(Stdio::null()).stdout(Stdio::piped()).stderr(Stdio::null());
        // SAFETY: the closure runs in the forked child before exec and makes
        // one async-signal-safe system call that touches no memory.
        unsafe {
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL, 0, 0, 0);
                Ok(())
            });
        }
        let mut child = cmd.spawn().map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        let mut server = Server { child, addr: String::new() };
        let mut line = String::new();
        BufReader::new(stdout).read_line(&mut line).map_err(|e| e.to_string())?;
        match line.trim().strip_prefix("listening on ") {
            Some(addr) => server.addr = addr.to_string(),
            None => {
                return Err(format!("server did not announce its port (got `{}`)", line.trim()))
            }
        }
        Ok(server)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::dial(&self.addr)
    }

    /// `VmHWM` of the child, MiB: the most memory it has held at once.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()));
        status
            .ok()
            .and_then(|s| {
                let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
                line.split_whitespace().nth(1)?.parse::<f64>().ok()
            })
            .map_or(0.0, |kib| kib / 1024.0)
    }

    /// Whether the child is still running (false once it exited or was
    /// killed, e.g. by the OOM killer).
    pub fn alive(&mut self) -> bool {
        matches!(self.child.try_wait(), Ok(None))
    }

    /// Asks the server to shut down over `conn` and waits for the process to
    /// end; a server that ignores the request is killed by `Drop`.
    pub fn shutdown(mut self, conn: &mut Conn) -> Result<(), String> {
        conn.request(&crate::gen::simple_line("shutdown"))?;
        let deadline = Instant::now() + READ_TIMEOUT;
        while Instant::now() < deadline {
            if !self.alive() {
                return Ok(());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Err("server did not exit after `shutdown`".into())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub struct Conn {
    addr: String,
    reader: BufReader<TcpStream>,
    reply: String,
    /// Set when a failed request could not be followed by a fresh dial.
    pub dead: bool,
}

impl Conn {
    fn dial(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream.set_read_timeout(Some(READ_TIMEOUT)).map_err(|e| e.to_string())?;
        Ok(Conn {
            addr: addr.to_string(),
            reader: BufReader::with_capacity(1 << 16, stream),
            reply: String::new(),
            dead: false,
        })
    }

    /// Sends one request line and reads the reply line. Returns the reply
    /// text and the round-trip time: last request byte handed to the kernel
    /// → last reply byte read. After an error (timeout, reset, EOF) the
    /// connection is dialled again, so that the next request starts clean.
    pub fn request(&mut self, line: &str) -> Result<(&str, Duration), String> {
        match self.round_trip(line) {
            Ok(rtt) => Ok((self.reply.trim_end(), rtt)),
            Err(e) => {
                match Conn::dial(&self.addr) {
                    Ok(fresh) => *self = fresh,
                    Err(_) => self.dead = true,
                }
                Err(e)
            }
        }
    }

    fn round_trip(&mut self, line: &str) -> Result<Duration, String> {
        let mut framed = Vec::with_capacity(line.len() + 1);
        framed.extend_from_slice(line.as_bytes());
        framed.push(b'\n');
        let start = Instant::now();
        self.reader.get_mut().write_all(&framed).map_err(|e| format!("send: {e}"))?;
        self.reply.clear();
        let n = self.reader.read_line(&mut self.reply).map_err(|e| format!("receive: {e}"))?;
        let rtt = start.elapsed();
        if n == 0 || !self.reply.ends_with('\n') {
            return Err("server closed the connection".into());
        }
        Ok(rtt)
    }
}
