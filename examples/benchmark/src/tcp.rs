//! The shipped `serve` binary as a child process, and the closed-loop
//! clients that drive it over TCP.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStderr, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

use rlc_obs::json::{self, Value};

use crate::gen::{Req, Workload, WARMUP_PER_CONN};

/// Linux's `USER_HZ`: the unit of the CPU times in `/proc/<pid>/stat`.
pub const CLOCK_TICKS_PER_S: u64 = 100;
/// Window responses per connection kept for the oracle.
pub const SAMPLES_PER_CONN: usize = 128;
/// No single reply may take longer; a hung server fails the run instead
/// of stalling it.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// A running `serve --listen` child. Dropping it kills the process and
/// waits for it, so no error path leaves one behind.
pub struct Serve {
    child: Child,
    /// Held open so the daemon never writes into a closed pipe.
    _stderr: Option<BufReader<ChildStderr>>,
    addr: SocketAddr,
}

impl Serve {
    /// Starts `bin` on an ephemeral port and waits for its "listening" line.
    pub fn spawn(bin: &Path) -> Result<Self, String> {
        let child = Command::new(bin)
            .args([
                "--listen",
                "127.0.0.1:0",
                "--workers",
                "2",
                "--queue",
                "64",
                "--cache-capacity",
                "128",
            ])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut serve = Serve {
            child,
            _stderr: None,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
        };
        let mut stderr = BufReader::new(serve.child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        stderr
            .read_line(&mut line)
            .map_err(|e| format!("reading the listening line: {e}"))?;
        serve.addr = line
            .trim()
            .strip_prefix("rlc-serve/1 listening on ")
            .and_then(|addr| addr.parse().ok())
            .ok_or_else(|| format!("unexpected first line from serve: {line:?}"))?;
        serve._stderr = Some(stderr);
        Ok(serve)
    }

    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(self.addr).map_err(|e| format!("connecting to {}: {e}", self.addr))
    }

    /// Sends one control verb on a fresh connection and returns the reply.
    fn control(&self, verb: &str) -> Result<String, String> {
        self.connect()?
            .roundtrip(format!("{verb}\n").as_bytes())
            .map_err(|e| format!("{verb}: {e}"))
    }

    /// The server's cumulative `rlc-trace/1` report.
    pub fn metrics(&self) -> Result<Value, String> {
        let line = self.control("metrics")?;
        json::parse(&line)
            .ok()
            .and_then(|doc| doc.get("report").cloned())
            .ok_or_else(|| format!("metrics reply is not a report: {}", clip(&line)))
    }

    /// User plus system CPU time of the process so far, in clock ticks.
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let stat = std::fs::read_to_string(format!("/proc/{}/stat", self.child.id()))
            .map_err(|e| format!("reading /proc stat: {e}"))?;
        // Fields after the parenthesised command name start at field 3;
        // utime and stime are fields 14 and 15.
        let fields: Vec<&str> = stat
            .rsplit_once(')')
            .map(|(_, rest)| rest.split_whitespace().collect())
            .unwrap_or_default();
        let field = |i: usize| fields.get(i - 3).and_then(|f| f.parse::<u64>().ok());
        field(14)
            .zip(field(15))
            .map(|(user, system)| user + system)
            .ok_or_else(|| format!("malformed /proc stat: {stat}"))
    }

    /// Peak resident set size (`VmHWM`), in KiB.
    pub fn peak_rss_kb(&self) -> Result<u64, String> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))
            .map_err(|e| format!("reading /proc status: {e}"))?;
        status
            .lines()
            .find_map(|line| line.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
            .ok_or_else(|| "no VmHWM in /proc status".to_owned())
    }

    /// Sends `shutdown` and waits for the process to exit. Returns the
    /// shutdown reply and the stats line the daemon printed on its way out.
    pub fn shutdown(mut self) -> Result<(String, String), String> {
        let reply = self.control("shutdown")?;
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => break,
                Ok(Some(status)) => return Err(format!("serve exited with {status}")),
                Ok(None) if Instant::now() < deadline => thread::sleep(Duration::from_millis(5)),
                Ok(None) => return Err("serve did not exit after shutdown".into()),
                Err(e) => return Err(format!("waiting for serve: {e}")),
            }
        }
        let mut printed = String::new();
        if let Some(stdout) = self.child.stdout.as_mut() {
            stdout
                .read_to_string(&mut printed)
                .map_err(|e| format!("reading serve stdout: {e}"))?;
        }
        Ok((reply, printed.trim_end().to_owned()))
    }
}

impl Drop for Serve {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// One client connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    fn open(addr: SocketAddr) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        // Each request goes out as one write, so this changes nothing in
        // the closed loop; it keeps the pipelined warm-up from waiting on
        // the client's own Nagle timer. The server's sockets are untouched.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(REPLY_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    fn roundtrip(&mut self, wire: &[u8]) -> io::Result<String> {
        self.writer.write_all(wire)?;
        read_reply(&mut self.reader)
    }
}

fn read_reply(reader: &mut BufReader<TcpStream>) -> io::Result<String> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "server closed the connection",
        ));
    }
    if line.pop() != Some('\n') {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "reply cut short",
        ));
    }
    Ok(line)
}

/// A response, shortened for an error message.
pub fn clip(line: &str) -> String {
    line.chars().take(160).collect()
}

/// A served and warmed daemon with its client connections.
pub struct Setup {
    pub serve: Serve,
    pub conns: Vec<Conn>,
    pub elapsed: Duration,
}

/// Spawns `serve`, connects one client per warm-up stream and sends each
/// stream pipelined. Set-up time runs from the spawn to the last warm-up
/// reply. Pipelining makes it measure the server's work: a closed loop
/// would wait out the reply stall on every warm-up request.
pub fn setup(bin: &Path, warmup: &[Vec<Req>]) -> Result<Setup, String> {
    let start = Instant::now();
    let serve = Serve::spawn(bin)?;
    let mut conns = warmup
        .iter()
        .map(|_| serve.connect())
        .collect::<Result<Vec<_>, _>>()?;
    thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .zip(warmup)
            .map(|(conn, reqs)| s.spawn(move || pipeline(conn, reqs)))
            .collect();
        clients
            .into_iter()
            .try_for_each(|c| c.join().expect("warm-up client panicked"))
    })?;
    Ok(Setup {
        serve,
        conns,
        elapsed: start.elapsed(),
    })
}

fn pipeline(conn: &mut Conn, reqs: &[Req]) -> Result<(), String> {
    let Conn { reader, writer } = conn;
    thread::scope(|s| {
        let sender = s.spawn(move || reqs.iter().try_for_each(|r| writer.write_all(&r.wire)));
        let mut checked = Ok(());
        for req in reqs {
            match read_reply(reader) {
                Ok(line) if req.accepts(&line) => {}
                Ok(line) => {
                    checked = Err(format!(
                        "warm-up {}: unexpected reply {}",
                        req.name,
                        clip(&line)
                    ));
                    break;
                }
                Err(e) => {
                    checked = Err(format!("warm-up {}: {e}", req.name));
                    break;
                }
            }
        }
        let sent = sender.join().expect("warm-up sender panicked");
        checked.and(sent.map_err(|e| format!("sending warm-up: {e}")))
    })
}

/// What the closed loop saw.
#[derive(Default)]
pub struct Window {
    /// From the start to the last reply.
    pub elapsed: Duration,
    pub latencies_ns: Vec<u64>,
    pub attempted: u64,
    pub failed: u64,
    pub samples: Vec<(Req, String)>,
    pub errors: Vec<String>,
}

/// Runs one closed-loop client per connection for `seconds`: each sends
/// its next request only after the previous reply. The window ends at the
/// last reply, so requests in flight at the deadline are completed and
/// counted.
pub fn closed_loop(conns: &mut [Conn], workload: &Workload, seconds: u64) -> Window {
    let start = Instant::now();
    let deadline = start + Duration::from_secs(seconds);
    thread::scope(|s| {
        let clients: Vec<_> = conns
            .iter_mut()
            .enumerate()
            .map(|(c, conn)| s.spawn(move || drive(conn, workload, c, start, deadline)))
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client panicked"))
            .fold(Window::default(), |mut all, w| {
                all.elapsed = all.elapsed.max(w.elapsed);
                all.latencies_ns.extend(w.latencies_ns);
                all.attempted += w.attempted;
                all.failed += w.failed;
                all.samples.extend(w.samples);
                all.errors.extend(w.errors);
                all
            })
    })
}

fn drive(
    conn: &mut Conn,
    workload: &Workload,
    c: usize,
    start: Instant,
    deadline: Instant,
) -> Window {
    let mut w = Window::default();
    let mut i = WARMUP_PER_CONN;
    while Instant::now() < deadline {
        let req = workload.request(c, i);
        i += 1;
        let sent = Instant::now();
        let reply = conn.roundtrip(&req.wire);
        let end = Instant::now();
        w.elapsed = end - start;
        w.attempted += 1;
        match reply {
            Err(e) => {
                // The stream can no longer be trusted to frame replies.
                w.failed += 1;
                w.errors.push(format!("{}: {e}", req.name));
                break;
            }
            Ok(line) => {
                w.latencies_ns
                    .push(u64::try_from((end - sent).as_nanos()).unwrap_or(u64::MAX));
                if !req.accepts(&line) {
                    w.failed += 1;
                    w.errors
                        .push(format!("{}: unexpected reply {}", req.name, clip(&line)));
                }
                if w.samples.len() < SAMPLES_PER_CONN {
                    w.samples.push((req, line));
                }
            }
        }
    }
    w
}
