//! Transport for the daemon protocol: TCP or Unix-domain sockets.
//!
//! An endpoint spec containing a `/` names a Unix socket path;
//! anything else is a TCP address (`host:port`). The server blocks in
//! `accept` and handles each connection on its own thread. A `shutdown`
//! request raises the service's flag and then connects once to the
//! listener's own address, which wakes the blocked `accept` so the loop
//! sees the flag at once; in-flight connections (including jobs still
//! executing after an un-waited `submit`) are drained before [`serve`]
//! returns.

use crate::proto::{Request, Response, PROTO_VERSION};
use crate::service::{JobState, SweepService};
use std::io::{Read, Write};
use std::net::{Ipv4Addr, Ipv6Addr, Shutdown, SocketAddr, TcpListener, TcpStream};
#[cfg(unix)]
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::Arc;

/// Where a daemon listens (or a client connects).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// A TCP address, e.g. `127.0.0.1:7070`.
    Tcp(String),
    /// A Unix-domain socket path.
    Unix(PathBuf),
}

impl Endpoint {
    /// Parses an endpoint spec: anything containing a `/` is a Unix
    /// socket path, anything else a TCP address.
    pub fn parse(spec: &str) -> Endpoint {
        if spec.contains('/') {
            Endpoint::Unix(PathBuf::from(spec))
        } else {
            Endpoint::Tcp(spec.to_string())
        }
    }
}

impl std::fmt::Display for Endpoint {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Endpoint::Tcp(addr) => write!(f, "{addr}"),
            Endpoint::Unix(path) => write!(f, "{}", path.display()),
        }
    }
}

enum Listener {
    Tcp(TcpListener),
    #[cfg(unix)]
    Unix(UnixListener),
}

pub(crate) enum Conn {
    Tcp(TcpStream),
    #[cfg(unix)]
    Unix(UnixStream),
}

impl Conn {
    pub(crate) fn shutdown_write(&self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.shutdown(Shutdown::Write),
            #[cfg(unix)]
            Conn::Unix(s) => s.shutdown(Shutdown::Write),
        }
    }
}

impl Read for Conn {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.read(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.read(buf),
        }
    }
}

impl Write for Conn {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        match self {
            Conn::Tcp(s) => s.write(buf),
            #[cfg(unix)]
            Conn::Unix(s) => s.write(buf),
        }
    }

    fn flush(&mut self) -> std::io::Result<()> {
        match self {
            Conn::Tcp(s) => s.flush(),
            #[cfg(unix)]
            Conn::Unix(s) => s.flush(),
        }
    }
}

fn bind(endpoint: &Endpoint) -> std::io::Result<Listener> {
    match endpoint {
        Endpoint::Tcp(addr) => Ok(Listener::Tcp(TcpListener::bind(addr.as_str())?)),
        #[cfg(unix)]
        Endpoint::Unix(path) => {
            // A stale socket file from a previous daemon blocks bind.
            let _ = std::fs::remove_file(path);
            Ok(Listener::Unix(UnixListener::bind(path)?))
        }
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

impl Listener {
    fn accept(&self) -> std::io::Result<Conn> {
        match self {
            Listener::Tcp(l) => l.accept().map(|(s, _)| Conn::Tcp(s)),
            #[cfg(unix)]
            Listener::Unix(l) => l.accept().map(|(s, _)| Conn::Unix(s)),
        }
    }

    /// Where a connect reaches this listener: the bound TCP address (so
    /// a `:0` bind yields its assigned port, and an unspecified host the
    /// loopback address) or the Unix socket path `endpoint` named.
    fn wake_endpoint(&self, endpoint: &Endpoint) -> std::io::Result<Endpoint> {
        match self {
            Listener::Tcp(l) => {
                let mut addr = l.local_addr()?;
                if addr.ip().is_unspecified() {
                    addr.set_ip(match addr {
                        SocketAddr::V4(_) => Ipv4Addr::LOCALHOST.into(),
                        SocketAddr::V6(_) => Ipv6Addr::LOCALHOST.into(),
                    });
                }
                Ok(Endpoint::Tcp(addr.to_string()))
            }
            #[cfg(unix)]
            Listener::Unix(_) => Ok(endpoint.clone()),
        }
    }
}

/// Runs the accept loop until a `shutdown` request arrives. The loop
/// blocks in `accept` and checks the service's shutdown flag each time
/// it returns; the `shutdown` handler raises the flag and then connects
/// once to the listener's own address to wake it. That connection is
/// dropped unserved. (Raising the flag with
/// [`SweepService::request_shutdown`] alone takes effect at the next
/// connection.) Each connection is handled on its own thread; on exit,
/// in-flight handlers are joined, the cache index is saved, and a Unix
/// socket file is removed.
///
/// # Errors
///
/// Binding or accepting failures.
pub fn serve(service: &Arc<SweepService>, endpoint: &Endpoint) -> std::io::Result<()> {
    let listener = bind(endpoint)?;
    let wake = Arc::new(listener.wake_endpoint(endpoint)?);
    let mut handlers: Vec<std::thread::JoinHandle<()>> = Vec::new();
    let result = loop {
        let conn = match listener.accept() {
            Ok(conn) => conn,
            Err(e) => break Err(e),
        };
        if service.shutdown_requested() {
            break Ok(());
        }
        let svc = Arc::clone(service);
        let wake = Arc::clone(&wake);
        handlers.push(std::thread::spawn(move || handle(&svc, &wake, conn)));
        handlers.retain(|h| !h.is_finished());
    };
    for h in handlers {
        let _ = h.join();
    }
    let _ = service.save_cache();
    if let Endpoint::Unix(path) = endpoint {
        let _ = std::fs::remove_file(path);
    }
    result
}

/// Connects to an endpoint (client side).
pub(crate) fn connect(endpoint: &Endpoint) -> std::io::Result<Conn> {
    match endpoint {
        Endpoint::Tcp(addr) => Ok(Conn::Tcp(TcpStream::connect(addr.as_str())?)),
        #[cfg(unix)]
        Endpoint::Unix(path) => Ok(Conn::Unix(UnixStream::connect(path)?)),
        #[cfg(not(unix))]
        Endpoint::Unix(_) => Err(std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "unix sockets are not available on this platform",
        )),
    }
}

/// Reads up to (and including) the first newline. The job protocol's
/// pretty-printed requests put only `{` on their first line; the sync
/// protocol's requests are complete single-line JSON documents — so
/// the first line alone decides the dispatch path, and a sync body's
/// binary bytes are never consumed by accident.
pub(crate) fn read_line(conn: &mut impl Read, line: &mut String) -> std::io::Result<()> {
    let mut bytes = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        match conn.read(&mut byte) {
            Ok(0) => break,
            Ok(_) => {
                bytes.push(byte[0]);
                if byte[0] == b'\n' {
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    line.push_str(
        std::str::from_utf8(&bytes)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?,
    );
    Ok(())
}

/// Reads one request, answers it, then performs any deferred work (an
/// un-waited `submit` runs its job *after* the response is on the
/// wire, so the client is never blocked on simulation it didn't ask to
/// wait for). `wake` is the listener's own address (see [`serve`]).
fn handle(service: &Arc<SweepService>, wake: &Endpoint, mut conn: Conn) {
    let mut text = String::new();
    if read_line(&mut conn, &mut text).is_err() {
        return;
    }
    // A complete single-line JSON document with a `sync-*` cmd is a
    // corpus-sync exchange: it keeps the connection (the request or
    // response carries a binary trace body after the JSON line).
    if let Some(request) = crate::sync::parse_request(&text) {
        crate::sync::serve_sync(service, &mut conn, &request);
        return;
    }
    if conn.read_to_string(&mut text).is_err() {
        return;
    }
    let (response, run_after) = dispatch(service, wake, &text);
    let body = serde_json::to_string_pretty(&response)
        .unwrap_or_else(|_| "{\"v\":1,\"ok\":false}".to_string());
    let _ = conn.write_all(body.as_bytes());
    let _ = conn.write_all(b"\n");
    let _ = conn.flush();
    drop(conn);
    if let Some(id) = run_after {
        service.run(id);
    }
}

/// Parses and executes one request. Returns the response plus the id of
/// a job to run after replying (un-waited submits).
fn dispatch(service: &Arc<SweepService>, wake: &Endpoint, text: &str) -> (Response, Option<u64>) {
    let request: Request = match serde_json::from_str(text) {
        Ok(r) => r,
        Err(e) => return (Response::failure(format!("bad request: {e}")), None),
    };
    if request.v != PROTO_VERSION {
        return (
            Response::failure(format!(
                "protocol version {} unsupported (this daemon speaks {PROTO_VERSION})",
                request.v
            )),
            None,
        );
    }
    match request.cmd.as_str() {
        "ping" => (Response::success(), None),
        "submit" => {
            let Some(plan) = request.plan else {
                return (Response::failure("submit needs a plan"), None);
            };
            match service.submit(plan) {
                Err(e) => (Response::failure(e.to_string()), None),
                Ok(id) if request.wait => {
                    service.run(id);
                    finished(service, id)
                }
                Ok(id) => {
                    let mut r = Response::success();
                    r.job = Some(id);
                    r.status = service.status(id);
                    (r, Some(id))
                }
            }
        }
        "status" => match request.job {
            Some(id) => match service.status(id) {
                Some(status) => {
                    let mut r = Response::success();
                    r.job = Some(id);
                    r.status = Some(status);
                    (r, None)
                }
                None => (Response::failure(format!("unknown job {id}")), None),
            },
            None => {
                let mut r = Response::success();
                r.jobs = Some(service.statuses());
                (r, None)
            }
        },
        "result" => match request.job {
            Some(id) => finished(service, id),
            None => (Response::failure("result needs a job id"), None),
        },
        "cache-stats" => {
            let (stats, entries) = service.cache_stats();
            let mut r = Response::success();
            r.cache = Some(stats);
            r.cache_entries = Some(entries as u64);
            (r, None)
        }
        "cache-gc" => match service.cache_gc(request.max_bytes, request.max_age_days) {
            Ok(report) => {
                let mut r = Response::success();
                r.gc = Some(report);
                (r, None)
            }
            Err(e) => (Response::failure(e.to_string()), None),
        },
        "shutdown" => {
            service.request_shutdown();
            // Wake the accept loop; it sees the flag and stops.
            let _ = connect(wake);
            (Response::success(), None)
        }
        other => (
            Response::failure(format!("unknown command `{other}`")),
            None,
        ),
    }
}

/// Waits for a job's terminal state and builds the response carrying
/// its status and (when done) its merged grid.
fn finished(service: &Arc<SweepService>, id: u64) -> (Response, Option<u64>) {
    let Some((status, merged)) = service.wait(id) else {
        return (Response::failure(format!("unknown job {id}")), None);
    };
    let failed = status.state == JobState::Failed;
    let mut r = if failed {
        Response::failure(
            status
                .error
                .clone()
                .unwrap_or_else(|| format!("job {id} failed")),
        )
    } else {
        Response::success()
    };
    r.job = Some(id);
    r.status = Some(status);
    r.merged = merged;
    (r, None)
}

/// Sends one request to a daemon and returns its response: connect,
/// write the request, shut down the write half, read the reply to EOF.
///
/// # Errors
///
/// Connection/IO failures, or `InvalidData` when the reply is not a
/// parsable [`Response`].
pub fn request(endpoint: &Endpoint, request: &Request) -> std::io::Result<Response> {
    let mut conn = connect(endpoint)?;
    let body = serde_json::to_string_pretty(request)
        .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e.to_string()))?;
    conn.write_all(body.as_bytes())?;
    conn.flush()?;
    conn.shutdown_write()?;
    let mut reply = String::new();
    conn.read_to_string(&mut reply)?;
    serde_json::from_str(&reply).map_err(|e| {
        std::io::Error::new(std::io::ErrorKind::InvalidData, format!("bad reply: {e}"))
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wake-up connect must reach a `:0` bind on its assigned port,
    /// and an unspecified bind through loopback.
    #[test]
    fn wake_endpoint_reaches_the_tcp_listener() {
        for spec in ["127.0.0.1:0", "0.0.0.0:0"] {
            let endpoint = Endpoint::parse(spec);
            let listener = bind(&endpoint).unwrap();
            let wake = listener.wake_endpoint(&endpoint).unwrap();
            let Endpoint::Tcp(addr) = &wake else {
                panic!("{spec}: wake endpoint {wake:?} is not TCP")
            };
            assert!(
                addr.starts_with("127.0.0.1:") && !addr.ends_with(":0"),
                "{spec} -> {addr}"
            );
            connect(&wake).unwrap();
            listener.accept().unwrap();
        }
    }
}
