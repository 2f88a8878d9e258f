//! A keep-alive HTTP/1.1 client that sends pre-built request bytes and
//! returns the raw status and body, nothing more: the load generator
//! must not compete with the program for the cores.

use std::io::{self, BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A request's bytes on the wire, as shared segments: the parts of
/// requests that carry the same model XML share that segment instead
/// of holding a copy each.
pub type Wire = Vec<std::sync::Arc<[u8]>>;

/// The head and body of an HTTP `POST` with a JSON body, split so the
/// body's segments can be shared.
pub fn post(path: &str, body: &[std::sync::Arc<[u8]>]) -> Wire {
    let len: usize = body.iter().map(|s| s.len()).sum();
    let head = format!(
        "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Type: application/json\r\nContent-Length: {len}\r\n\r\n"
    );
    let mut wire: Wire = vec![head.into_bytes().into()];
    wire.extend(body.iter().cloned());
    wire
}

/// One keep-alive connection.
pub struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
    out: Vec<u8>,
}

impl Conn {
    /// Connect with Nagle off (every request is one write).
    pub fn open(addr: SocketAddr) -> io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(60)))?;
        let reader = BufReader::with_capacity(64 * 1024, stream.try_clone()?);
        Ok(Conn {
            stream,
            reader,
            out: Vec::with_capacity(16 * 1024),
        })
    }

    /// Send one request and read its response: `(status, body)`.
    pub fn call(&mut self, wire: &Wire) -> io::Result<(u16, Vec<u8>)> {
        self.out.clear();
        for segment in wire {
            self.out.extend_from_slice(segment);
        }
        self.stream.write_all(&self.out)?;
        self.read_response()
    }

    fn read_response(&mut self) -> io::Result<(u16, Vec<u8>)> {
        let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
        let mut line = String::new();
        if self.reader.read_line(&mut line)? == 0 {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "connection closed before a response",
            ));
        }
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let mut length = None;
        loop {
            line.clear();
            if self.reader.read_line(&mut line)? == 0 {
                return Err(bad("connection closed inside the response head"));
            }
            let header = line.trim_end();
            if header.is_empty() {
                break;
            }
            if let Some((name, value)) = header.split_once(':') {
                let value = value.trim();
                if name.eq_ignore_ascii_case("content-length") {
                    length = Some(
                        value
                            .parse::<usize>()
                            .map_err(|_| bad("bad content-length"))?,
                    );
                }
            }
        }
        let length = length.ok_or_else(|| bad("response without content-length"))?;
        let mut body = vec![0; length];
        self.reader.read_exact(&mut body)?;
        Ok((status, body))
    }
}

/// One request on a fresh connection, closed afterwards.
pub fn call_once(addr: SocketAddr, wire: &Wire) -> io::Result<(u16, Vec<u8>)> {
    let mut conn = Conn::open(addr)?;
    conn.call(wire)
}

/// `GET path` on a fresh connection.
pub fn get(addr: SocketAddr, path: &str) -> io::Result<(u16, Vec<u8>)> {
    let head = format!("GET {path} HTTP/1.1\r\nHost: perfbench\r\n\r\n");
    call_once(addr, &vec![head.into_bytes().into()])
}
