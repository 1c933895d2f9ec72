//! The benchmark's own HTTP/1.1 client.
//!
//! Persistent keep-alive connections with `TCP_NODELAY`, each request
//! sent as one write. A client that writes the head and the body
//! separately without `TCP_NODELAY` has its second write held by
//! Nagle's algorithm until the server's delayed ACK (~40 ms on Linux),
//! which would put the benchmark's own stall into every latency it
//! reports. Responses are framed by `Content-Length`, the only framing
//! `mpmb serve` emits.

use std::io::{self, BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

/// Bound on one response body; the largest the benchmark reads is a
/// `/debug/trace` page of a few MiB.
const MAX_BODY: usize = 256 << 20;
/// No request the workloads send takes longer than this to answer.
const READ_TIMEOUT: Duration = Duration::from_secs(120);

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    /// Lowercased names, values as sent.
    pub headers: Vec<(String, String)>,
    pub body: Vec<u8>,
}

impl Response {
    pub fn header(&self, name: &str) -> Option<&str> {
        self.headers
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v.as_str())
    }

    pub fn text(&self) -> String {
        String::from_utf8_lossy(&self.body).into_owned()
    }
}

/// The complete request — head and body — in one buffer, so it leaves
/// in one write.
pub fn encode_request(method: &str, path: &str, body: &[u8], headers: &[(&str, &str)]) -> Vec<u8> {
    let mut out = format!(
        "{method} {path} HTTP/1.1\r\nHost: mpmb\r\nContent-Type: application/json\r\nContent-Length: {}\r\n",
        body.len()
    );
    for (name, value) in headers {
        out.push_str(name);
        out.push_str(": ");
        out.push_str(value);
        out.push_str("\r\n");
    }
    out.push_str("\r\n");
    let mut bytes = out.into_bytes();
    bytes.extend_from_slice(body);
    bytes
}

fn invalid(msg: impl Into<String>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, msg.into())
}

/// Reads one `Content-Length`-framed response.
pub fn read_response(r: &mut impl BufRead) -> io::Result<Response> {
    let mut line = String::new();
    if r.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "connection closed before a response",
        ));
    }
    let status = line
        .strip_prefix("HTTP/1.")
        .and_then(|rest| rest.split(' ').nth(1))
        .and_then(|code| code.trim().parse().ok())
        .ok_or_else(|| invalid(format!("bad status line {line:?}")))?;
    let mut headers = Vec::new();
    loop {
        line.clear();
        if r.read_line(&mut line)? == 0 {
            return Err(invalid("connection closed inside response head"));
        }
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        let (name, value) = trimmed
            .split_once(':')
            .ok_or_else(|| invalid(format!("bad header {trimmed:?}")))?;
        headers.push((name.trim().to_ascii_lowercase(), value.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(n, _)| n == "content-length")
        .and_then(|(_, v)| v.parse().ok())
        .ok_or_else(|| invalid("response without a Content-Length"))?;
    if len > MAX_BODY {
        return Err(invalid(format!("response body of {len} bytes")));
    }
    let mut body = vec![0; len];
    r.read_exact(&mut body)?;
    Ok(Response {
        status,
        headers,
        body,
    })
}

/// One keep-alive connection. Reconnects transparently when the server
/// closed the previous exchange.
pub struct Conn {
    addr: String,
    stream: Option<(TcpStream, BufReader<TcpStream>)>,
}

impl Conn {
    pub fn new(addr: &str) -> Conn {
        Conn {
            addr: addr.to_string(),
            stream: None,
        }
    }

    fn connect(&mut self) -> io::Result<&mut (TcpStream, BufReader<TcpStream>)> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(READ_TIMEOUT))?;
            let reader = BufReader::new(s.try_clone()?);
            self.stream = Some((s, reader));
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// One exchange. A transport error drops the connection, so the
    /// next call starts on a fresh one.
    pub fn call(
        &mut self,
        method: &str,
        path: &str,
        body: &[u8],
        headers: &[(&str, &str)],
    ) -> io::Result<Response> {
        let wire = encode_request(method, path, body, headers);
        let result = self.connect().and_then(|(w, r)| {
            w.write_all(&wire)?;
            read_response(r)
        });
        match &result {
            Ok(resp) if resp.header("connection") != Some("close") => {}
            _ => self.stream = None,
        }
        result
    }
}

/// A one-shot exchange on its own connection, closed afterwards — for
/// scrapes and admin calls, which must not hold a server worker.
pub fn once(addr: &str, method: &str, path: &str, body: &[u8]) -> io::Result<Response> {
    Conn::new(addr).call(method, path, body, &[("Connection", "close")])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn request_is_one_buffer_with_an_exact_length() {
        let body = br#"{"graph":"g","seed":1}"#;
        let wire = encode_request("POST", "/v1/solve", body, &[("X-Request-Id", "r-1")]);
        let text = String::from_utf8(wire).unwrap();
        let (head, rest) = text.split_once("\r\n\r\n").unwrap();
        assert!(head.starts_with("POST /v1/solve HTTP/1.1\r\n"));
        assert!(head.contains(&format!("Content-Length: {}", body.len())));
        assert!(head.contains("X-Request-Id: r-1"));
        assert_eq!(rest.as_bytes(), body);
    }

    #[test]
    fn reads_back_to_back_responses_on_one_stream() {
        let wire = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\nContent-Length: 2\r\nX-Mpmb-Budget: queue=0.000001\r\n\r\n{}\
HTTP/1.1 503 Service Unavailable\r\nContent-Length: 5\r\nConnection: close\r\n\r\nabcde";
        let mut r = &wire[..];
        let a = read_response(&mut r).unwrap();
        assert_eq!((a.status, a.body.as_slice()), (200, &b"{}"[..]));
        assert_eq!(a.header("x-mpmb-budget"), Some("queue=0.000001"));
        let b = read_response(&mut r).unwrap();
        assert_eq!((b.status, b.body.as_slice()), (503, &b"abcde"[..]));
        assert_eq!(b.header("connection"), Some("close"));
        assert!(read_response(&mut r).is_err());
    }

    #[test]
    fn rejects_broken_framing() {
        for wire in [
            &b"HTTP/1.1 200 OK\r\n\r\n{}"[..],
            b"HTTP/1.1 200 OK\r\nContent-Length: 10\r\n\r\nshort",
            b"SMTP 200 OK\r\nContent-Length: 0\r\n\r\n",
            b"HTTP/1.1 200 OK\r\nContent-Length: 2\r\n",
        ] {
            assert!(read_response(&mut &wire[..]).is_err(), "{wire:?}");
        }
    }
}
