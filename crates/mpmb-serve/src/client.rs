//! A minimal blocking HTTP/1.1 client — enough for the cluster
//! coordinator and the integration tests to talk to the daemon without
//! external dependencies. One request per connection
//! (`Connection: close`).
//!
//! [`call_retry`] adds bounded resilience on top: transport errors
//! (connection reset, truncated response) and retryable statuses
//! (429 load shed, 503 deadline) are retried with exponential backoff
//! and deterministic jitter, honoring the server's `Retry-After`
//! header. Everything else — 200s, 4xx contract errors, 500s — returns
//! on the first attempt.
//!
//! Failures surface as [`ClientError`], which keeps the HTTP status as
//! structured data: retry policies and the cluster's re-dispatch logic
//! branch on [`ClientError::status`] instead of string-matching error
//! messages.

use crate::http::{read_line_limited, ReadError, MAX_HEAD_BYTES};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// A full response: status, headers (names lowercased), UTF-8 body.
pub type FullResponse = (u16, Vec<(String, String)>, String);

/// A full response with the body left as raw bytes (codec frames).
pub type RawResponse = (u16, Vec<(String, String)>, Vec<u8>);

/// Why a client call failed, with the HTTP status (when the server
/// answered at all) as structured data rather than message text.
#[derive(Debug)]
pub enum ClientError {
    /// The transport failed before a complete response was read:
    /// connect refused, connection reset, timeout, truncated body.
    /// The peer may or may not have processed the request.
    Transport(std::io::Error),
    /// The server answered with a non-success status. The peer
    /// definitely processed (and rejected or shed) the request.
    Status {
        /// The HTTP status code of the final response.
        status: u16,
        /// The response body (lossily decoded if not UTF-8).
        body: String,
    },
}

impl ClientError {
    /// The HTTP status, if the server answered at all.
    pub fn status(&self) -> Option<u16> {
        match self {
            ClientError::Transport(_) => None,
            ClientError::Status { status, .. } => Some(*status),
        }
    }
}

impl std::fmt::Display for ClientError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClientError::Transport(e) => write!(f, "transport error: {e}"),
            ClientError::Status { status, body } => write!(f, "HTTP {status}: {body}"),
        }
    }
}

impl std::error::Error for ClientError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ClientError::Transport(e) => Some(e),
            ClientError::Status { .. } => None,
        }
    }
}

impl From<std::io::Error> for ClientError {
    fn from(e: std::io::Error) -> Self {
        ClientError::Transport(e)
    }
}

/// Issues one request and returns `(status, body)`.
pub fn call(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
) -> std::io::Result<(u16, String)> {
    let (status, _headers, body) = call_ext(addr, method, path, body, &[])?;
    Ok((status, body))
}

/// Issues one request with extra request headers and returns
/// `(status, response headers, body)`. Response header names come back
/// lowercased.
pub fn call_ext(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<FullResponse> {
    let (status, headers, raw) = call_raw(
        addr,
        method,
        path,
        body.as_bytes(),
        "application/json",
        extra_headers,
    )?;
    String::from_utf8(raw)
        .map(|b| (status, headers, b))
        .map_err(|_| std::io::Error::new(std::io::ErrorKind::InvalidData, "non-UTF-8 body"))
}

/// Issues one request with an arbitrary byte body and returns the raw
/// response bytes — the transport under every other `call_*`, and the
/// one the cluster protocol uses directly for codec-framed payloads.
pub fn call_raw(
    addr: impl ToSocketAddrs,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
    extra_headers: &[(&str, &str)],
) -> std::io::Result<RawResponse> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    let mut head = format!(
        "{method} {path} HTTP/1.1\r\nHost: mpmb\r\nContent-Type: {content_type}\r\nContent-Length: {}\r\nConnection: close\r\n",
        body.len()
    );
    for (name, value) in extra_headers {
        head.push_str(&format!("{name}: {value}\r\n"));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes())?;
    stream.write_all(body)?;
    stream.flush()?;
    read_response_raw(&mut BufReader::new(stream))
}

/// Bounded-retry policy: exponential backoff with deterministic
/// jitter. Jitter waits are a pure function of `(seed, salt, attempt)`,
/// so a test run replays the same schedule every time.
#[derive(Clone, Copy, Debug)]
pub struct RetryPolicy {
    /// Total attempts, including the first (minimum 1).
    pub attempts: u32,
    /// Base backoff in milliseconds; attempt `k` waits about
    /// `base * 2^k`, jittered down to half.
    pub base_ms: u64,
    /// Upper bound on one backoff wait, and on an honored
    /// `Retry-After`.
    pub cap_ms: u64,
    /// Jitter seed.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 4,
            base_ms: 25,
            cap_ms: 1_000,
            seed: 0,
        }
    }
}

impl RetryPolicy {
    /// The jittered wait before retry number `attempt` (0-based), in
    /// milliseconds: uniform over `[target/2, target]` where `target`
    /// is the capped exponential step. `salt` decorrelates concurrent
    /// callers sharing one seed.
    pub fn backoff_ms(&self, attempt: u32, salt: u64) -> u64 {
        let step = self
            .base_ms
            .max(1)
            .saturating_mul(1u64.checked_shl(attempt).unwrap_or(u64::MAX))
            .min(self.cap_ms.max(1));
        let r =
            crate::fault::splitmix64(self.seed ^ salt.rotate_left(17) ^ ((attempt as u64) << 32));
        let low = step / 2;
        low + r % (step - low + 1)
    }

    /// The wait this policy honors for a server's `Retry-After` header
    /// value (whole seconds, per RFC 9110's delay-seconds form), in
    /// milliseconds. `None` when the value is not a plain non-negative
    /// integer (HTTP-date forms fall back to the computed backoff).
    ///
    /// The honored wait is **clamped to `cap_ms`**: a buggy or hostile
    /// upstream answering `Retry-After: 86400` must not stall the
    /// coordinator's redispatch loop for a day —
    /// the server's hint can shorten or zero the wait (`Retry-After: 0`
    /// means "retry immediately") but never extend it past the
    /// policy's own cap.
    pub fn honored_retry_after_ms(&self, header_value: &str) -> Option<u64> {
        let secs = header_value.trim().parse::<u64>().ok()?;
        Some(secs.saturating_mul(1_000).min(self.cap_ms))
    }
}

/// Outcome of a [`call_retry`]: the final response plus how many
/// retries it took to get it.
#[derive(Debug)]
pub struct Retried {
    /// Final HTTP status.
    pub status: u16,
    /// Final response headers, names lowercased.
    pub headers: Vec<(String, String)>,
    /// Final response body.
    pub body: String,
    /// Retries consumed (0 = first attempt answered).
    pub retries: u32,
}

/// Whether a status is worth retrying: load shed and deadline
/// responses are transient by design; everything else is a final
/// answer.
fn retryable(status: u16) -> bool {
    matches!(status, 429 | 503)
}

/// Issues a request under `policy`, retrying transport errors and
/// retryable statuses. A `Retry-After` header on a retryable response
/// overrides the computed backoff (clamped to `cap_ms`) — in
/// particular `Retry-After: 0` on a 503 means the server cached a
/// resumable partial and an immediate retry refines it.
///
/// Any final response — including 4xx/5xx — returns `Ok`; only
/// exhausting every attempt on transport errors returns
/// [`ClientError::Transport`].
pub fn call_retry(
    addr: &str,
    method: &str,
    path: &str,
    body: &str,
    policy: &RetryPolicy,
) -> Result<Retried, ClientError> {
    let (status, headers, raw, retries) = call_retry_raw(
        addr,
        method,
        path,
        body.as_bytes(),
        "application/json",
        policy,
    )?;
    let body = String::from_utf8(raw).map_err(|_| {
        ClientError::Transport(std::io::Error::new(
            std::io::ErrorKind::InvalidData,
            "non-UTF-8 body",
        ))
    })?;
    Ok(Retried {
        status,
        headers,
        body,
        retries,
    })
}

/// Response headers as lowercased `(name, value)` pairs.
pub type Headers = Vec<(String, String)>;

/// [`call_retry`] for binary payloads, demanding success: a final
/// non-2xx status becomes [`ClientError::Status`] (carrying the code
/// for the caller's policy decisions) instead of an `Ok` the caller
/// must inspect. Returns `(headers, body bytes, retries)`.
pub fn call_retry_expect(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
    policy: &RetryPolicy,
) -> Result<(Headers, Vec<u8>, u32), ClientError> {
    let (status, headers, raw, retries) =
        call_retry_raw(addr, method, path, body, content_type, policy)?;
    if !(200..300).contains(&status) {
        return Err(ClientError::Status {
            status,
            body: String::from_utf8_lossy(&raw).into_owned(),
        });
    }
    Ok((headers, raw, retries))
}

/// The shared retry loop over [`call_raw`].
fn call_retry_raw(
    addr: &str,
    method: &str,
    path: &str,
    body: &[u8],
    content_type: &str,
    policy: &RetryPolicy,
) -> Result<(u16, Headers, Vec<u8>, u32), ClientError> {
    let salt = bigraph::fnv1a64(path.as_bytes()) ^ bigraph::fnv1a64(body);
    let attempts = policy.attempts.max(1);
    let mut last_err = None;
    for attempt in 0..attempts {
        let wait_ms = match call_raw(addr, method, path, body, content_type, &[]) {
            Ok((status, headers, raw)) => {
                if !retryable(status) || attempt + 1 == attempts {
                    return Ok((status, headers, raw, attempt));
                }
                headers
                    .iter()
                    .find(|(name, _)| name == "retry-after")
                    .and_then(|(_, v)| policy.honored_retry_after_ms(v))
                    .unwrap_or_else(|| policy.backoff_ms(attempt, salt))
            }
            Err(e) => {
                if attempt + 1 == attempts {
                    return Err(ClientError::Transport(e));
                }
                last_err = Some(e);
                policy.backoff_ms(attempt, salt)
            }
        };
        if wait_ms > 0 {
            std::thread::sleep(Duration::from_millis(wait_ms));
        }
    }
    // Unreachable: the loop always returns on its last attempt.
    Err(ClientError::Transport(last_err.unwrap_or_else(|| {
        std::io::Error::other("no attempts made")
    })))
}

/// Reads one response, body as raw bytes. The status line and headers
/// share the server's [`MAX_HEAD_BYTES`] budget, and the body grows
/// only with bytes that actually arrive, so a hostile peer can neither
/// stream an endless head nor make a `Content-Length` allocate memory
/// it never sends. A truncated head or body is an error.
pub fn read_response_raw(reader: &mut impl BufRead) -> std::io::Result<RawResponse> {
    let mut budget = MAX_HEAD_BYTES;
    let line = read_head_line(reader, &mut budget)?;
    let status: u16 = line
        .split(' ')
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| invalid(format!("bad status line `{}`", line.trim_end())))?;
    let mut headers = Vec::new();
    let mut content_length = 0u64;
    loop {
        let line = read_head_line(reader, &mut budget)?;
        let trimmed = line.trim_end_matches(['\r', '\n']);
        if trimmed.is_empty() {
            break;
        }
        if let Some((name, value)) = trimmed.split_once(':') {
            let name = name.trim().to_ascii_lowercase();
            let value = value.trim().to_string();
            if name == "content-length" {
                content_length = value
                    .parse()
                    .map_err(|_| invalid("bad Content-Length".into()))?;
            }
            headers.push((name, value));
        }
    }
    let mut body = Vec::new();
    reader.take(content_length).read_to_end(&mut body)?;
    if (body.len() as u64) < content_length {
        return Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            format!("body ended after {} of {content_length} bytes", body.len()),
        ));
    }
    Ok((status, headers, body))
}

/// One line of a response head; EOF before it is an error.
fn read_head_line(reader: &mut impl BufRead, budget: &mut usize) -> std::io::Result<String> {
    match read_line_limited(reader, budget) {
        Ok(Some(line)) => Ok(line),
        Ok(None) | Err(ReadError::Closed) => Err(std::io::Error::new(
            std::io::ErrorKind::UnexpectedEof,
            "connection closed inside the response head",
        )),
        Err(ReadError::Io(e)) => Err(e),
        Err(ReadError::Bad { msg, .. }) => Err(invalid(format!("response: {msg}"))),
    }
}

fn invalid(msg: String) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_deterministic_and_bounded() {
        let p = RetryPolicy {
            attempts: 5,
            base_ms: 20,
            cap_ms: 100,
            seed: 9,
        };
        for attempt in 0..5 {
            let a = p.backoff_ms(attempt, 1234);
            assert_eq!(a, p.backoff_ms(attempt, 1234), "same inputs, same wait");
            let step = (20u64 << attempt).min(100);
            assert!(
                (step / 2..=step).contains(&a),
                "attempt {attempt}: wait {a} outside [{}, {step}]",
                step / 2
            );
        }
        // Different salts decorrelate concurrent callers.
        assert_ne!(
            (0..5).map(|k| p.backoff_ms(k, 1)).collect::<Vec<_>>(),
            (0..5).map(|k| p.backoff_ms(k, 2)).collect::<Vec<_>>()
        );
    }

    #[test]
    fn retry_after_is_clamped_to_the_backoff_cap() {
        let p = RetryPolicy {
            attempts: 4,
            base_ms: 25,
            cap_ms: 1_000,
            seed: 0,
        };
        // A day-long Retry-After must be cut down to the cap.
        assert_eq!(p.honored_retry_after_ms("86400"), Some(1_000));
        // Saturating: absurd values cannot overflow into tiny waits.
        assert_eq!(p.honored_retry_after_ms(&u64::MAX.to_string()), Some(1_000));
        // Hints below the cap are honored verbatim (0 = retry now).
        assert_eq!(p.honored_retry_after_ms("0"), Some(0));
        assert_eq!(p.honored_retry_after_ms(" 1 "), Some(1_000));
        // Non-delay-seconds forms fall back to the computed backoff.
        assert_eq!(
            p.honored_retry_after_ms("Wed, 21 Oct 2026 07:28:00 GMT"),
            None
        );
        assert_eq!(p.honored_retry_after_ms("-1"), None);
        assert_eq!(p.honored_retry_after_ms(""), None);
    }

    #[test]
    fn hostile_retry_after_does_not_stall_the_retry_loop() {
        // A server that sheds with `Retry-After: 86400` and then answers.
        // Without the clamp, call_retry would sleep a day; with it, the
        // whole exchange completes within the test timeout.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            for i in 0..2 {
                let (mut s, _) = listener.accept().unwrap();
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                let resp = if i == 0 {
                    "HTTP/1.1 503 Service Unavailable\r\nRetry-After: 86400\r\nContent-Length: 0\r\nConnection: close\r\n\r\n".to_string()
                } else {
                    let body = "ok";
                    format!(
                        "HTTP/1.1 200 OK\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                        body.len()
                    )
                };
                s.write_all(resp.as_bytes()).unwrap();
            }
        });
        let p = RetryPolicy {
            attempts: 3,
            base_ms: 1,
            cap_ms: 50, // hostile hint clamps to 50ms
            seed: 0,
        };
        let started = std::time::Instant::now();
        let r = call_retry(&addr, "GET", "/healthz", "", &p).unwrap();
        assert_eq!(r.status, 200);
        assert_eq!(r.retries, 1);
        assert!(
            started.elapsed() < Duration::from_secs(10),
            "Retry-After was honored past the cap: {:?}",
            started.elapsed()
        );
        server.join().unwrap();
    }

    #[test]
    fn only_shed_and_deadline_are_retryable() {
        assert!(retryable(429) && retryable(503));
        for s in [200, 202, 400, 404, 431, 500, 505] {
            assert!(!retryable(s), "{s} must be terminal");
        }
    }

    #[test]
    fn retry_gives_up_when_nothing_listens() {
        // Reserve a port, then close it so connects fail fast.
        let addr = {
            let l = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
            l.local_addr().unwrap().to_string()
        };
        let p = RetryPolicy {
            attempts: 3,
            base_ms: 1,
            cap_ms: 2,
            seed: 0,
        };
        let err = call_retry(&addr, "GET", "/healthz", "", &p).unwrap_err();
        assert!(matches!(err, ClientError::Transport(_)), "{err}");
        assert_eq!(err.status(), None, "no HTTP response was ever received");
    }

    #[test]
    fn expect_surfaces_status_as_structured_error() {
        // A one-shot server answering 404 with a JSON body.
        let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let server = std::thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            let mut buf = [0u8; 1024];
            let _ = s.read(&mut buf);
            let body = "{\"error\":\"no such graph\"}";
            let resp = format!(
                "HTTP/1.1 404 Not Found\r\nContent-Type: application/json\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
                body.len()
            );
            s.write_all(resp.as_bytes()).unwrap();
        });
        let p = RetryPolicy {
            attempts: 1,
            base_ms: 1,
            cap_ms: 1,
            seed: 0,
        };
        let err = call_retry_expect(&addr, "POST", "/x", b"{}", "application/json", &p)
            .expect_err("404 must be an error");
        assert_eq!(err.status(), Some(404));
        match err {
            ClientError::Status { status, body } => {
                assert_eq!(status, 404);
                assert!(body.contains("no such graph"));
            }
            other => panic!("expected Status, got {other:?}"),
        }
        server.join().unwrap();
    }

    /// A valid worker reply: the seed for the hostility cases below.
    const REPLY: &[u8] = b"HTTP/1.1 200 OK\r\nContent-Type: application/json\r\n\
Content-Length: 11\r\nConnection: close\r\n\r\n{\"ok\":true}";

    fn read(bytes: &[u8]) -> std::io::Result<RawResponse> {
        read_response_raw(&mut std::io::Cursor::new(bytes))
    }

    #[test]
    fn valid_reply_parses() {
        let (status, headers, body) = read(REPLY).unwrap();
        assert_eq!(status, 200);
        assert!(headers.contains(&("content-length".into(), "11".into())));
        assert_eq!(body, b"{\"ok\":true}");
    }

    #[test]
    fn hostile_content_length_is_an_error_not_an_allocation() {
        // 2^62 bytes promised, 11 sent: the reader must not allocate the
        // promise (that aborts the process) but fail on the short body.
        for len in ["4611686018427387904", "18446744073709551615"] {
            let reply =
                String::from_utf8_lossy(REPLY).replace("Length: 11", &format!("Length: {len}"));
            let err = read(reply.as_bytes()).expect_err(len);
            assert_eq!(
                err.kind(),
                std::io::ErrorKind::UnexpectedEof,
                "{len}: {err}"
            );
        }
        let overflow =
            String::from_utf8_lossy(REPLY).replace("Length: 11", "Length: 18446744073709551616");
        assert!(read(overflow.as_bytes()).is_err());
    }

    #[test]
    fn every_truncated_prefix_of_a_reply_is_an_error() {
        for cut in 0..REPLY.len() {
            assert!(read(&REPLY[..cut]).is_err(), "prefix of {cut} bytes parsed");
        }
    }

    #[test]
    fn oversized_status_or_header_line_is_an_error() {
        let long = "x".repeat(17 * 1024);
        let status_line = format!("HTTP/1.1 200 {long}\r\nContent-Length: 0\r\n\r\n");
        let header_line = format!("HTTP/1.1 200 OK\r\nX-Pad: {long}\r\nContent-Length: 0\r\n\r\n");
        for reply in [status_line, header_line] {
            let err = read(reply.as_bytes()).expect_err("17 KiB head line");
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidData, "{err}");
        }
    }
}
