//! A minimal blocking HTTP/1.1 client: one request per connection, which
//! is how `pipedepth-serve` answers (it closes after every response).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Longest a single exchange may take before it counts as failed.
const TIMEOUT: Duration = Duration::from_secs(30);

/// A response: status code and body.
#[derive(Debug, Clone, PartialEq)]
pub struct Reply {
    pub status: u16,
    pub body: String,
}

/// Sends one request and reads the response to EOF, so the call returns
/// at the last response byte.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> io::Result<Reply> {
    let mut stream = TcpStream::connect_timeout(&addr, TIMEOUT)?;
    stream.set_read_timeout(Some(TIMEOUT))?;
    stream.set_write_timeout(Some(TIMEOUT))?;
    stream.set_nodelay(true)?;
    let body = body.unwrap_or("");
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n",
        body.len()
    );
    let mut message = head.into_bytes();
    message.extend_from_slice(body.as_bytes());
    stream.write_all(&message)?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse_reply(&raw)
}

fn parse_reply(raw: &[u8]) -> io::Result<Reply> {
    let bad = |what: &str| io::Error::new(io::ErrorKind::InvalidData, what.to_string());
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("response has no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 header"))?;
    let status = head
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .and_then(|code| code.parse().ok())
        .ok_or_else(|| bad("malformed status line"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Reply { status, body })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn replies_parse() {
        let raw = b"HTTP/1.1 429 Too Many Requests\r\nRetry-After: 1\r\n\r\n{\"a\": 1}";
        let reply = parse_reply(raw).unwrap();
        assert_eq!(reply.status, 429);
        assert_eq!(reply.body, "{\"a\": 1}");
        assert!(parse_reply(b"HTTP/1.1 200 OK\r\n").is_err());
    }
}
