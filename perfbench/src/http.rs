//! A minimal blocking HTTP/1.1 client: one request per connection, the
//! way the server's HTTP layer answers (`Connection: close`).

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// A response: status code and body.
#[derive(Debug)]
pub struct Response {
    /// HTTP status code.
    pub status: u16,
    /// The body (exactly `Content-Length` bytes).
    pub body: String,
}

/// Sends one request and reads the whole response.
///
/// # Errors
///
/// Socket errors, a timeout (60 s), or a malformed response.
pub fn request(addr: SocketAddr, method: &str, path: &str, body: &str) -> io::Result<Response> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    let head = format!(
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\n\
         Content-Type: application/json\r\nConnection: close\r\n\r\n",
        body.len()
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(body.as_bytes())?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    parse(&raw)
}

fn bad(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_string())
}

fn parse(raw: &[u8]) -> io::Result<Response> {
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| bad("no header terminator"))?;
    let head = std::str::from_utf8(&raw[..split]).map_err(|_| bad("non-UTF-8 header"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| bad("no status code"))?;
    let length: usize = head
        .lines()
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim()
                .eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .ok_or_else(|| bad("no Content-Length"))?;
    let body = &raw[split + 4..];
    if body.len() != length {
        return Err(bad("body length differs from Content-Length"));
    }
    let body = String::from_utf8(body.to_vec()).map_err(|_| bad("non-UTF-8 body"))?;
    Ok(Response { status, body })
}

/// The unsigned integer after `"key":` in a flat JSON object.
pub fn json_u64(body: &str, key: &str) -> Option<u64> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    rest.trim_start()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// The string after `"key":` in a flat JSON object.
pub fn json_str<'a>(body: &'a str, key: &str) -> Option<&'a str> {
    let rest = &body[body.find(&format!("\"{key}\":"))? + key.len() + 3..];
    let rest = rest.trim_start().strip_prefix('"')?;
    rest.split('"').next()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_response_and_flat_json() {
        let r = parse(b"HTTP/1.1 202 Accepted\r\nContent-Length: 29\r\n\r\n{\"id\":12,\"status\":\"queued\"}\n\n")
            .unwrap();
        assert_eq!(r.status, 202);
        assert_eq!(json_u64(&r.body, "id"), Some(12));
        assert_eq!(json_str(&r.body, "status"), Some("queued"));
        assert!(parse(b"HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nab").is_err());
    }
}
