//! Minimal HTTP/1.1 client for the server's one-request-per-connection
//! protocol (`connection: close`).

use std::io::{Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

#[derive(Debug)]
pub struct Response {
    pub status: u16,
    pub body: String,
}

/// Sends one request on a new connection and reads the reply to EOF.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<Response, String> {
    let err = |e: std::io::Error| format!("{method} {path}: {e}");
    let mut stream = TcpStream::connect(addr).map_err(err)?;
    stream
        .set_read_timeout(Some(Duration::from_secs(120)))
        .map_err(err)?;
    let mut head = format!("{method} {path} HTTP/1.1\r\nhost: bench\r\n");
    if let Some(body) = body {
        head.push_str(&format!(
            "content-type: application/json\r\ncontent-length: {}\r\n",
            body.len()
        ));
    }
    head.push_str("\r\n");
    stream.write_all(head.as_bytes()).map_err(err)?;
    if let Some(body) = body {
        stream.write_all(body.as_bytes()).map_err(err)?;
    }
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw).map_err(err)?;
    let split = raw
        .windows(4)
        .position(|w| w == b"\r\n\r\n")
        .ok_or_else(|| format!("{method} {path}: incomplete response head"))?;
    let status = std::str::from_utf8(&raw[..split])
        .ok()
        .and_then(|head| head.split(' ').nth(1))
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("{method} {path}: no status code"))?;
    let body = String::from_utf8(raw[split + 4..].to_vec())
        .map_err(|_| format!("{method} {path}: body is not utf-8"))?;
    Ok(Response { status, body })
}

/// [`request`] that also requires a 2xx status.
pub fn expect_ok(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: Option<&str>,
) -> Result<String, String> {
    let r = request(addr, method, path, body)?;
    if (200..300).contains(&r.status) {
        Ok(r.body)
    } else {
        Err(format!("{method} {path}: status {}: {}", r.status, r.body))
    }
}
