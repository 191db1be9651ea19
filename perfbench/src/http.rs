//! A minimal keep-alive HTTP/1.1 client for driving the job daemon.
//!
//! Each request is framed into one buffer and sent with a single
//! `write_all` on a socket with `TCP_NODELAY` set. Writing the head and
//! body in separate segments lets Nagle's algorithm hold the second
//! segment until the server's delayed ACK fires, which adds about 40 ms
//! to every round trip.

use std::io::{self, Read, Write};
use std::net::TcpStream;
use std::time::Duration;

/// The complete bytes of one keep-alive request.
pub fn frame_request(method: &str, path: &str, body: &str) -> Vec<u8> {
    let mut req = format!(
        "{method} {path} HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\
         Content-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    req.extend_from_slice(body.as_bytes());
    req
}

/// Sends one framed request with exactly one write call.
pub fn send_request<W: Write>(w: &mut W, method: &str, path: &str, body: &str) -> io::Result<()> {
    w.write_all(&frame_request(method, path, body))
}

/// One persistent connection; reconnects when the server closed it.
pub struct Client {
    addr: String,
    stream: Option<TcpStream>,
}

impl Client {
    /// A client for `addr` (`host:port`); connects lazily.
    pub fn new(addr: &str) -> Self {
        Client { addr: addr.to_owned(), stream: None }
    }

    fn connect(&mut self) -> io::Result<&mut TcpStream> {
        if self.stream.is_none() {
            let s = TcpStream::connect(&self.addr)?;
            s.set_nodelay(true)?;
            s.set_read_timeout(Some(Duration::from_secs(30)))?;
            self.stream = Some(s);
        }
        Ok(self.stream.as_mut().expect("connected above"))
    }

    /// One exchange; `(status, body)`. A failure on a reused
    /// connection (closed by the server while idle) is retried once on
    /// a fresh one, so requests must be idempotent.
    pub fn call(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let reused = self.stream.is_some();
        match self.exchange(method, path, body) {
            Err(_) if reused => {
                self.stream = None;
                self.exchange(method, path, body)
            }
            r => r,
        }
    }

    fn exchange(&mut self, method: &str, path: &str, body: &str) -> io::Result<(u16, String)> {
        let stream = self.connect()?;
        let answer = send_request(stream, method, path, body).and_then(|()| read_response(stream));
        match answer {
            Ok((status, keep, body)) => {
                if !keep {
                    self.stream = None;
                }
                Ok((status, body))
            }
            Err(e) => {
                self.stream = None;
                Err(e)
            }
        }
    }
}

/// Reads one `Content-Length`-framed response: status, whether the
/// server keeps the connection open, body.
fn read_response<R: Read>(r: &mut R) -> io::Result<(u16, bool, String)> {
    let mut head = Vec::with_capacity(256);
    let mut byte = [0u8; 1];
    while !head.ends_with(b"\r\n\r\n") {
        if head.len() > 64 * 1024 {
            return Err(io::Error::new(io::ErrorKind::InvalidData, "response head too large"));
        }
        r.read_exact(&mut byte)?;
        head.push(byte[0]);
    }
    let head = String::from_utf8_lossy(&head);
    let status = head
        .strip_prefix("HTTP/1.1 ")
        .and_then(|s| s.split(' ').next())
        .and_then(|c| c.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status line"))?;
    let header = |name: &str| {
        head.lines().find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.trim().eq_ignore_ascii_case(name).then(|| v.trim().to_owned())
        })
    };
    let len: usize = header("content-length")
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no content-length"))?;
    let keep = header("connection").is_some_and(|v| v.eq_ignore_ascii_case("keep-alive"));
    let mut body = vec![0u8; len];
    r.read_exact(&mut body)?;
    Ok((status, keep, String::from_utf8_lossy(&body).into_owned()))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Records every `write` call separately.
    #[derive(Default)]
    struct Writes(Vec<Vec<u8>>);

    impl Write for Writes {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            self.0.push(buf.to_vec());
            Ok(buf.len())
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_request_is_one_write_with_head_and_body() {
        let mut w = Writes::default();
        send_request(&mut w, "POST", "/jobs", "{\"bits\":8}").unwrap();
        assert_eq!(w.0.len(), 1, "request split over {} writes", w.0.len());
        assert_eq!(
            String::from_utf8(w.0.remove(0)).unwrap(),
            "POST /jobs HTTP/1.1\r\nHost: perfbench\r\nConnection: keep-alive\r\n\
             Content-Length: 10\r\n\r\n{\"bits\":8}"
        );
    }

    #[test]
    fn a_bodiless_request_is_one_write_too() {
        let mut w = Writes::default();
        send_request(&mut w, "GET", "/healthz", "").unwrap();
        assert_eq!(w.0.len(), 1);
        assert!(w.0[0].ends_with(b"Content-Length: 0\r\n\r\n"));
    }

    #[test]
    fn responses_are_framed_by_content_length() {
        let raw = b"HTTP/1.1 201 Created\r\nContent-Length: 2\r\nConnection: keep-alive\r\n\r\n{}X";
        let mut r = &raw[..];
        let (status, keep, body) = read_response(&mut r).unwrap();
        assert_eq!((status, keep, body.as_str()), (201, true, "{}"));
        assert_eq!(r, b"X", "the next response's bytes stay unread");
    }
}
