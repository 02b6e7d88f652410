//! One keep-alive HTTP/1.1 client connection, just enough for the
//! serving tier's routes. Failures come back as `Err` so the caller can
//! count them instead of aborting the run.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    pub fn open(addr: SocketAddr) -> std::io::Result<Conn> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(30)))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// Sends one request and reads the Content-Length framed reply.
    pub fn request(
        &mut self,
        method: &str,
        path: &str,
        body: &str,
    ) -> Result<(u16, String), String> {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: bench\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.writer
            .write_all(req.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        let mut line = String::new();
        self.reader
            .read_line(&mut line)
            .map_err(|e| format!("status line: {e}"))?;
        let status: u16 = line
            .split_whitespace()
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("bad status line `{}`", line.trim_end()))?;
        let mut content_length = 0usize;
        loop {
            line.clear();
            self.reader
                .read_line(&mut line)
                .map_err(|e| format!("header: {e}"))?;
            let trimmed = line.trim_end();
            if trimmed.is_empty() {
                break;
            }
            if let Some((k, v)) = trimmed.split_once(':') {
                if k.eq_ignore_ascii_case("content-length") {
                    content_length = v.trim().parse().map_err(|_| "bad content-length")?;
                }
            }
        }
        let mut buf = vec![0u8; content_length];
        self.reader
            .read_exact(&mut buf)
            .map_err(|e| format!("body: {e}"))?;
        String::from_utf8(buf)
            .map(|b| (status, b))
            .map_err(|_| "body is not UTF-8".to_owned())
    }
}

/// The `"truth"` of the first result in a `/query` reply body.
pub fn first_truth(body: &str) -> Option<&str> {
    let rest = &body[body.find("\"truth\":\"")? + 9..];
    Some(&rest[..rest.find('"')?])
}

#[cfg(test)]
mod tests {
    #[test]
    fn extracts_truth() {
        let body = r#"{"epoch":3,"results":[{"query":"?- win(n1).","truth":"unknown"}]}"#;
        assert_eq!(super::first_truth(body), Some("unknown"));
        assert_eq!(super::first_truth("{}"), None);
    }
}
