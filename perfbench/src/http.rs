//! A minimal HTTP/1.1 client for the service's one-shot connections.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::Duration;

/// Send one request and read the whole response (the server closes the
/// connection after replying). Returns the status code and body.
pub fn request(
    addr: SocketAddr,
    method: &str,
    path: &str,
    body: &str,
) -> io::Result<(u16, String)> {
    let mut stream = TcpStream::connect(addr)?;
    stream.set_read_timeout(Some(Duration::from_secs(60)))?;
    stream.set_nodelay(true)?;
    write!(
        stream,
        "{method} {path} HTTP/1.1\r\nHost: {addr}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    )?;
    stream.flush()?;
    let mut raw = Vec::new();
    stream.read_to_end(&mut raw)?;
    abort_on_close(&stream);
    let text = String::from_utf8(raw)
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidData, "response is not UTF-8"))?;
    let (head, body) = text
        .split_once("\r\n\r\n")
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no header terminator"))?;
    let status = head
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no status code"))?;
    Ok((status, body.to_string()))
}

/// Make the coming close reset the connection instead of leaving it in
/// TIME_WAIT. One client host opens thousands of connections a second to
/// one port; left in TIME_WAIT they fill the loopback port range within a
/// run or two and slow every later `connect`, so each run would measure
/// the runs before it. Real clients come from many addresses and never
/// meet that limit. Called only after the server has sent its whole reply
/// and closed its side.
#[cfg(target_os = "linux")]
fn abort_on_close(stream: &TcpStream) {
    use std::os::fd::AsRawFd;

    #[repr(C)]
    struct Linger {
        l_onoff: i32,
        l_linger: i32,
    }
    const SOL_SOCKET: i32 = 1;
    const SO_LINGER: i32 = 13;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, name: i32, value: *const Linger, len: u32) -> i32;
    }
    let linger = Linger {
        l_onoff: 1,
        l_linger: 0,
    };
    // SAFETY: the descriptor belongs to `stream`, which outlives the call,
    // and `value`/`len` describe one live, properly laid out `struct linger`.
    // A failure only leaves the default close behaviour, so it is ignored.
    unsafe {
        setsockopt(
            stream.as_raw_fd(),
            SOL_SOCKET,
            SO_LINGER,
            &linger,
            std::mem::size_of::<Linger>() as u32,
        );
    }
}

#[cfg(not(target_os = "linux"))]
fn abort_on_close(_stream: &TcpStream) {}
