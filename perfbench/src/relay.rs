//! A byte-counting TCP relay placed in front of a shard in the traced run:
//! every byte the coordinator and the shard exchange passes through it.

use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// A relay from a local ephemeral port to one target.
pub struct Relay {
    addr: SocketAddr,
    bytes: Arc<AtomicU64>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<()>>,
}

impl Relay {
    pub fn start(target: SocketAddr) -> std::io::Result<Relay> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let bytes = Arc::new(AtomicU64::new(0));
        let stop = Arc::new(AtomicBool::new(false));
        let (count, quit) = (Arc::clone(&bytes), Arc::clone(&stop));
        let acceptor = std::thread::spawn(move || {
            let mut pumps: Vec<JoinHandle<()>> = Vec::new();
            for client in listener.incoming() {
                if quit.load(Ordering::SeqCst) {
                    break;
                }
                let Ok(client) = client else { continue };
                let Ok(upstream) = TcpStream::connect(target) else {
                    continue;
                };
                for (from, to) in [
                    (client.try_clone(), upstream.try_clone()),
                    (upstream.try_clone(), client.try_clone()),
                ] {
                    if let (Ok(from), Ok(to)) = (from, to) {
                        let count = Arc::clone(&count);
                        pumps.push(std::thread::spawn(move || pump(from, to, &count)));
                    }
                }
                // Join the pumps of closed connections as we go.
                let (done, open): (Vec<_>, Vec<_>) =
                    pumps.into_iter().partition(JoinHandle::is_finished);
                for handle in done {
                    let _ = handle.join();
                }
                pumps = open;
            }
            for handle in pumps {
                let _ = handle.join();
            }
        });
        Ok(Relay {
            addr,
            bytes,
            stop,
            acceptor: Some(acceptor),
        })
    }

    /// The address to connect to instead of the target.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Bytes relayed so far, both directions.
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::SeqCst)
    }
}

impl Drop for Relay {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        // Wake the blocking accept so it sees the flag.
        let _ = TcpStream::connect(self.addr);
        if let Some(acceptor) = self.acceptor.take() {
            let _ = acceptor.join();
        }
    }
}

/// Copy `from` to `to` until end of stream, counting bytes, then pass the
/// end of stream on.
fn pump(mut from: TcpStream, mut to: TcpStream, count: &AtomicU64) {
    let _ = from.set_read_timeout(Some(Duration::from_secs(60)));
    let mut buf = vec![0u8; 64 * 1024];
    loop {
        match from.read(&mut buf) {
            Ok(0) | Err(_) => break,
            Ok(n) => {
                count.fetch_add(n as u64, Ordering::SeqCst);
                if to.write_all(&buf[..n]).is_err() {
                    break;
                }
            }
        }
    }
    let _ = to.shutdown(Shutdown::Write);
}
