//! Helpers shared by the socket integration tests.

use std::io::ErrorKind;
use std::os::unix::net::UnixStream;
use std::path::Path;
use std::time::{Duration, Instant};

/// Blocks until the server at `path` takes connections, by connecting
/// to it (the probe connection is dropped at once; the server greets it
/// and reads end of input). The socket file appears at `bind`, before
/// `listen`, so its existence alone would let the first client be
/// refused.
pub fn wait_for_socket(path: &Path) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        match UnixStream::connect(path) {
            Ok(_) => return,
            Err(e) if matches!(e.kind(), ErrorKind::NotFound | ErrorKind::ConnectionRefused) => {
                assert!(
                    Instant::now() < deadline,
                    "server never listened on {path:?}: {e}"
                );
                std::thread::sleep(Duration::from_millis(5));
            }
            Err(e) => panic!("connecting to {path:?}: {e}"),
        }
    }
}
