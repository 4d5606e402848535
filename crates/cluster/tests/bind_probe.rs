//! Two partition services started on one Unix socket path: the second
//! bind must fail with `AddrInUse`, and its liveness probe must not cost
//! the first service its coordinator — the probe's connection closes
//! before any hello and is skipped, so the real coordinator still
//! completes the handshake afterwards.

use mobieyes_cluster::serve_partition;
use mobieyes_net::{Endpoint, FramedConn, Listener, TransportError};

#[test]
fn second_bind_on_a_live_path_fails_and_leaves_the_service_serving() {
    let path =
        std::env::temp_dir().join(format!("mobieyes-bind-probe-{}.sock", std::process::id()));
    let ep = Endpoint::Uds(path.clone());
    let listener = Listener::bind(&ep).unwrap();
    let service = std::thread::spawn(move || serve_partition(listener, 3));

    assert!(matches!(
        Listener::bind(&ep),
        Err(TransportError::AddrInUse(_))
    ));

    let mut conn = FramedConn::new(ep.connect().unwrap());
    conn.send_hello(0).unwrap();
    assert_eq!(conn.expect_hello().unwrap(), 3);
    // The coordinator vanishing ends the service loop.
    drop(conn);
    let _ = service.join().expect("service thread");
    assert!(!path.exists(), "the service removes its socket on exit");
}
