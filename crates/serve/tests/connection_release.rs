//! A `Server` holds only its open connections: an ended session's socket
//! closes and its thread is reaped. One test per file, so no other test's
//! sockets share the process while it counts descriptors.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, TcpStream};

use rlc_serve::{ServeConfig, Server};

#[test]
fn sequential_connections_leave_the_descriptor_count_flat() {
    let server = Server::bind(("127.0.0.1", 0), ServeConfig::default()).expect("bind");
    let addr = server.local_addr();
    let accept_loop = std::thread::spawn(move || server.run());
    // One whole session: a request, its reply, then EOF both ways.
    let session = |request: &str| {
        let mut stream = TcpStream::connect(addr).expect("connect");
        stream.write_all(request.as_bytes()).expect("send request");
        stream.shutdown(Shutdown::Write).expect("half-close");
        let mut reader = BufReader::new(stream);
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        reader.read_to_end(&mut Vec::new()).expect("read to EOF");
        reply
    };
    let open_descriptors = || std::fs::read_dir("/proc/self/fd").expect("procfs").count();

    (0..10).for_each(|_| drop(session("metrics\n")));
    let before = open_descriptors();
    for _ in 0..300 {
        let reply = session("metrics\n");
        assert!(reply.contains("\"type\": \"metrics\""), "{reply}");
    }
    let after = open_descriptors();
    // A session may still sit between its EOF and its registry removal;
    // a leak grows by one descriptor per connection.
    assert!(
        after <= before + 4,
        "300 sequential connections grew open descriptors from {before} to {after}"
    );

    assert!(session("shutdown\n").contains("\"type\": \"stats\""));
    accept_loop.join().expect("accept thread").expect("run");
}
