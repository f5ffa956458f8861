//! A deeply nested JSON body must cost the client a 400, not the
//! process: the body parser recurses once per nesting level, so without
//! its depth limit a 100 KB run of `[` overflows the connection
//! thread's stack and aborts the whole server.

use simpadv::ModelSpec;
use simpadv_resilience::CheckpointStore;
use simpadv_serve::protocol::{read_response, write_request};
use simpadv_serve::{client, ServeConfig, ServedModel, Server};
use std::io::BufReader;
use std::net::TcpStream;

#[test]
fn nested_json_bomb_gets_a_400_and_the_server_keeps_answering() {
    let dir = std::env::temp_dir().join("simpadv-serve-hostile-json");
    let _ = std::fs::remove_dir_all(&dir);
    let store = CheckpointStore::open(&dir).unwrap();
    let spec = ModelSpec::small_mlp();
    ServedModel::capture(&spec, &spec.build(1), "mnist", "test").publish(&store).unwrap();
    let server = Server::start(ServeConfig::for_dir(&dir)).unwrap();
    let addr = server.local_addr();
    client::wait_ready(&addr, 5_000_000).unwrap();

    for depth in [1_000, 100_000] {
        let body = format!("{{\"pixels\":{}", "[".repeat(depth));
        let stream = TcpStream::connect(&addr).unwrap();
        let mut writer = stream.try_clone().unwrap();
        write_request(&mut writer, "POST", "/predict", body.as_bytes()).unwrap();
        let response = read_response(&mut BufReader::new(stream)).unwrap();
        assert_eq!(response.status, 400, "depth {depth}");
        let detail = String::from_utf8_lossy(&response.body);
        assert!(detail.contains("nesting deeper than"), "depth {depth}: {detail}");
        assert_eq!(client::healthz(&addr).unwrap().status, "ok", "after depth {depth}");
    }
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}
