//! One planted violation per rule clippy enforces. Each sits on one line
//! that names its rule id, so the id reaches clippy's output only when
//! the lint fires on that line.

#![deny(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

/// # Panics
/// Always, by design.
pub fn unwrap(x: Option<u8>) -> u8 { x.unwrap() } // R1 unwrap

/// # Panics
/// Always, by design.
pub fn expect(x: Option<u8>) -> u8 { x.expect("planted") } // R1 expect

/// # Panics
/// Always, by design.
pub fn bare_panic() { panic!("planted") } // R1 panic

/// Can panic, but documents no `# Panics` section.
pub fn undocumented(x: u8) -> u8 { assert!(x > 0, "planted"); x } // R2

/// Spawns a raw thread.
pub fn thread() { let _ = std::thread::spawn(|| {}); } // R7

/// Prints from library code.
pub fn print() { println!("planted"); } // R8

/// Truncates in place.
pub fn write() { let _ = std::fs::write("planted", b""); } // R9

/// Reads the wall clock.
pub fn clock() { let _ = std::time::Instant::now(); } // R10

/// Opens a raw socket.
pub fn socket() { let _ = std::net::TcpStream::connect("127.0.0.1:9"); } // R11

/// Spawns a child process.
pub fn child() { let _ = std::process::Command::new("planted").status(); } // R12
