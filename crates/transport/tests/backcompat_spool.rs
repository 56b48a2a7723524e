//! Fixture for the queue spool format, the only format a spool has: a frame
//! laid down byte for byte as the current queue writes it (`[u32 le len]
//! [payload][u64 le FNV-1a]`). A spool written by this queue must reopen
//! and drain unchanged.

use delta_transport::PersistentQueue;

const PAYLOAD: &[u8] = b"fixture-payload-v0";
/// FNV-1a (offset 0xcbf29ce484222325, prime 0x100000001b3) of `PAYLOAD`.
const PAYLOAD_FNV1A: u64 = 0xbe2b00c793cf0156;

fn spool_fixture() -> Vec<u8> {
    let mut frame = Vec::new();
    frame.extend_from_slice(&(PAYLOAD.len() as u32).to_le_bytes());
    frame.extend_from_slice(PAYLOAD);
    frame.extend_from_slice(&PAYLOAD_FNV1A.to_le_bytes());
    frame
}

#[test]
fn spool_fixture_bytes_reopen_and_drain_unchanged() {
    let dir = std::env::temp_dir().join(format!(
        "delta-spool-backcompat-{}-{:?}",
        std::process::id(),
        std::thread::current().id()
    ));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("fixture.q");
    let _ = std::fs::remove_file(&path);
    let _ = std::fs::remove_file(PersistentQueue::ack_file(&path));
    std::fs::write(&path, spool_fixture()).unwrap();

    let q = PersistentQueue::open(&path).unwrap();
    assert_eq!(q.total(), 1, "the fixture frame scanned as one message");
    let (idx, payload) = q.dequeue().unwrap().expect("message delivered");
    assert_eq!(idx, 0);
    assert_eq!(payload, PAYLOAD);
    // The queue keeps appending in the same format after the fixture frame.
    q.enqueue(b"appended").unwrap();
    let (_, payload) = q.dequeue().unwrap().expect("appended message");
    assert_eq!(payload, b"appended");
    // And the arena path reads the fixture frame identically.
    q.rewind_to(0);
    let mut arena = Vec::new();
    let run = q.dequeue_run(10, &mut arena).unwrap();
    assert_eq!(run.len(), 2);
    assert_eq!(&arena[run[0].1.clone()], PAYLOAD);
}
