//! In-process tests of the daemon's execution path: no socket, the
//! test's own threads are the owners.

use std::io::Cursor;

use super::*;
use crate::protocol::{encode_transform, parse_response, read_frame};

/// `execute_batch` panics on a batch of this size (its `#[cfg(test)]`
/// hook): a kernel path with a bug in it.
pub(super) const PANICKING_SIZE: usize = 3;

fn vm_only(config: ServerConfig) -> Arc<Server> {
    Server::new(ServerConfig {
        native: false,
        ..config
    })
    .expect("server")
}

fn sample_input(n: usize) -> Vec<f64> {
    (0..2 * n)
        .map(|i| (i * 37 % 97) as f64 * 0.25 - 12.0)
        .collect()
}

/// What any tier must answer bitwise: the plan's VM program, run here.
fn expected_bits(server: &Server, n: usize, x: &[f64]) -> Vec<u64> {
    let plan = server.store.entry(n).expect("plan");
    let mut y = vec![0.0; plan.vm().n_out];
    plan.run_vm(x, &mut y);
    y.iter().map(|v| v.to_bits()).collect()
}

/// One request through `admit` as a connection thread makes it, its
/// samples at the front of buffers it owns; the reply as that thread
/// would send it. The buffers must be back, whoever executed the job.
fn admit_owned(server: &Server, n: usize, x: Vec<f64>, deadline_ms: Option<u32>) -> Response {
    let mut bufs = Buffers {
        input: x.clone(),
        output: Vec::new(),
    };
    let outcome = server.admit(n, &mut bufs, deadline_ms);
    assert_eq!(bufs.input, x, "the owner's input buffer came back");
    match outcome {
        Outcome::Transformed { tier, n_out } => Response::Transformed {
            tier,
            data: bufs.output[..n_out].to_vec(),
        },
        Outcome::Other(response) => response,
    }
}

fn transformed_bits(response: Response) -> Vec<u64> {
    match response {
        Response::Transformed { data, .. } => data.iter().map(|v| v.to_bits()).collect(),
        other => panic!("transform answered {other:?}"),
    }
}

#[test]
fn a_panicking_executor_frees_its_slot_and_answers_its_batch() {
    // One slot, batches of two and a window no test outlives: whichever
    // owner pops first holds the slot until the other's job joins it, so
    // the panic always has a second owner's job in its batch.
    let server = vm_only(ServerConfig {
        workers: 1,
        batch_max: 2,
        batch_window: Duration::from_secs(600),
        ..ServerConfig::default()
    });
    let outcomes: Vec<_> = std::thread::scope(|scope| {
        let owners: Vec<_> = (0..2)
            .map(|_| {
                scope.spawn(|| {
                    admit_owned(&server, PANICKING_SIZE, sample_input(PANICKING_SIZE), None)
                })
            })
            .collect();
        owners.into_iter().map(|o| o.join()).collect()
    });
    // The executor unwound; the other owner was answered, not stranded.
    assert_eq!(outcomes.iter().filter(|o| o.is_err()).count(), 1);
    let answered = outcomes
        .into_iter()
        .find_map(Result::ok)
        .expect("one reply");
    assert!(
        matches!(answered, Response::Error { class: b'i', .. }),
        "the panicked batch answered {answered:?}"
    );
    // With `workers: 1` a leaked slot would park this request for ever.
    // (Its deadline is one the window cannot fit in, so it is not held.)
    assert_eq!(server.queue.lock().unwrap().executing, 0);
    let x = sample_input(8);
    assert_eq!(
        transformed_bits(admit_owned(&server, 8, x.clone(), Some(60_000))),
        expected_bits(&server, 8, &x)
    );
}

#[test]
fn serve_stream_answers_one_session_on_the_calling_thread() {
    let server = vm_only(ServerConfig::default());
    let x = sample_input(16);
    let mut session = Vec::new();
    for payload in [encode_transform(16, None, &x), vec![b'H'], vec![b'D']] {
        write_frame(&mut session, &payload).expect("request frame");
    }
    let mut replies = Vec::new();
    server.serve_stream(&mut Cursor::new(session), &mut replies);
    let mut r = replies.as_slice();
    let mut next = || parse_response(&read_frame(&mut r).expect("reply frame")).expect("reply");
    assert_eq!(transformed_bits(next()), expected_bits(&server, 16, &x));
    match next() {
        Response::Text(t) => assert!(t.starts_with("ok ") && t.contains("plans=1"), "{t}"),
        other => panic!("health answered {other:?}"),
    }
    assert_eq!(next(), Response::Text("drained".into()));
    assert!(r.is_empty(), "one reply per request");
    assert!(server.is_shut_down());
}
