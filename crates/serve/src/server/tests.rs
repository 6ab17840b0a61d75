//! In-process tests of the daemon's execution path: no socket, the
//! test's own threads are the owners.

use std::io::Cursor;

use super::*;
use crate::protocol::{encode_request, parse_response, read_frame, KIND_DFT};

/// `execute` panics on a job of this size (its `#[cfg(test)]` hook): a
/// kernel path with a bug in it.
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
fn a_panicking_executor_frees_its_slot_and_answers_the_job_it_ran() {
    // One slot. An older panicking job waits at the front of the queue,
    // its owner parked (here: this thread, holding the reply slot), so
    // the next owner pops it before its own and runs it: the panic
    // always unwinds through another owner's job.
    let server = vm_only(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    });
    let older = Arc::new(Mutex::new(None));
    server.queue.lock().unwrap().jobs.push_back(Job {
        n: PANICKING_SIZE,
        bufs: Buffers {
            input: sample_input(PANICKING_SIZE),
            output: Vec::new(),
        },
        deadline: None,
        admitted: Instant::now(),
        reply: Arc::clone(&older),
    });
    let executor = std::thread::scope(|scope| {
        scope
            .spawn(|| admit_owned(&server, 8, sample_input(8), None))
            .join()
    });
    // The executor unwound; the older job was answered, not stranded.
    assert!(executor.is_err(), "the executor ran the panicking job");
    let answered = older.lock().unwrap().take().map(|(outcome, _)| outcome);
    assert!(
        matches!(
            answered,
            Some(Outcome::Other(Response::Error { class: b'i', .. }))
        ),
        "the panicked job was not answered"
    );
    // With `workers: 1` a leaked slot would park this request for ever.
    assert_eq!(server.queue.lock().unwrap().executing, 0);
    let x = sample_input(8);
    assert_eq!(
        transformed_bits(admit_owned(&server, 8, x.clone(), None)),
        expected_bits(&server, 8, &x)
    );
}

#[test]
fn serve_stream_answers_one_session_on_the_calling_thread() {
    let server = vm_only(ServerConfig::default());
    let x = sample_input(16);
    let mut session = Vec::new();
    let transform = Request::Transform {
        kind: KIND_DFT,
        n: 16,
        deadline_ms: None,
        data: x.clone(),
    };
    for request in [transform, Request::Health, Request::Drain] {
        write_frame(&mut session, &encode_request(&request)).expect("request frame");
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
