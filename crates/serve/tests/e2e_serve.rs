//! End-to-end duplex tests for the SYMR front door.
//!
//! Every test drives a [`ServerCore`] through the same byte-level wire a
//! TCP client would use: encode client frames, feed, pump, drain, decode
//! server frames. No test reaches around the protocol.

use symphony::{KernelConfig, SimDuration};
use symphony_rpc::{
    ClientMsg, ErrCode, FrameReader, ServerMsg, SessionStatus, CONN_SCOPE, WIRE_VERSION,
};
use symphony_serve::replay::{agent_source, hostile_source, rag_source, standard_kernel};
use symphony_serve::{run_replay, CloseReason, ReplaySpec, ServeConfig, ServerCore, WorkloadKind};

/// A client end of one loopback connection.
struct Client {
    conn: u64,
    reader: FrameReader,
}

impl Client {
    fn connect(core: &mut ServerCore, tenant: u64) -> Client {
        let mut c = Client {
            conn: core.open_conn(),
            reader: FrameReader::new(),
        };
        c.send(
            core,
            &ClientMsg::Hello {
                version: WIRE_VERSION,
                tenant,
            },
        );
        let msgs = c.drain(core);
        assert!(
            matches!(msgs.as_slice(), [ServerMsg::HelloOk { version, .. }] if *version == WIRE_VERSION),
            "handshake reply: {msgs:?}"
        );
        c
    }

    fn send(&mut self, core: &mut ServerCore, msg: &ClientMsg) {
        let mut wire = Vec::new();
        msg.encode(&mut wire);
        core.feed(self.conn, &wire);
    }

    fn drain(&mut self, core: &mut ServerCore) -> Vec<ServerMsg> {
        self.reader.feed(&core.take_output(self.conn));
        let mut out = Vec::new();
        while let Some((tag, payload)) = self.reader.next_frame().expect("clean client wire") {
            out.push(ServerMsg::decode(tag, &payload).expect("decodable server frame"));
        }
        out
    }

    fn submit(&mut self, core: &mut ServerCore, session: u64, source: &str, args: &str) {
        self.send(
            core,
            &ClientMsg::Submit {
                session,
                not_before_ns: 0,
                fuel: 0,
                name: format!("e2e-{session}"),
                args: args.to_string(),
                source: source.to_string(),
            },
        );
    }
}

fn new_core() -> ServerCore {
    ServerCore::new(
        standard_kernel(KernelConfig::for_tests()),
        ServeConfig::default(),
    )
}

fn run_once(source: &str, args: &str) -> Vec<ServerMsg> {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, source, args);
    core.pump();
    client.drain(&mut core)
}

#[test]
fn submit_streams_and_completes_over_the_wire() {
    let msgs = run_once(&agent_source(2, 8), "hello serving");
    assert!(
        matches!(msgs.first(), Some(ServerMsg::Accepted { session: 1, .. })),
        "first reply: {msgs:?}"
    );
    let streams = msgs
        .iter()
        .filter(|m| matches!(m, ServerMsg::Stream { .. }))
        .count();
    assert!(streams >= 2, "expected incremental chunks, got {streams}");
    let Some(ServerMsg::Done {
        session: 1,
        status: SessionStatus::Ok,
        emitted_tokens,
        at_ns,
        ..
    }) = msgs.last()
    else {
        panic!("missing DONE{{Ok}}: {:?}", msgs.last());
    };
    assert!(*emitted_tokens > 0, "no tokens accounted");
    assert!(*at_ns > 0, "virtual completion time not stamped");
    // STREAM timestamps are monotone and precede the DONE.
    let mut last = 0;
    for m in &msgs {
        if let ServerMsg::Stream { at_ns, .. } = m {
            assert!(*at_ns >= last);
            last = *at_ns;
        }
    }
    assert!(*at_ns >= last);
}

#[test]
fn streamed_output_is_byte_identical_across_runs() {
    let a = run_once(&rag_source(12), "1|what is a lip?");
    let b = run_once(&rag_source(12), "1|what is a lip?");
    let text = |msgs: &[ServerMsg]| -> String {
        msgs.iter()
            .filter_map(|m| match m {
                ServerMsg::Stream { text, .. } => Some(text.clone()),
                _ => None,
            })
            .collect()
    };
    assert!(!text(&a).is_empty());
    assert_eq!(text(&a), text(&b));
    // Not just the text: the whole reply sequence matches.
    assert_eq!(format!("{a:?}"), format!("{b:?}"));
}

#[test]
fn first_frame_must_be_hello() {
    let mut core = new_core();
    let conn = core.open_conn();
    let mut wire = Vec::new();
    ClientMsg::Ping { nonce: 7 }.encode(&mut wire);
    core.feed(conn, &wire);
    let mut reader = FrameReader::new();
    reader.feed(&core.take_output(conn));
    let (tag, payload) = reader.next_frame().unwrap().unwrap();
    let msg = ServerMsg::decode(tag, &payload).unwrap();
    assert!(
        matches!(
            msg,
            ServerMsg::Error {
                session: CONN_SCOPE,
                code: ErrCode::NotHello,
                ..
            }
        ),
        "{msg:?}"
    );
    assert_eq!(core.close_reason(conn), Some(CloseReason::Error));
}

#[test]
fn version_mismatch_is_refused() {
    let mut core = new_core();
    let conn = core.open_conn();
    let mut wire = Vec::new();
    ClientMsg::Hello {
        version: WIRE_VERSION + 1,
        tenant: 1,
    }
    .encode(&mut wire);
    core.feed(conn, &wire);
    let mut reader = FrameReader::new();
    reader.feed(&core.take_output(conn));
    let (tag, payload) = reader.next_frame().unwrap().unwrap();
    assert!(matches!(
        ServerMsg::decode(tag, &payload).unwrap(),
        ServerMsg::Error {
            code: ErrCode::BadVersion,
            ..
        }
    ));
    assert!(core.is_closed(conn));
}

#[test]
fn corrupt_bytes_tear_the_connection_down() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    let mut wire = Vec::new();
    ClientMsg::Ping { nonce: 1 }.encode(&mut wire);
    let last = wire.len() - 1;
    wire[last] ^= 0xff; // break the checksum
    core.feed(client.conn, &wire);
    let msgs = client.drain(&mut core);
    assert!(
        matches!(
            msgs.as_slice(),
            [ServerMsg::Error {
                session: CONN_SCOPE,
                code: ErrCode::BadFrame,
                ..
            }]
        ),
        "{msgs:?}"
    );
    assert_eq!(core.close_reason(client.conn), Some(CloseReason::Error));
}

#[test]
fn cancel_yields_done_cancelled() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 5, &agent_source(3, 16), "to be cancelled");
    client.send(&mut core, &ClientMsg::Cancel { session: 5 });
    core.pump();
    let msgs = client.drain(&mut core);
    assert!(matches!(
        msgs.first(),
        Some(ServerMsg::Accepted { session: 5, .. })
    ));
    assert!(
        matches!(
            msgs.last(),
            Some(ServerMsg::Done {
                session: 5,
                status: SessionStatus::Cancelled,
                ..
            })
        ),
        "{:?}",
        msgs.last()
    );
    assert_eq!(core.live_sessions(), 0);
}

#[test]
fn cancelling_an_unknown_session_is_a_typed_session_error() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.send(&mut core, &ClientMsg::Cancel { session: 42 });
    let msgs = client.drain(&mut core);
    assert!(matches!(
        msgs.as_slice(),
        [ServerMsg::Error {
            session: 42,
            code: ErrCode::NoSuchSession,
            ..
        }]
    ));
    assert!(!core.is_closed(client.conn), "session errors are not fatal");
}

#[test]
fn quota_and_capacity_shed_with_typed_errors() {
    let cfg = ServeConfig {
        tenant_session_quota: 1,
        max_live_sessions: 2,
        ..ServeConfig::default()
    };
    let mut core = ServerCore::new(standard_kernel(KernelConfig::for_tests()), cfg);
    // Tenant 1 fills its quota of one...
    let mut c1 = Client::connect(&mut core, 1);
    c1.submit(&mut core, 1, &agent_source(1, 4), "a");
    c1.submit(&mut core, 2, &agent_source(1, 4), "b");
    let msgs = c1.drain(&mut core);
    assert!(matches!(msgs[0], ServerMsg::Accepted { session: 1, .. }));
    assert!(
        matches!(
            msgs[1],
            ServerMsg::Error {
                session: 2,
                code: ErrCode::QuotaExceeded,
                ..
            }
        ),
        "{:?}",
        msgs[1]
    );
    // ...tenant 2 takes the last global slot, tenant 3 is shed busy.
    let mut c2 = Client::connect(&mut core, 2);
    c2.submit(&mut core, 1, &agent_source(1, 4), "c");
    assert!(matches!(
        c2.drain(&mut core).as_slice(),
        [ServerMsg::Accepted { .. }]
    ));
    let mut c3 = Client::connect(&mut core, 3);
    c3.submit(&mut core, 1, &agent_source(1, 4), "d");
    assert!(matches!(
        c3.drain(&mut core).as_slice(),
        [ServerMsg::Error {
            code: ErrCode::ServerBusy,
            ..
        }]
    ));
    // Once the backlog drains, the tenant can submit again.
    core.pump();
    c1.drain(&mut core);
    c1.submit(&mut core, 3, &agent_source(1, 4), "e");
    core.pump();
    let msgs = c1.drain(&mut core);
    assert!(matches!(
        msgs.first(),
        Some(ServerMsg::Accepted { session: 3, .. })
    ));
}

#[test]
fn malformed_programs_are_rejected_at_the_door() {
    let msgs = run_once("let = broken syntax here", "x");
    assert!(
        matches!(
            msgs.as_slice(),
            [ServerMsg::Error {
                session: 1,
                code: ErrCode::ProgramRejected,
                ..
            }]
        ),
        "{msgs:?}"
    );
}

#[test]
fn duplicate_and_reserved_session_ids_are_refused() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 0, &agent_source(1, 4), "zero");
    client.submit(&mut core, 9, &agent_source(1, 4), "first");
    client.submit(&mut core, 9, &agent_source(1, 4), "again");
    let msgs = client.drain(&mut core);
    assert!(matches!(
        msgs[0],
        ServerMsg::Error {
            session: 0,
            code: ErrCode::ProgramRejected,
            ..
        }
    ));
    assert!(matches!(msgs[1], ServerMsg::Accepted { session: 9, .. }));
    assert!(matches!(
        msgs[2],
        ServerMsg::Error {
            session: 9,
            code: ErrCode::DuplicateSession,
            ..
        }
    ));
}

#[test]
fn slow_client_is_shed_with_sessions_cancelled() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.drain(&mut core);
    core.set_conn_window(client.conn, 64); // collapse the send window
    client.submit(&mut core, 1, &agent_source(2, 12), "chatty");
    core.pump();
    let msgs = client.drain(&mut core);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            ServerMsg::Error {
                session: CONN_SCOPE,
                code: ErrCode::SlowClient,
                ..
            }
        )),
        "{msgs:?}"
    );
    assert_eq!(core.close_reason(client.conn), Some(CloseReason::Slow));
    assert_eq!(core.live_sessions(), 0, "shed sessions must be cancelled");
}

#[test]
fn dropped_connection_cancels_its_sessions() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, &agent_source(3, 16), "doomed");
    core.drop_conn(client.conn);
    core.pump();
    assert_eq!(core.live_sessions(), 0);
    assert_eq!(core.close_reason(client.conn), Some(CloseReason::Drop));
    assert_eq!(core.take_output(client.conn), Vec::<u8>::new());
}

#[test]
fn bye_drains_live_sessions_before_bye_ok() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, &agent_source(1, 6), "drain me");
    client.send(&mut core, &ClientMsg::Bye);
    core.pump();
    let msgs = client.drain(&mut core);
    let done_at = msgs
        .iter()
        .position(|m| matches!(m, ServerMsg::Done { .. }))
        .expect("session completes");
    let bye_at = msgs
        .iter()
        .position(|m| matches!(m, ServerMsg::ByeOk))
        .expect("BYE_OK sent");
    assert!(
        done_at < bye_at,
        "BYE_OK must follow the last DONE: {msgs:?}"
    );
    assert_eq!(core.close_reason(client.conn), Some(CloseReason::Bye));
    // Submissions after BYE are refused.
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.send(&mut core, &ClientMsg::Bye);
    client.submit(&mut core, 1, &agent_source(1, 4), "late");
    core.pump();
    let msgs = client.drain(&mut core);
    assert!(
        msgs.iter().any(|m| matches!(
            m,
            ServerMsg::Error {
                session: 1,
                code: ErrCode::ProgramRejected,
                ..
            }
        )),
        "{msgs:?}"
    );
}

#[test]
fn ping_pong_echoes_the_nonce() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.send(&mut core, &ClientMsg::Ping { nonce: 0xdead_beef });
    let msgs = client.drain(&mut core);
    assert!(matches!(
        msgs.as_slice(),
        [ServerMsg::Pong { nonce: 0xdead_beef }]
    ));
}

#[test]
fn serve_metrics_and_telemetry_events_are_recorded() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, &agent_source(1, 6), "metered");
    core.pump();
    client.send(&mut core, &ClientMsg::Bye);
    core.pump();
    client.drain(&mut core);
    let reg = core.kernel().metrics_registry();
    assert_eq!(reg.counter_value("serve.conns.opened"), Some(1));
    assert_eq!(reg.counter_value("serve.conns.closed"), Some(1));
    assert_eq!(reg.counter_value("serve.sessions.accepted"), Some(1));
    assert_eq!(reg.counter_value("serve.sessions.done"), Some(1));
    assert!(reg.counter_value("serve.frames.in").unwrap_or(0) >= 3);
    assert!(reg.counter_value("serve.bytes.out").unwrap_or(0) > 0);
}

#[test]
fn replay_reports_client_observed_latency() {
    let spec = ReplaySpec {
        workload: WorkloadKind::Agent,
        sessions: 10,
        conns: 2,
        tenants: 2,
        ..ReplaySpec::default()
    };
    let report = run_replay(&spec, ServeConfig::default());
    assert_eq!(report.completed(), 10);
    assert!(report.streamed_tokens() > 0);
    let ttft = report.ttft_p(50.0).expect("ttft recorded");
    let p99 = report.latency_p(99.0).expect("latency recorded");
    // Client-observed numbers include the simulated half-RTT each way.
    assert!(ttft >= spec.rtt.as_nanos(), "ttft {ttft} below one RTT");
    assert!(p99 >= ttft, "p99 latency below median ttft");
}

#[test]
fn replay_is_deterministic_and_faults_are_attributed() {
    let spec = ReplaySpec {
        workload: WorkloadKind::Rag,
        sessions: 12,
        conns: 4,
        tenants: 2,
        drop_conns: 1,
        slow_conns: 1,
        ..ReplaySpec::default()
    };
    let a = run_replay(&spec, ServeConfig::default());
    let b = run_replay(&spec, ServeConfig::default());
    assert_eq!(a.streamed, b.streamed, "same seed must stream same bytes");
    assert_eq!(a.render(), b.render(), "same seed must report identically");
    assert_eq!(a.closes.get(&1), Some(&Some(CloseReason::Slow)));
    assert_eq!(a.closes.get(&4), Some(&Some(CloseReason::Drop)));
    assert!(a.completed() > 0, "healthy connections still complete");
    assert!(
        a.completed() < spec.sessions,
        "faulted sessions cannot all complete"
    );
}

#[test]
fn verifier_errors_shed_at_the_door_with_zero_kernel_work() {
    let mut core = new_core();
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, &hostile_source(0), "x");
    core.pump();
    let msgs = client.drain(&mut core);
    let [ServerMsg::Error {
        session: 1,
        code: ErrCode::VerifyRejected,
        detail,
    }] = msgs.as_slice()
    else {
        panic!("expected one VerifyRejected error: {msgs:?}");
    };
    // The detail is the first diagnostic, compiler-style, anchored to the
    // submitted program name.
    assert_eq!(detail, "e2e-1:1:9: undefined variable `missing`");
    // The program never touched the kernel: nothing accepted, nothing
    // scheduled, no fuel burned.
    let reg = core.kernel().metrics_registry();
    assert_eq!(reg.counter_value("serve.sessions.accepted").unwrap_or(0), 0);
    assert_eq!(reg.counter_value("serve.sessions.shed"), Some(1));
    assert_eq!(reg.counter_value("serve.sessions.verify_rejected"), Some(1));
}

#[test]
fn parse_error_details_render_compiler_style() {
    let msgs = run_once("let = broken syntax here", "x");
    let [ServerMsg::Error {
        session: 1,
        code: ErrCode::ProgramRejected,
        detail,
    }] = msgs.as_slice()
    else {
        panic!("expected one ProgramRejected error: {msgs:?}");
    };
    assert!(
        detail.starts_with("e2e-1:1:"),
        "detail must be name:line:col-anchored, got {detail:?}"
    );
    assert!(detail.contains("parse error"), "detail: {detail:?}");
}

#[test]
fn verify_can_be_disabled_and_programs_fault_at_runtime_instead() {
    let mut core = ServerCore::new(
        standard_kernel(KernelConfig::for_tests()),
        ServeConfig {
            verify: false,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&mut core, 1);
    client.submit(&mut core, 1, &hostile_source(0), "x");
    core.pump();
    let msgs = client.drain(&mut core);
    assert!(
        matches!(msgs.first(), Some(ServerMsg::Accepted { session: 1, .. })),
        "without the verifier the bad program is admitted: {msgs:?}"
    );
    let Some(ServerMsg::Done { status, .. }) = msgs.last() else {
        panic!("missing DONE: {:?}", msgs.last());
    };
    assert_ne!(
        *status,
        SessionStatus::Ok,
        "the interpreter must fault where the verifier would have shed"
    );
}

#[test]
fn hostile_flood_is_shed_while_clean_work_completes() {
    let spec = ReplaySpec {
        workload: WorkloadKind::Agent,
        sessions: 12,
        conns: 2,
        tenants: 1,
        hostile_every: 2,
        ..ReplaySpec::default()
    };
    let report = run_replay(&spec, ServeConfig::default());
    let sheds = report.sheds();
    assert_eq!(sheds.get(&ErrCode::VerifyRejected), Some(&6));
    assert_eq!(sheds.len(), 1, "only verifier sheds expected: {sheds:?}");
    assert_eq!(report.completed(), 6, "every clean program completes");
    for s in &report.programs {
        if s.name.starts_with("hostile-") {
            assert_eq!(s.shed, Some(ErrCode::VerifyRejected), "{}", s.name);
            assert_eq!(s.chunks, 0, "{} must stream nothing", s.name);
        } else {
            assert_eq!(s.status, Some(SessionStatus::Ok), "{}", s.name);
        }
    }
}

#[test]
fn admission_cost_hints_reach_the_scheduler() {
    let spec = ReplaySpec {
        workload: WorkloadKind::MixedCost,
        sessions: 8,
        conns: 2,
        tenants: 1,
        ..ReplaySpec::default()
    };
    let core = ServerCore::new(
        standard_kernel(KernelConfig::for_tests()),
        ServeConfig::default(),
    );
    let (report, core) = symphony_serve::replay::run_replay_on(&spec, core);
    assert_eq!(report.completed(), 8);
    assert_eq!(
        core.kernel().cost_hints(),
        8,
        "every admitted program installs a static cost hint"
    );

    // With hints disabled the counter stays at zero.
    let core = ServerCore::new(
        standard_kernel(KernelConfig::for_tests()),
        ServeConfig {
            cost_hints: false,
            ..ServeConfig::default()
        },
    );
    let (_, core) = symphony_serve::replay::run_replay_on(&spec, core);
    assert_eq!(core.kernel().cost_hints(), 0);
}

/// Spawn and join: the paper's Figure 2.
const PARALLEL: &str = include_str!("../../../examples/lipscript/parallel.lip");

#[test]
fn served_sessions_use_no_os_threads() {
    let mut core = new_core();
    // Eight tenants of eight sessions: the door's default quota, full.
    let mut clients: Vec<Client> = (1..=8).map(|t| Client::connect(&mut core, t)).collect();
    for (c, client) in clients.iter_mut().enumerate() {
        for s in 1..=8 {
            let session = (c * 8 + s) as u64;
            match s % 3 {
                0 => client.submit(&mut core, session, PARALLEL, ""),
                1 => client.submit(&mut core, session, &agent_source(2, 6), "a question"),
                _ => client.submit(&mut core, session, &rag_source(6), "1|and an answer?"),
            }
        }
    }
    core.pump();
    let done = clients
        .iter_mut()
        .flat_map(|client| client.drain(&mut core))
        .filter(|m| {
            matches!(
                m,
                ServerMsg::Done {
                    status: SessionStatus::Ok,
                    ..
                }
            )
        })
        .count();
    assert_eq!(done, 64);
    let reg = core.kernel().metrics_registry();
    assert_eq!(reg.counter_value("kernel.lip.hosted_handoffs"), Some(0));
    assert_eq!(reg.gauge("kernel.lip.hosted_threads").get(), 0);
    let steps = reg.counter_value("kernel.lip.inline_steps").unwrap_or(0);
    assert!(steps > 64 * 10, "only {steps} inline steps for 64 sessions");
}

#[test]
fn a_spinning_program_still_runs_out_of_fuel_over_the_wire() {
    let mut core = ServerCore::new(
        standard_kernel(KernelConfig::for_tests()),
        // The verifier's verdict on an unbounded loop is not the point.
        ServeConfig {
            verify: false,
            ..ServeConfig::default()
        },
    );
    let mut client = Client::connect(&mut core, 1);
    client.send(
        &mut core,
        &ClientMsg::Submit {
            session: 1,
            not_before_ns: 0,
            fuel: 50_000,
            name: "spinner".to_string(),
            args: String::new(),
            source: "while (true) {}".to_string(),
        },
    );
    client.submit(&mut core, 2, &agent_source(1, 4), "its neighbour");
    core.pump();
    let msgs = client.drain(&mut core);
    let outcome = |session| {
        msgs.iter().find_map(|m| match m {
            ServerMsg::Done {
                session: s,
                status,
                detail,
                ..
            } if *s == session => Some((*status, detail.clone())),
            _ => None,
        })
    };
    let (status, detail) = outcome(1).expect("the spinner's DONE");
    assert_eq!(status, SessionStatus::Error);
    assert!(detail.contains("out of fuel"), "{detail}");
    let (status, _) = outcome(2).expect("its neighbour's DONE");
    assert_eq!(status, SessionStatus::Ok);
}

#[test]
fn pump_in_slices_streams_the_bytes_of_one_pump() {
    // The TCP shell and `pump` run the kernel in bounded slices. With
    // nothing fed in between, any slicing — `pump`'s included — must put
    // the same bytes on every connection as one unbounded run: staggered
    // arrivals, agents and RAG, a dropped connection and a BYE that
    // drains its sessions first. No slices at all means `pump`.
    fn serve(slices: &[SimDuration]) -> Vec<Vec<u8>> {
        let mut core = new_core();
        let mut clients: Vec<Client> = (1..=4).map(|t| Client::connect(&mut core, t)).collect();
        for (c, client) in clients.iter_mut().enumerate() {
            for s in 1..=4u64 {
                let source = if s % 2 == 0 {
                    rag_source(8)
                } else {
                    agent_source(2, 6)
                };
                client.send(
                    &mut core,
                    &ClientMsg::Submit {
                        session: s,
                        not_before_ns: (c as u64 * 4 + s) * 1_700_000,
                        fuel: 0,
                        name: format!("slice-{c}-{s}"),
                        args: format!("{}|question {s}", s % 4),
                        source,
                    },
                );
            }
        }
        clients[1].send(&mut core, &ClientMsg::Bye);
        core.drop_conn(clients[3].conn);
        if slices.is_empty() {
            core.pump();
        } else {
            let mut calls = 0;
            while !core.pump_for(slices[calls % slices.len()]) {
                calls += 1;
            }
        }
        clients.iter().map(|c| core.take_output(c.conn)).collect()
    }
    let whole = serve(&[SimDuration::MAX]);
    assert!(whole[0].len() > 1_000, "the sessions streamed nothing");
    assert!(serve(&[]) == whole, "pump changed the bytes");
    let ms = SimDuration::from_millis;
    for slices in [
        vec![SimDuration::ZERO],
        vec![ms(1)],
        vec![SimDuration::ZERO, ms(3), SimDuration::MAX],
        vec![SimDuration::from_micros(250), ms(7), ms(40)],
    ] {
        assert!(
            serve(&slices) == whole,
            "slices {slices:?} changed the bytes"
        );
    }
}
