//! The counting relay counts exactly and changes nothing it relays.

use d4py_perfbench::metrics::check_identities;
use d4py_perfbench::probe::Scope;
use d4py_perfbench::relay::Relay;
use d4py_perfbench::workload::{Bench, Workload};
use d4py_sync::ByteBuf;
use redis_lite::client::{Client, Connection};
use redis_lite::resp::{encode, encode_command};
use redis_lite::server::Server;

#[test]
fn relay_counts_a_scripted_client_exactly() {
    let server = Server::start(0).unwrap();
    let relay = Relay::start(server.addr()).unwrap();
    let mut client = Client::connect(relay.addr()).unwrap();
    let script: &[&[&[u8]]] = &[
        &[b"PING"],
        &[b"SET", b"k", b"v"],
        &[b"XGROUP", b"CREATE", b"s", b"g", b"0", b"MKSTREAM"],
        &[b"XADD", b"s", b"*", b"f", b"one"],
        &[b"XADD", b"s", b"*", b"f", b"two"],
        &[
            b"XREADGROUP",
            b"GROUP",
            b"g",
            b"c",
            b"COUNT",
            b"10",
            b"STREAMS",
            b"s",
            b">",
        ],
        &[
            b"XREADGROUP",
            b"GROUP",
            b"g",
            b"c",
            b"COUNT",
            b"10",
            b"STREAMS",
            b"s",
            b">",
        ],
        &[b"HSET", b"h", b"slot", b"state"],
        &[b"get", b"k"],
    ];
    let (mut up, mut down) = (0, 0);
    for cmd in script {
        let reply = client.request(cmd).unwrap();
        assert!(!reply.is_error(), "{cmd:?} -> {reply:?}");
        let mut buf = ByteBuf::with_capacity(64);
        encode_command(cmd, &mut buf);
        up += buf.len() as u64;
        let mut buf = ByteBuf::with_capacity(64);
        encode(&reply, &mut buf);
        down += buf.len() as u64;
    }
    let w = relay.take();
    assert_eq!(w.commands, script.len() as u64);
    assert_eq!(w.round_trips, script.len() as u64, "one request at a time");
    assert_eq!(w.bytes_up, up);
    assert_eq!(w.bytes_down, down);
    assert_eq!(w.connections, 1);
    let verbs: Vec<(&str, u64)> = w.per_verb.iter().map(|(v, n)| (v.as_str(), *n)).collect();
    assert_eq!(
        verbs,
        [
            ("GET", 1),
            ("HSET", 1),
            ("PING", 1),
            ("SET", 1),
            ("XADD", 2),
            ("XGROUP", 1),
            ("XREADGROUP", 2)
        ]
    );
    assert_eq!((w.reads, w.empty_reads), (2, 1));
    assert_eq!(w.empty_read_ratio(), 0.5);
    assert!(w.wait > std::time::Duration::ZERO);
    assert_eq!(relay.take().commands, 0, "take() restarts the counts");
}

#[test]
fn workflow_outputs_through_the_relay_equal_the_direct_path() {
    for workload in [Workload::SmallJobs, Workload::SentimentRedis] {
        let bench = Bench::setup(workload, 3).unwrap();
        let direct = bench.execute(Scope::Edges, None);
        let relay = Relay::start(bench.redis_addr().unwrap()).unwrap();
        let relayed = bench.execute(Scope::Full, Some(relay.addr()));
        let wire = relay.take();
        assert!(direct.failure().is_none(), "{:?}", direct.failure());
        assert!(relayed.failure().is_none(), "{:?}", relayed.failure());
        assert_eq!(relayed.output.check(&direct.output), Ok(()));
        assert!(
            wire.commands > 0,
            "{}: the engine went through the relay",
            workload.name()
        );
        assert_eq!(check_identities(&relayed), Ok(()));
    }
}
