// The sharded transport plane: N replicated TCP servers with 4-tuple flow
// steering, beside the one UDP server.
//
//  - Steering is deterministic per 4-tuple (one flow, one replica, always).
//  - An in-batch open lands on the shard its socket id encodes, and the
//    connection's state lives in exactly that replica's engine.
//  - A killed replica is restarted by the reincarnation server without
//    disturbing connections on sibling shards, and its replicated listener
//    comes back so the port keeps accepting.
//  - The one UDP server receives over both RSS legs on a sharded node.
//  - ReincarnationServer::manage() is idempotent.
#include <gtest/gtest.h>

#include <memory>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "src/core/apps.h"
#include "src/core/socket.h"
#include "src/core/testbed.h"
#include "src/net/steering.h"
#include "src/servers/proto.h"

using namespace newtos;

namespace {

TestbedOptions sharded(int tcp_shards) {
  TestbedOptions opts;
  opts.mode = StackMode::kSplitSyscall;
  opts.tcp_shards = tcp_shards;
  return opts;
}

}  // namespace

// The hash is a pure function of the 4-tuple: the same flow always steers
// to the same replica, and a realistic tuple population covers every shard.
TEST(Sharding, SteeringDeterministicPerTuple) {
  const net::Ipv4Addr dst(10, 1, 0, 1);
  std::set<int> hit;
  for (std::uint16_t sport = 30000; sport < 30256; ++sport) {
    const net::Ipv4Addr src(10, 1, 0, 2);
    const int a = net::steer_shard(src, dst, sport, 5001, 4);
    const int b = net::steer_shard(src, dst, sport, 5001, 4);
    EXPECT_EQ(a, b);
    EXPECT_GE(a, 0);
    EXPECT_LT(a, 4);
    hit.insert(a);
  }
  EXPECT_EQ(hit.size(), 4u) << "256 tuples should cover all 4 shards";
  // Single-shard arrangements always steer to 0.
  EXPECT_EQ(net::steer_shard(dst, dst, 1, 2, 1), 0);
}

// Opens spread round-robin over the replicas and the socket id encodes the
// chosen shard; an op chained onto an in-batch open (open+connect in one
// flush) executes on that same shard — the connection must exist in exactly
// the engine the id names.
TEST(Sharding, InBatchOpenLandsOnEncodedShard) {
  Testbed tb(sharded(4));

  AppActor* srv_app = tb.peer().add_app("srv");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.peer(), srv_app, rc);
  receiver.start();

  AppActor* app = tb.newtos().add_app("client");
  std::vector<std::unique_ptr<TcpSocket>> socks;
  app->call([&](sim::Context&) {
    // All eight open+connect pairs ride one submission-ring flush.
    for (int i = 0; i < 8; ++i) {
      socks.push_back(std::make_unique<TcpSocket>(*app));
      socks.back()->connect(tb.newtos().peer_addr(0), 5001, [](bool) {});
    }
  });
  tb.run_until(200 * sim::kMillisecond);

  std::vector<int> shards;
  for (const auto& s : socks) {
    ASSERT_NE(s->id(), 0u);
    const int shard = net::sock_shard(s->id());
    shards.push_back(shard);
    // The connection lives in the engine its id encodes, and nowhere else.
    for (int k = 0; k < tb.newtos().tcp_shard_count(); ++k) {
      const bool here = tb.newtos().tcp_engine(k)->tuple(s->id()).has_value();
      EXPECT_EQ(here, k == shard) << "sock " << s->id() << " shard " << k;
    }
    EXPECT_NE(tb.newtos().tcp_engine(shard)->state(s->id()),
              net::TcpState::Closed);
  }
  // Round-robin assignment: 8 opens over 4 shards touch every shard twice.
  std::vector<int> counts(4, 0);
  for (int s : shards) ++counts[s];
  for (int k = 0; k < 4; ++k) EXPECT_EQ(counts[k], 2) << "shard " << k;

  // Each replica stages its sends in its own pool.
  for (int k = 0; k < 4; ++k) {
    EXPECT_NE(tb.newtos().pools().find_by_name(servers::tcp_shard_name(k) +
                                               ".buf"),
              nullptr);
  }
}

// Inbound flows: the peer connects to one listening port on the system
// under test; SO_REUSEPORT-style replication gives every replica an accept
// queue, the 4-tuple hash spreads the connections, and the aggregate
// arrives intact.
TEST(Sharding, InboundFlowsSpreadAcrossReplicas) {
  Testbed tb(sharded(2));

  AppActor* rx_app = tb.newtos().add_app("rx");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.newtos(), rx_app, rc);
  receiver.start();

  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int i = 0; i < 8; ++i) {
    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(i));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(0);
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(500 * sim::kMillisecond);

  EXPECT_GT(receiver.bytes(), 1u << 20);
  // Both replicas carry flows (8 deterministic tuples cover 2 shards).
  EXPECT_GE(tb.newtos().tcp_engine(0)->connection_count(), 1u);
  EXPECT_GE(tb.newtos().tcp_engine(1)->connection_count(), 1u);
  // Both replicas own an accept queue for the port (the replicated
  // listener), and the replica's copy carries the home shard's socket id.
  ASSERT_GE(tb.newtos().tcp_engine(0)->listeners().size(), 1u);
  ASSERT_GE(tb.newtos().tcp_engine(1)->listeners().size(), 1u);
  EXPECT_EQ(tb.newtos().tcp_engine(0)->listeners()[0].id,
            tb.newtos().tcp_engine(1)->listeners()[0].id);
}

// Kill one replica mid-traffic: its established connections die (the
// paper's deliberate TCP trade-off), the reincarnation server restarts just
// that replica, flows on the sibling shard keep running throughout, and the
// restarted replica's listener replica is restored from storage.
TEST(Sharding, KilledReplicaRestartsWithoutDisturbingSiblings) {
  Testbed tb(sharded(2));

  AppActor* rx_app = tb.newtos().add_app("rx");
  apps::BulkReceiver::Config rc;
  rc.record_series = false;
  apps::BulkReceiver receiver(tb.newtos(), rx_app, rc);
  receiver.start();

  std::vector<std::unique_ptr<apps::BulkSender>> senders;
  for (int i = 0; i < 8; ++i) {
    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(i));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(0);
    senders.push_back(
        std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc));
    senders.back()->start();
  }

  tb.run_until(400 * sim::kMillisecond);
  ASSERT_GE(tb.newtos().tcp_engine(0)->connection_count(), 1u);
  ASSERT_GE(tb.newtos().tcp_engine(1)->connection_count(), 1u);

  const int victim = 1;
  const int sibling = 0;
  auto key_set = [](const std::vector<net::PfStateKey>& keys) {
    std::set<std::tuple<std::uint32_t, std::uint32_t, std::uint16_t,
                        std::uint16_t>>
        out;
    for (const auto& k : keys)
      out.insert({k.src.value, k.dst.value, k.sport, k.dport});
    return out;
  };
  const auto victim_flows_before =
      key_set(tb.newtos().tcp_engine(victim)->connection_keys());
  const auto sibling_flows_before =
      key_set(tb.newtos().tcp_engine(sibling)->connection_keys());
  const std::uint64_t sibling_bytes_before =
      tb.newtos().tcp_engine(sibling)->stats().bytes_in;
  const std::uint32_t incarnation_before =
      tb.newtos().server(servers::tcp_shard_name(victim))->incarnation();

  tb.newtos().manual_restart(servers::tcp_shard_name(victim));
  tb.run_until(800 * sim::kMillisecond);

  // The victim came back (reincarnation restarted only it) with its accept
  // queue for the shared port restored from storage.
  servers::Server* revived =
      tb.newtos().server(servers::tcp_shard_name(victim));
  ASSERT_NE(revived, nullptr);
  EXPECT_TRUE(revived->ready());
  EXPECT_EQ(revived->incarnation(), incarnation_before + 1);
  EXPECT_GE(tb.newtos().tcp_engine(victim)->listeners().size(), 1u);
  // Its established connections died with it (Table I); the senders'
  // retries may have built fresh flows since, but none of the old tuples
  // survive the restart.
  const auto victim_flows_after =
      key_set(tb.newtos().tcp_engine(victim)->connection_keys());
  for (const auto& k : victim_flows_before) {
    EXPECT_EQ(victim_flows_after.count(k), 0u);
  }

  // The sibling never blinked: every pre-kill flow still lives there and
  // bytes kept moving throughout the victim's outage.
  const auto sibling_flows_after =
      key_set(tb.newtos().tcp_engine(sibling)->connection_keys());
  for (const auto& k : sibling_flows_before) {
    EXPECT_EQ(sibling_flows_after.count(k), 1u);
  }
  EXPECT_GT(tb.newtos().tcp_engine(sibling)->stats().bytes_in,
            sibling_bytes_before + (1u << 18));
}

// A listener closed while one replica is down must not be resurrected by
// that replica's storage on restart: only home records restore, and the
// siblings' re-seed carries current state (deletions included).
TEST(Sharding, StaleListenerNotResurrectedAfterOutage) {
  Testbed tb(sharded(2));

  AppActor* app = tb.newtos().add_app("srv");
  auto listener = std::make_unique<TcpListener>(*app);
  app->call([&](sim::Context&) {
    listener->bind_listen(net::Ipv4Addr{}, 5001, 4, [](bool) {});
  });
  tb.run_until(100 * sim::kMillisecond);

  ASSERT_NE(listener->id(), 0u);
  const int home = net::sock_shard(listener->id());
  const int other = 1 - home;
  // Both replicas own an accept queue for the port.
  ASSERT_EQ(tb.newtos().tcp_engine(home)->listeners().size(), 1u);
  ASSERT_EQ(tb.newtos().tcp_engine(other)->listeners().size(), 1u);

  // Kill the replica, and close the listener while it is down — the
  // kShardRepClose towards it is lost.
  tb.newtos().manual_restart(servers::tcp_shard_name(other));
  tb.run_until(101 * sim::kMillisecond);
  listener.reset();  // close rides the ring to the (live) home shard
  tb.run_until(400 * sim::kMillisecond);

  EXPECT_TRUE(tb.newtos().server(servers::tcp_shard_name(other))->ready());
  // Neither replica still owns the closed port.
  EXPECT_EQ(tb.newtos().tcp_engine(home)->listeners().size(), 0u);
  EXPECT_EQ(tb.newtos().tcp_engine(other)->listeners().size(), 0u);
}

// Connections queued in a replica's accept queue survive a sibling's
// restart: the re-seed that follows the sibling's announce is an in-place
// upsert, not a fresh listener that would wipe the queue.
TEST(Sharding, AcceptQueueSurvivesSiblingReseed) {
  Testbed tb(sharded(2));

  AppActor* app = tb.newtos().add_app("srv");
  auto listener = std::make_unique<TcpListener>(*app);
  app->call([&](sim::Context&) {
    // Deliberately no accept handler: connections pile up in the queues.
    listener->bind_listen(net::Ipv4Addr{}, 5001, 8, [](bool) {});
  });

  std::vector<std::unique_ptr<TcpSocket>> peers;
  AppActor* cli_app = tb.peer().add_app("cli");
  cli_app->call_after(20 * sim::kMillisecond, [&](sim::Context&) {
    for (int i = 0; i < 6; ++i) {
      peers.push_back(std::make_unique<TcpSocket>(*cli_app));
      peers.back()->connect(tb.peer().peer_addr(0), 5001, [](bool) {});
    }
  });
  tb.run_until(200 * sim::kMillisecond);

  ASSERT_NE(listener->id(), 0u);
  const int home = net::sock_shard(listener->id());
  const int other = 1 - home;
  const std::size_t queued_on_other =
      tb.newtos().tcp_engine(other)->connection_count();
  ASSERT_GE(queued_on_other, 1u) << "6 tuples should land on both shards";

  // Restart the HOME shard: on re-announce it re-seeds its listener to the
  // sibling, which must keep the sibling's queued connections acceptable.
  tb.newtos().manual_restart(servers::tcp_shard_name(home));
  tb.run_until(500 * sim::kMillisecond);

  std::size_t accepted = 0;
  app->call([&](sim::Context&) {
    while (auto c = listener->accept()) {
      ++accepted;
      c->close({});
    }
  });
  tb.run_until(600 * sim::kMillisecond);
  EXPECT_GE(accepted, queued_on_other);
  listener.reset();
  tb.run_until(650 * sim::kMillisecond);
}

// UDP is one server even on a sharded RSS node.  Datagrams from 16 source
// ports hash over all four RSS queues: queue 0's go from the drivers
// straight to the UDP server's fast path, the other queues' reach it
// through IP, and every one lands in the one bound socket.  A sendto
// auto-bind on the node still reaches storage: a restarted UDP server
// restores the auto-bound port.
TEST(Sharding, UdpServerReceivesOverBothRssLegs) {
  TestbedOptions opts = sharded(4);
  opts.rx_queues = 4;
  Testbed tb(opts);
  Node& dut = tb.newtos();

  AppActor* srv_app = dut.add_app("udp_srv");
  UdpSocket server(*srv_app);
  int received = 0;
  srv_app->call([&](sim::Context&) {
    server.bind(net::Ipv4Addr{}, 5353, [](bool) {});
    server.on_event([&](net::TcpEvent) {
      while (auto d = server.recvfrom_zc()) ++received;
    });
  });

  constexpr int kClients = 16;
  AppActor* cli_app = tb.peer().add_app("udp_cli");
  std::vector<std::unique_ptr<UdpSocket>> clients;
  cli_app->call_after(5 * sim::kMillisecond, [&](sim::Context&) {
    for (int i = 0; i < kClients; ++i) {
      // One socket per datagram: each auto-binds its own source port.
      clients.push_back(std::make_unique<UdpSocket>(*cli_app));
      clients.back()->sendto(256, tb.peer().peer_addr(0), 5353, [](bool) {});
    }
  });

  AppActor* out_app = dut.add_app("udp_out");
  UdpSocket out(*out_app);
  bool sent = false;
  out_app->call_after(5 * sim::kMillisecond, [&](sim::Context&) {
    out.sendto(64, dut.peer_addr(0), 9999, [&](bool ok) { sent = ok; });
  });
  tb.run_until(300 * sim::kMillisecond);

  EXPECT_EQ(received, kClients);
  for (int q = 0; q < 4; ++q) {
    EXPECT_GT(dut.nic(0)->queue_stats(q).rx_frames, 0u) << "queue " << q;
  }
  auto* udp =
      dynamic_cast<servers::UdpServer*>(dut.transport_server('U'));
  ASSERT_NE(udp, nullptr);
  ASSERT_NE(udp->fastpath(), nullptr);
  const std::uint64_t fast = udp->fastpath()->stats().fast_frames;
  EXPECT_GT(fast, 0u);  // queue 0: driver -> udp
  EXPECT_EQ(udp->engine()->stats().datagrams_in,
            static_cast<std::uint64_t>(kClients));
  EXPECT_LT(fast, static_cast<std::uint64_t>(kClients));  // queues 1-3: IP

  ASSERT_TRUE(sent);
  ASSERT_NE(out.id(), 0u);
  dut.server(servers::kUdpName)->kill();
  tb.run_until(600 * sim::kMillisecond);
  ASSERT_TRUE(dut.server(servers::kUdpName)->ready());
  std::uint16_t restored_port = 0;
  for (const auto& rec : dut.udp_engine()->snapshot()) {
    if (rec.id == out.id()) restored_port = rec.lport;
  }
  EXPECT_NE(restored_port, 0) << "the auto-bound port was never stored";
}

// Re-managing a server must not duplicate its heartbeat/restart entry —
// a duplicate Child used to double-count restarts and heartbeat twice.
TEST(Sharding, ReincarnationManageIsIdempotent) {
  Testbed tb(sharded(1));
  servers::Server* ip = tb.newtos().server(servers::kIpName);
  ASSERT_NE(ip, nullptr);
  tb.newtos().reincarnation()->manage(ip);  // second registration: no-op

  tb.run_until(100 * sim::kMillisecond);
  tb.newtos().manual_restart(servers::kIpName);
  tb.run_until(400 * sim::kMillisecond);

  const auto& stats = tb.newtos().reincarnation()->child_stats();
  auto it = stats.find(servers::kIpName);
  ASSERT_NE(it, stats.end());
  EXPECT_EQ(it->second.crashes, 1u);
  EXPECT_EQ(it->second.restarts, 1u);
  EXPECT_TRUE(ip->ready());
}
