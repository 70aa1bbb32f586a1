// Receive-side batching: NIC interrupt coalescing, the packed kDrvRx wire
// format, and GRO aggregation at the IP -> TCP boundary.
//
// Unit level: a direct IpEngine harness feeds crafted bursts and checks the
// merge/flush rules (flow change, out-of-order, flag boundaries, PF
// batching).  System level: the full testbed runs bulk TCP into the system
// under test with coalescing + GRO on and checks amortization (messages per
// frame, ACKs per aggregate), sharded steering, timer flushes, and the loan
// ledger covering a TCP crash mid-aggregate.
#include <gtest/gtest.h>

#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "src/core/apps.h"
#include "src/core/testbed.h"
#include "src/net/ip.h"
#include "src/net/steering.h"
#include "src/servers/driver_server.h"
#include "src/servers/ip_server.h"
#include "src/sim/sim.h"

using namespace newtos;
using namespace newtos::net;

namespace {

// Direct harness around one IpEngine with the GRO hooks installed.
struct GroHost {
  sim::Simulator sim;
  chan::PoolRegistry pools;
  chan::Pool* hdr_pool;
  chan::Pool* rx_pool;
  std::vector<L4AggPacket> aggs;
  std::vector<L4Packet> to_tcp;
  std::vector<std::vector<std::pair<PfQuery, std::uint64_t>>> pf_batches;
  bool pf_enabled;
  std::unique_ptr<IpEngine> ip;

  class Timers : public TimerService {
   public:
    explicit Timers(sim::Simulator* s) : sim_(s) {}
    TimerId schedule(sim::Time d, std::function<void()> fn) override {
      return sim_->after(d, std::move(fn));
    }
    void cancel(TimerId id) override { sim_->cancel(id); }
    sim::Simulator* sim_;
  } timers{&sim};
  class SimClock : public Clock {
   public:
    explicit SimClock(sim::Simulator* s) : sim_(s) {}
    sim::Time now() const override { return sim_->now(); }
    sim::Simulator* sim_;
  } clock{&sim};

  explicit GroHost(bool with_pf = false) : pf_enabled(with_pf) {
    hdr_pool = &pools.create("ip", "hdr", 4u << 20);
    rx_pool = &pools.create("ip", "rx", 4u << 20);

    IpEngine::Env env;
    env.clock = &clock;
    env.timers = &timers;
    env.pools = &pools;
    env.hdr_pool = hdr_pool;
    env.rx_pool = rx_pool;
    env.send_frame = [](int, TxFrame&&, std::uint64_t) {};
    env.deliver = [this](std::uint8_t proto, std::span<const L4Packet> ps) {
      if (proto != kProtoTcp) return;
      if (ps.size() == 1) {
        to_tcp.push_back(ps.front());
        return;
      }
      L4AggPacket a;
      a.segs.assign(ps.begin(), ps.end());
      a.src = ps.front().src;
      a.dst = ps.front().dst;
      std::tie(a.sport, a.dport) = ports(ps.front());
      aggs.push_back(std::move(a));
    };
    env.seg_done = [](std::uint64_t, bool) {};
    if (with_pf) {
      env.pf_check =
          [this](std::span<const std::pair<PfQuery, std::uint64_t>> qs) {
            pf_batches.emplace_back(qs.begin(), qs.end());
          };
    }

    IpConfig cfg;
    Interface ifc;
    ifc.index = 0;
    ifc.mac = MacAddr::local(1);
    ifc.addr = Ipv4Addr(10, 1, 0, 1);
    ifc.subnet = Ipv4Net{Ipv4Addr(10, 1, 0, 0), 24};
    cfg.interfaces.push_back(ifc);
    ip = std::make_unique<IpEngine>(std::move(env), cfg);
  }

  // The (source, destination) ports a delivered packet's frame carries.
  std::pair<std::uint16_t, std::uint16_t> ports(const L4Packet& p) const {
    ByteReader r{pools.read(p.frame).subspan(p.l4_offset, 4)};
    const std::uint16_t sport = r.u16();
    return {sport, r.u16()};
  }

  // One inbound TCP data frame from `src`:`sport` to us:`dport`.
  chan::RichPtr make_tcp(Ipv4Addr src, std::uint16_t sport,
                         std::uint16_t dport, std::uint32_t seq,
                         std::uint16_t payload,
                         std::uint8_t flags = tcpflag::kAck) {
    const std::uint16_t l4_len =
        static_cast<std::uint16_t>(kTcpHeaderLen + payload);
    chan::RichPtr frame = rx_pool->alloc(
        static_cast<std::uint32_t>(kEthHeaderLen + kIpHeaderLen + l4_len));
    auto view = rx_pool->write_view(frame);
    ByteWriter w{view};
    EthHeader eth;
    eth.dst = MacAddr::local(1);
    eth.src = MacAddr::local(9);
    eth.ethertype = kEtherTypeIpv4;
    eth.serialize(w);
    Ipv4Header iph;
    iph.total_length = static_cast<std::uint16_t>(kIpHeaderLen + l4_len);
    iph.protocol = kProtoTcp;
    iph.src = src;
    iph.dst = Ipv4Addr(10, 1, 0, 1);
    iph.serialize(w);
    TcpHeader h;
    h.src_port = sport;
    h.dst_port = dport;
    h.seq = seq;
    h.flags = flags;
    h.window = 1000;
    h.serialize(w);
    for (std::uint16_t i = 0; i < payload; ++i)
      w.u8(static_cast<std::uint8_t>(i));
    return frame;
  }
};

constexpr Ipv4Addr kRemoteA{0x0a010002};  // 10.1.0.2
constexpr Ipv4Addr kRemoteB{0x0a010003};  // 10.1.0.3

}  // namespace

// --- unit: the merge/flush rules ---------------------------------------------------

TEST(Gro, MergesConsecutiveSameFlowSegments) {
  GroHost h;
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(
        h.make_tcp(kRemoteA, 40000, 80, 1000 + 100 * i, 100));
  }
  h.ip->input_burst(0, burst);
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 4u);
  EXPECT_EQ(h.aggs[0].sport, 40000);
  EXPECT_EQ(h.aggs[0].dport, 80);
  EXPECT_TRUE(h.to_tcp.empty());
  EXPECT_EQ(h.ip->stats().gro_aggs, 1u);
  EXPECT_EQ(h.ip->stats().gro_frames, 4u);
}

TEST(Gro, FlowChangeFlushesAggregate) {
  GroHost h;
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteB, 41000, 80, 500, 100));  // other flow
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  h.ip->input_burst(0, burst);
  // [A0 A1] merge; B and the now-isolated A2 take the classic path.
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.to_tcp.size(), 2u);
}

TEST(Gro, OutOfOrderSeqFlushesAggregate) {
  GroHost h;
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 5000, 100));  // gap
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 5100, 100));
  h.ip->input_burst(0, burst);
  // Two aggregates: the gap broke the run but both halves still merge.
  ASSERT_EQ(h.aggs.size(), 2u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.aggs[1].segs.size(), 2u);
  EXPECT_TRUE(h.to_tcp.empty());
}

TEST(Gro, FlagBoundariesFlushAggregate) {
  GroHost h;
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(
      kRemoteA, 40000, 80, 100, 100,
      static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kPsh)));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  burst.push_back(h.make_tcp(
      kRemoteA, 40000, 80, 300, 100,
      static_cast<std::uint8_t>(tcpflag::kAck | tcpflag::kFin)));
  h.ip->input_burst(0, burst);
  // PSH closes the first aggregate (and is its last member); the lone
  // segment after it and the FIN both take the classic per-frame path.
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 2u);
  EXPECT_EQ(h.to_tcp.size(), 2u);
}

TEST(Gro, PureAcksAreNeverAggregated) {
  GroHost h;
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 1000, 0));
  }
  h.ip->input_burst(0, burst);
  EXPECT_TRUE(h.aggs.empty());
  EXPECT_EQ(h.to_tcp.size(), 4u);  // each ACK clocks the sender separately
}

TEST(Gro, AggregateNeverSpansShards) {
  GroHost h;
  // Interleave two flows; whatever aggregates form, every member of one
  // aggregate must steer to the same replica as the aggregate's own tuple.
  std::vector<chan::RichPtr> burst;
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100, 100));
  burst.push_back(h.make_tcp(kRemoteB, 41000, 80, 0, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 200, 100));
  burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 300, 100));
  h.ip->input_burst(0, burst);
  ASSERT_GE(h.aggs.size(), 1u);
  for (const auto& agg : h.aggs) {
    // IP steers a whole aggregate by its first member.
    const int shard = steer_shard(agg.src, agg.dst, agg.sport, agg.dport, 4);
    for (const auto& seg : agg.segs) {
      // Every member carries the aggregate's 4-tuple...
      const auto [sport, dport] = h.ports(seg);
      EXPECT_EQ(seg.src, agg.src);
      EXPECT_EQ(sport, agg.sport);
      EXPECT_EQ(dport, agg.dport);
      // ...so it hashes to the same shard as the aggregate.
      EXPECT_EQ(steer_shard(seg.src, seg.dst, sport, dport, 4), shard);
    }
  }
}

TEST(Gro, OneBatchedPfQueryPerAggregate) {
  GroHost h(/*with_pf=*/true);
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 6; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100 * i, 100));
  }
  h.ip->input_burst(0, burst);
  // One aggregate -> one query, and it travelled as one batch.
  ASSERT_EQ(h.pf_batches.size(), 1u);
  ASSERT_EQ(h.pf_batches[0].size(), 1u);
  EXPECT_TRUE(h.aggs.empty());  // held until the verdict
  h.ip->pf_verdict(h.pf_batches[0][0].second, true);
  ASSERT_EQ(h.aggs.size(), 1u);
  EXPECT_EQ(h.aggs[0].segs.size(), 6u);
}

TEST(Gro, BlockedVerdictReleasesEveryFrameOfTheAggregate) {
  GroHost h(/*with_pf=*/true);
  const std::size_t live_before = h.rx_pool->chunks_live();
  std::vector<chan::RichPtr> burst;
  for (int i = 0; i < 4; ++i) {
    burst.push_back(h.make_tcp(kRemoteA, 40000, 80, 100 * i, 100));
  }
  h.ip->input_burst(0, burst);
  ASSERT_EQ(h.pf_batches.size(), 1u);
  h.ip->pf_verdict(h.pf_batches[0][0].second, false);
  EXPECT_TRUE(h.aggs.empty());
  EXPECT_EQ(h.ip->stats().dropped_pf, 4u);
  EXPECT_EQ(h.rx_pool->chunks_live(), live_before);  // all four released
}

// --- unit: the one receive message format ------------------------------------------

TEST(RxFormat, OneRecordInlineManyPackedSinglesWhenThePoolIsExhausted) {
  using servers::WireRxFrame;
  chan::PoolRegistry pools;
  chan::Pool& frames = pools.create("ip", "rx", 1u << 16);
  chan::Pool& descs = pools.create("drv0", "buf", 1u << 16);
  chan::Pool& tiny = pools.create("drv1", "buf", 64);  // < 3 records
  std::vector<WireRxFrame> recs(3);
  for (auto& r : recs) r.frame = frames.alloc(100);
  chan::Message base;
  base.opcode = servers::kDrvRx;
  base.arg1 = 7;  // ifindex: the message's own field, kept in every form

  std::vector<chan::Message> sent;
  auto send = [&](const chan::Message& m) {
    sent.push_back(m);
    return true;
  };
  auto never_refused = [](std::size_t) { ADD_FAILURE(); };
  auto frames_of = [&](const chan::Message& m) {
    std::vector<chan::RichPtr> out;
    for (const auto& r : servers::decode_records<WireRxFrame>(pools, m))
      out.push_back(r.frame);
    return out;
  };

  // One record: inline, no descriptor.
  servers::send_records<WireRxFrame>(&descs, base, {recs.data(), 1}, send,
                                     never_refused);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_EQ(sent[0].flags & servers::kMsgPacked, 0);
  EXPECT_EQ(sent[0].arg1, 7u);
  EXPECT_EQ(descs.total_allocs(), 0u);
  EXPECT_EQ(frames_of(sent[0]), std::vector<chan::RichPtr>{recs[0].frame});

  // Three records: one packed message; decoding returns the descriptor.
  sent.clear();
  servers::send_records<WireRxFrame>(&descs, base, recs, send, never_refused);
  ASSERT_EQ(sent.size(), 1u);
  EXPECT_NE(sent[0].flags & servers::kMsgPacked, 0);
  EXPECT_EQ(sent[0].arg0, 3u);
  EXPECT_EQ(sent[0].arg1, 7u);
  EXPECT_EQ(descs.chunks_live(), 1u);
  const auto packed = frames_of(sent[0]);
  ASSERT_EQ(packed.size(), 3u);
  for (int i = 0; i < 3; ++i) EXPECT_EQ(packed[i], recs[i].frame);
  EXPECT_EQ(descs.chunks_live(), 0u);

  // Pool exhausted: one inline message per record.
  sent.clear();
  servers::send_records<WireRxFrame>(&tiny, base, recs, send, never_refused);
  ASSERT_EQ(sent.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    EXPECT_EQ(sent[i].flags & servers::kMsgPacked, 0);
    EXPECT_EQ(frames_of(sent[i]),
              std::vector<chan::RichPtr>{recs[i].frame});
  }

  // A refused packed message refuses all of its records and frees its
  // descriptor.
  std::vector<std::size_t> refused;
  servers::send_records<WireRxFrame>(
      &descs, base, recs, [](const chan::Message&) { return false; },
      [&](std::size_t i) { refused.push_back(i); });
  EXPECT_EQ(refused, (std::vector<std::size_t>{0, 1, 2}));
  EXPECT_EQ(descs.chunks_live(), 0u);
}

// --- system: coalescing, amortization, sharding, crash recovery --------------------

namespace {

TestbedOptions rx_opts(int coalesce, bool gro, int tcp_shards = 1) {
  TestbedOptions o;
  o.mode = StackMode::kSplitSyscall;
  o.nics = 1;
  o.rx_coalesce_frames = coalesce;
  o.rx_coalesce_usecs = 50;
  o.gro = gro;
  o.tcp_shards = tcp_shards;
  o.app_write_size = 65536;
  return o;
}

// Bulk traffic INTO the system under test: receiver on newtos, sender on
// the ideal peer.
struct BulkIn {
  std::unique_ptr<apps::BulkReceiver> rx;
  std::unique_ptr<apps::BulkSender> tx;

  BulkIn(Testbed& tb, std::uint16_t port, int nic = 0) {
    AppActor* rx_app = tb.newtos().add_app("rx" + std::to_string(port));
    apps::BulkReceiver::Config rc;
    rc.port = port;
    rc.record_series = false;
    rx = std::make_unique<apps::BulkReceiver>(tb.newtos(), rx_app, rc);
    rx->start();
    AppActor* tx_app = tb.peer().add_app("tx" + std::to_string(port));
    apps::BulkSender::Config sc;
    sc.dst = tb.peer().peer_addr(nic);
    sc.port = port;
    sc.write_size = 65536;
    tx = std::make_unique<apps::BulkSender>(tb.peer(), tx_app, sc);
    tx->start();
  }
};

}  // namespace

TEST(RxBatch, FrameThresholdFormsBurstsAndAmortizesMessages) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/false));
  BulkIn flow(tb, 5001);
  tb.run_until(500 * sim::kMillisecond);

  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& nic = tb.newtos().nic(0)->stats();
  EXPECT_GT(nic.rx_bursts, 0u);
  auto* drv = dynamic_cast<servers::DriverServer*>(
      tb.newtos().server(servers::driver_name(0)));
  ASSERT_NE(drv, nullptr);
  EXPECT_GT(drv->rx_frames(), 0u);
  // The whole point: well under one driver->IP message per frame.
  EXPECT_LT(drv->rx_msgs() * 2, drv->rx_frames());
}

TEST(RxBatch, HoldoffTimerFlushesSparseTraffic) {
  // A high frame threshold with sparse echo traffic: only the RADV-style
  // timer can deliver the frames.
  TestbedOptions o = rx_opts(/*coalesce=*/64, /*gro=*/false);
  Testbed tb(o);

  AppActor* srv_app = tb.newtos().add_app("sshd");
  apps::EchoServer srv(tb.newtos(), srv_app, {});
  srv.start();
  AppActor* cli_app = tb.peer().add_app("ssh");
  apps::EchoClient::Config ec;
  ec.dst = tb.peer().peer_addr(0);
  apps::EchoClient cli(tb.peer(), cli_app, ec);
  cli.start();

  tb.run_until(1 * sim::kSecond);
  EXPECT_GT(cli.ok(), 0u);  // echoes went round despite the 64-frame bound
  EXPECT_GT(tb.newtos().nic(0)->stats().rx_timer_flushes, 0u);
}

TEST(RxBatch, TimerFlushOfOneFrameReachesIpInline) {
  // A lone frame on a coalescing device: the hold-off timer raises a burst
  // of one, which crosses driver -> IP inline — exactly a per-frame message,
  // no descriptor allocated from the driver's staging pool.
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true));
  tb.run_until(100 * sim::kMillisecond);  // boot settles; the wire is quiet
  Node& dut = tb.newtos();
  auto* drv = dynamic_cast<servers::DriverServer*>(
      dut.server(servers::driver_name(0)));
  ASSERT_NE(drv, nullptr);
  chan::Pool* desc_pool = dut.pools().find_by_name("drv0.buf");
  ASSERT_NE(desc_pool, nullptr);
  const auto nic_before = dut.nic(0)->stats();
  const std::uint64_t allocs_before = desc_pool->total_allocs();
  const std::uint64_t msgs_before = drv->rx_msgs();
  const std::uint64_t ip_before = dut.ip_engine()->stats().rx_frames;

  // One broadcast ARP request for our address, straight onto the wire.
  std::vector<std::byte> frame(kEthHeaderLen + kArpPacketLen);
  ByteWriter w{frame};
  EthHeader eth;
  eth.dst = MacAddr::broadcast();
  eth.src = MacAddr::local(77);
  eth.ethertype = kEtherTypeArp;
  eth.serialize(w);
  ArpPacket arp;
  arp.op = kArpOpRequest;
  arp.sender_mac = eth.src;
  arp.sender_ip = tb.peer().addr(0);
  arp.target_ip = dut.addr(0);
  arp.serialize(w);
  tb.wire(0).transmit(/*end=*/1, std::move(frame));
  tb.run_until(tb.sim().now() + sim::kMillisecond);

  const auto& nic = dut.nic(0)->stats();
  EXPECT_EQ(nic.rx_frames, nic_before.rx_frames + 1);
  EXPECT_EQ(nic.rx_bursts, nic_before.rx_bursts + 1);
  EXPECT_EQ(nic.rx_timer_flushes, nic_before.rx_timer_flushes + 1);
  EXPECT_EQ(drv->rx_msgs(), msgs_before + 1);
  EXPECT_EQ(desc_pool->total_allocs(), allocs_before);
  EXPECT_EQ(dut.ip_engine()->stats().rx_frames, ip_before + 1);
}

TEST(RxBatch, GroChargesOncePerAggregateAndStretchAcks) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true));
  BulkIn flow(tb, 5001);
  tb.run_until(500 * sim::kMillisecond);

  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& ip = tb.newtos().ip_engine()->stats();
  EXPECT_GT(ip.gro_aggs, 0u);
  EXPECT_GT(ip.gro_frames, 2 * ip.gro_aggs);  // real merging, not pairs
  const auto& tcp = tb.newtos().tcp_engine()->stats();
  EXPECT_GT(tcp.aggs_in, 0u);
  // One stretch ACK per aggregate instead of one per two frames.
  EXPECT_LT(tcp.acks_out * 3, tcp.segs_in);
  // And under one IP->TCP message per frame.
  auto* ips = dynamic_cast<servers::IpServer*>(
      tb.newtos().server(servers::kIpName));
  ASSERT_NE(ips, nullptr);
  EXPECT_LT(ips->l4_msgs() * 2, ips->l4_frames());
}

TEST(RxBatch, GroRespectsShardSteering) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true, /*tcp_shards=*/2));
  std::vector<std::unique_ptr<BulkIn>> flows;
  for (int f = 0; f < 6; ++f) {
    flows.push_back(std::make_unique<BulkIn>(
        tb, static_cast<std::uint16_t>(6001 + f)));
  }
  tb.run_until(500 * sim::kMillisecond);

  std::uint64_t bytes = 0;
  for (auto& f : flows) bytes += f->rx->bytes();
  EXPECT_GT(bytes, 4u << 20);

  // Every connection lives on the replica its inbound 4-tuple hashes to,
  // so any aggregate a replica accepted was steered correctly.
  std::uint64_t aggs = 0;
  for (int s = 0; s < tb.newtos().tcp_shard_count(); ++s) {
    const auto* eng = tb.newtos().tcp_engine(s);
    for (const auto& key : eng->connection_keys()) {
      // connection_keys() records {local, peer, lport, pport}; steering
      // hashes the inbound orientation (remote end first).
      EXPECT_EQ(steer_shard(key.dst, key.src, key.dport, key.sport,
                            tb.newtos().tcp_shard_count()),
                s);
    }
    aggs += eng->stats().aggs_in;
  }
  EXPECT_GT(aggs, 0u);
}

TEST(RxBatch, CoalescingOffIsByteIdenticalCounters) {
  // The default arrangement must not even arm the burst machinery.
  Testbed tb(rx_opts(/*coalesce=*/0, /*gro=*/false));
  BulkIn flow(tb, 5001);
  tb.run_until(300 * sim::kMillisecond);
  EXPECT_GT(flow.rx->bytes(), 1u << 20);
  const auto& nic = tb.newtos().nic(0)->stats();
  EXPECT_EQ(nic.rx_bursts, 0u);
  EXPECT_EQ(nic.rx_timer_flushes, 0u);
  const auto& ip = tb.newtos().ip_engine()->stats();
  EXPECT_EQ(ip.gro_aggs, 0u);
  EXPECT_EQ(tb.newtos().tcp_engine()->stats().aggs_in, 0u);
}

TEST(RxBatch, LoanLedgerRecoversBurstChunksWhenTcpDiesMidAggregate) {
  Testbed tb(rx_opts(/*coalesce=*/8, /*gro=*/true));
  BulkIn flow(tb, 5001);

  // Let the flow ramp, then kill TCP while aggregates are in flight.
  tb.run_until(400 * sim::kMillisecond);
  EXPECT_GT(tb.newtos().tcp_engine()->stats().aggs_in, 0u);
  tb.sim().at(tb.sim().now() + sim::kMicrosecond, [&] {
    tb.newtos().server(servers::kTcpName)->kill();
  });
  tb.run_until(1 * sim::kSecond);

  // The replica is back and every loan its dead incarnation held was
  // reclaimed (frames in dead queue slots were recovered by IP; frames the
  // engine had accepted were released by its teardown path).
  EXPECT_TRUE(tb.newtos().server(servers::kTcpName)->alive());
  chan::Pool* rx_pool = tb.newtos().pools().find_by_name("ip.rx");
  ASSERT_NE(rx_pool, nullptr);
  EXPECT_EQ(rx_pool->borrows_outstanding(), 0u);
  // ~Testbed's abort-on-loan-leak backstop also covers this test.
}
