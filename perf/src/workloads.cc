#include "workloads.h"

#include <algorithm>
#include <cstdio>

#include "apps.h"
#include "src/core/apps.h"
#include "src/core/fault_injection.h"
#include "src/servers/proto.h"

namespace perf {

namespace servers = newtos::servers;
using newtos::AppActor;
using newtos::StackMode;
using newtos::TestbedOptions;

namespace {

constexpr const char* kGbps = "Gb/s";

double gbps(std::uint64_t bytes, sim::Time window) {
  return static_cast<double>(bytes) * 8.0 / static_cast<double>(window);
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), f, v);
  return buf;
}

// Publishes a latency percentile as a metric; an unsupported one (fewer
// than ten samples beyond it) is printed as such and reads zero.
void put_percentile(RunResult& out, Metrics& into, const std::string& name,
                    const Samples& s, double p) {
  const Samples::Percentile pc = s.at(p);
  out.percentiles[name] = pc;
  into[name] = {pc.supported() ? pc.value : 0.0, kUnitSimUs};
}

void put_rpc(RunResult& out, const RpcClient& client, sim::Time window) {
  const double secs = static_cast<double>(window) / 1e9;
  out.sim["rpc_per_s"] = {static_cast<double>(client.completed()) / secs,
                          "1/s"};
  put_percentile(out, out.sim, "rpc_p50_us", client.latency_us(), 0.50);
  put_percentile(out, out.sim, "rpc_p99_us", client.latency_us(), 0.99);
  out.attempted += client.attempted();
  out.failed += client.failed();
  if (client.failed() > 0) {
    out.check_failures.push_back(
        std::to_string(client.failed()) +
        " RPCs failed (refused, reset, wrong content or unanswered)");
  }
  if (client.bad_responses() > 0) {
    out.check_failures.push_back(std::to_string(client.bad_responses()) +
                                 " RPC responses had wrong content");
  }
  if (!out.percentiles["rpc_p99_us"].supported()) {
    out.check_failures.push_back("rpc_p99_us has too few samples");
  }
}

// Layer decomposition of RPC latency from the spans both apps recorded:
// inbound (client submit -> server app holds the request), server
// (-> response submitted), outbound (-> client holds the response).
void put_spans(RunResult& out, const RpcSpans& spans, const RpcClient& client) {
  Samples inbound, server, outbound;
  for (const auto& [id, s] : spans.by_id) {
    if (s.submit < 0 || s.seen < 0 || s.sent < 0 || s.done < 0) continue;
    inbound.add(static_cast<double>(s.seen - s.submit) / 1e3);
    server.add(static_cast<double>(s.sent - s.seen) / 1e3);
    outbound.add(static_cast<double>(s.done - s.sent) / 1e3);
  }
  put_percentile(out, out.traced, "core.rpc.inbound_p50_us", inbound, 0.50);
  put_percentile(out, out.traced, "core.rpc.inbound_p99_us", inbound, 0.99);
  put_percentile(out, out.traced, "core.rpc.server_p50_us", server, 0.50);
  put_percentile(out, out.traced, "core.rpc.server_p99_us", server, 0.99);
  put_percentile(out, out.traced, "core.rpc.outbound_p50_us", outbound, 0.50);
  put_percentile(out, out.traced, "core.rpc.outbound_p99_us", outbound, 0.99);
  out.traced["core.rpc.gen_late_max_us"] = {client.gen_late_max_us(),
                                            kUnitSimUs};
}

// --- bulk_tx ---------------------------------------------------------------------
//
// Why: Table II row 3, the paper's headline configuration (split stack with
// the SYSCALL server, 5 x 1 GbE, no TSO, PF on, one outbound bulk flow per
// NIC, 64 KB writes, per-frame RX).  The TX data path and the send pools do
// nearly all the work (socket send -> tcp segmentation -> ip -> pf -> drv);
// nothing uses RX batching, connection churn or faults, so this is the
// workload that bypasses changes to those.  It has the most simulator events
// per simulated second, which makes it the purest host-speed workload.
// The seed reaches only the wires' generators, which a loss-free wire never
// draws from, so every seed reproduces the row.
class BulkTx : public Scenario {
 public:
  static constexpr int kNics = 5;
  static constexpr sim::Time kWarm = 400 * sim::kMillisecond;
  static constexpr sim::Time kWindow = 600 * sim::kMillisecond;
  static constexpr const char* kPinned = "3.6798";  // Table II row 3, Gb/s

  explicit BulkTx(const RunConfig& rc) {
    TestbedOptions o;
    o.mode = StackMode::kSplitSyscall;
    o.nics = kNics;
    o.gbps = 1.0;
    o.tso = false;
    o.use_pf = true;
    o.app_write_size = 65536;
    o.seed = rc.seed;
    tb_ = std::make_unique<newtos::Testbed>(o);
    // Same apps, created in the same order, as the Table II harness.
    for (int i = 0; i < kNics; ++i) {
      AppActor* rx_app = tb_->peer().add_app("iperf_rx" + std::to_string(i));
      newtos::apps::BulkReceiver::Config rcfg;
      rcfg.port = static_cast<std::uint16_t>(5001 + i);
      rcfg.record_series = false;
      receivers_.push_back(std::make_unique<newtos::apps::BulkReceiver>(
          tb_->peer(), rx_app, rcfg));
      receivers_.back()->start();
      AppActor* tx_app = tb_->newtos().add_app("iperf_tx" + std::to_string(i));
      newtos::apps::BulkSender::Config scfg;
      scfg.dst = tb_->newtos().peer_addr(i);
      scfg.port = rcfg.port;
      scfg.write_size = o.app_write_size;
      senders_.push_back(std::make_unique<newtos::apps::BulkSender>(
          tb_->newtos(), tx_app, scfg));
      senders_.back()->start();
    }
    snapshot_at(kWarm, start_);
    tb_->sim().at(kWarm, [this] { bytes_start_ = rx_bytes(); });
    snapshot_at(kWarm + kWindow, end_);
    tb_->sim().at(kWarm + kWindow, [this] { bytes_end_ = rx_bytes(); });
  }

  sim::Time end() const override { return kWarm + kWindow; }

  void collect(RunResult& out) override {
    const std::uint64_t bytes = bytes_end_ - bytes_start_;
    const double g = gbps(bytes, kWindow);
    out.sim["goodput_gbps"] = {g, kGbps};
    out.sim["dut_cycles_per_kb"] = {dut_cycles_per_kb(start_, end_, bytes),
                                    "cycles/KB"};
    layer_metrics(start_, end_, {kWindow, bytes, 1.0, ghz()}, out.sim);

    const newtos::StatsHub& st = tb_->newtos().stats();
    const std::uint64_t resets = st.get("iperf_tx.resets");
    out.attempted += st.get("iperf_tx.bytes") / 65536 + st.get("iperf_tx.connects");
    out.failed += resets;
    if (fmt("%.4f", g) != kPinned) {
      out.check_failures.push_back("goodput " + fmt("%.4f", g) +
                                   " Gb/s, Table II row 3 pins " + kPinned);
    }
    if (resets > 0) out.check_failures.push_back("bulk flows were reset");
  }

 private:
  std::uint64_t rx_bytes() const {
    std::uint64_t b = 0;
    for (const auto& r : receivers_) b += r->bytes();
    return b;
  }

  std::vector<std::unique_ptr<newtos::apps::BulkReceiver>> receivers_;
  std::vector<std::unique_ptr<newtos::apps::BulkSender>> senders_;
  Counters start_, end_;
  std::uint64_t bytes_start_ = 0, bytes_end_ = 0;
};

// --- rpc_rx ----------------------------------------------------------------------
//
// Why: the receive and control paths.  An open-loop Poisson stream of small
// requests (100 B) from the peer to an RPC server on the DUT, answered with
// 1-4 KB responses over a pool of keep-alive connections; a fixed share of
// requests opens a one-shot connection (connect, request, response, close).
// Inbound bulk flows run behind it.  The DUT runs 4 tcp shards, 4 RSS
// queues per NIC, RX coalescing and GRO, so driver bursts, the per-shard IP
// fast path, aggregation, sharded tcp, the SYSCALL server, the socket rings,
// accept, connection set-up/teardown and timers all do real work.  Links are
// fast enough that DUT cores, not the wire, bound goodput.  This is where
// batching trades throughput against latency; the bulk TX path is barely
// used.  The seed drives the wires, the arrival times, response sizes and
// which requests are one-shot.
class RpcRx : public Scenario {
 public:
  static constexpr int kNics = 4;
  static constexpr double kLinkGbps = 25.0;
  static constexpr int kBulkFlows = 8;
  static constexpr sim::Time kWarm = 100 * sim::kMillisecond;
  static constexpr sim::Time kWindow = 200 * sim::kMillisecond;
  static constexpr sim::Time kDrain = 20 * sim::kMillisecond;

  explicit RpcRx(const RunConfig& rc) {
    TestbedOptions o;
    o.mode = StackMode::kSplitSyscall;
    o.nics = kNics;
    o.gbps = kLinkGbps;
    o.use_pf = true;
    o.app_write_size = 65536;
    o.tcp_shards = 4;
    o.rx_queues = 4;
    o.rx_coalesce_frames = 8;
    o.rx_coalesce_usecs = 120;
    o.gro = true;
    o.seed = rc.seed;
    tb_ = std::make_unique<newtos::Testbed>(o);
    spans_.enabled = rc.trace;
    newtos::Node& dut = tb_->newtos();
    newtos::Node& peer = tb_->peer();

    server_ = std::make_unique<RpcServer>(dut.add_app("rpc_srv"), 7000, spans_);
    server_->start();
    for (int i = 0; i < kNics; ++i) {
      newtos::apps::BulkReceiver::Config rcfg;
      rcfg.port = static_cast<std::uint16_t>(5001 + i);
      rcfg.record_series = false;
      rcfg.prefix = "bulk_rx";
      receivers_.push_back(std::make_unique<newtos::apps::BulkReceiver>(
          dut, dut.add_app("bulk_rx" + std::to_string(i)), rcfg));
      receivers_.back()->start();
    }
    for (int f = 0; f < kBulkFlows; ++f) {
      newtos::apps::BulkSender::Config scfg;
      scfg.dst = peer.peer_addr(f % kNics);
      scfg.port = static_cast<std::uint16_t>(5001 + f % kNics);
      scfg.write_size = o.app_write_size;
      scfg.prefix = "bulk_tx";
      senders_.push_back(std::make_unique<newtos::apps::BulkSender>(
          peer, peer.add_app("bulk_tx" + std::to_string(f)), scfg));
      senders_.back()->start();
    }

    RpcClient::Config cc;
    for (int i = 0; i < kNics; ++i) cc.servers.push_back(peer.peer_addr(i));
    cc.port = 7000;
    cc.keepalive_conns = 16;
    cc.rate_per_s = 20000.0;
    cc.oneshot_share = 0.1;
    cc.request_bytes = 100;
    cc.response_min = 1024;
    cc.response_max = 4096;
    cc.first_arrival = kWarm / 2;
    cc.last_arrival = kWarm + kWindow;
    cc.window_start = kWarm;
    cc.window_end = kWarm + kWindow;
    cc.seed = rc.seed;
    client_ = std::make_unique<RpcClient>(peer, peer.add_app("rpc_cli"), cc,
                                          spans_);
    client_->start();

    snapshot_at(kWarm, start_);
    tb_->sim().at(kWarm, [this] { bytes_start_ = app_bytes(); });
    snapshot_at(kWarm + kWindow, end_);
    tb_->sim().at(kWarm + kWindow, [this] { bytes_end_ = app_bytes(); });
  }

  sim::Time end() const override { return kWarm + kWindow + kDrain; }

  void collect(RunResult& out) override {
    client_->finish();
    const std::uint64_t bytes = bytes_end_ - bytes_start_;
    out.sim["goodput_gbps"] = {gbps(bytes, kWindow), kGbps};
    out.sim["dut_cycles_per_kb"] = {dut_cycles_per_kb(start_, end_, bytes),
                                    "cycles/KB"};
    layer_metrics(start_, end_, {kWindow, bytes, kLinkGbps, ghz()}, out.sim);
    put_rpc(out, *client_, kWindow);
    if (spans_.enabled) put_spans(out, spans_, *client_);

    if (server_->bad_requests() > 0) {
      out.check_failures.push_back("server saw malformed requests");
    }
    if (tb_->peer().stats().get("bulk_tx.resets") > 0) {
      out.check_failures.push_back("bulk flows were reset");
    }
  }

 private:
  std::uint64_t app_bytes() const {
    std::uint64_t b = server_->request_bytes() + client_->response_bytes();
    for (const auto& r : receivers_) b += r->bytes();
    return b;
  }

  RpcSpans spans_;
  std::unique_ptr<RpcServer> server_;
  std::vector<std::unique_ptr<newtos::apps::BulkReceiver>> receivers_;
  std::vector<std::unique_ptr<newtos::apps::BulkSender>> senders_;
  std::unique_ptr<RpcClient> client_;
  Counters start_, end_;
  std::uint64_t bytes_start_ = 0, bytes_end_ = 0;
};

// --- crash -----------------------------------------------------------------------
//
// Why: the dependability claim (Figure 4 and Tables III/IV).  The Figure 4
// setting (1 x 1 GbE, split stack with SYSCALL, 64 PF filler rules) with
// connection checkpoints and the supervision plane on.  One outbound stream
// whose bytes are checked exactly, plus keep-alive RPCs from the peer, run
// through crashes of ip, then drv0, then tcp.  Only here do the
// reincarnation, storage, checkpoint and supervision servers and the
// restart paths do real work; the data path is light.
//
// The crashes are 4 s apart so that their recoveries do not overlap: the
// stream needs ~2.5 s after an ip or driver crash, and a keep-alive RPC
// connection whose retransmission timer backed off during the outage needs
// ~3.1 s.  Recovery is sensitive to timing (an RTO that fires just before
// or just after the link returns moves it by a backoff step), so nothing
// here is drawn from the seed: the RPCs run at a fixed period with fixed
// sizes, and the loss-free wire and the explicitly scheduled faults draw no
// random numbers.  Every seed replays the same run, and the recovery
// figures move only when the code does.
class Crash : public Scenario {
 public:
  static constexpr sim::Time kWarm = 500 * sim::kMillisecond;
  static constexpr sim::Time kWindowEnd = 10000 * sim::kMillisecond;
  static constexpr sim::Time kDrain = 100 * sim::kMillisecond;
  static constexpr sim::Time kSlice = 1 * sim::kMillisecond;
  static constexpr sim::Time kPreFault = 200 * sim::kMillisecond;
  static constexpr std::uint64_t kStreamKey = 0x5354524541;

  struct Fault {
    const char* component;
    const char* metric;  // recovery metric prefix
    sim::Time at;
  };
  static constexpr Fault kFaults[] = {
      {servers::kIpName, "ip", 1000 * sim::kMillisecond},
      {"drv0", "drv", 5000 * sim::kMillisecond},
      {servers::kTcpName, "tcp", 9000 * sim::kMillisecond},
  };

  explicit Crash(const RunConfig& rc) {
    TestbedOptions o;
    o.mode = StackMode::kSplitSyscall;
    o.nics = 1;
    o.gbps = 1.0;
    o.pf_filler_rules = 64;
    o.tcp_checkpoint = true;
    o.supervision = true;
    o.seed = rc.seed;
    tb_ = std::make_unique<newtos::Testbed>(o);
    spans_.enabled = rc.trace;
    newtos::Node& dut = tb_->newtos();
    newtos::Node& peer = tb_->peer();

    receiver_ = std::make_unique<StreamReceiver>(peer.add_app("stream_rx"),
                                                 5001, kStreamKey);
    receiver_->start();
    sender_ = std::make_unique<StreamSender>(
        dut.add_app("stream_tx"), dut.peer_addr(0), 5001, kStreamKey);
    sender_->start();
    server_ = std::make_unique<RpcServer>(dut.add_app("rpc_srv"), 7000, spans_);
    server_->start();
    RpcClient::Config cc;
    cc.servers = {peer.peer_addr(0)};
    cc.port = 7000;
    cc.keepalive_conns = 4;
    cc.rate_per_s = 250.0;
    cc.poisson = false;
    cc.oneshot_share = 0.0;
    cc.response_min = 2048;
    cc.response_max = 2048;
    cc.first_arrival = kWarm;
    cc.last_arrival = kWindowEnd;
    cc.window_start = kWarm;
    cc.window_end = kWindowEnd;
    cc.seed = rc.seed;
    client_ = std::make_unique<RpcClient>(peer, peer.add_app("rpc_cli"), cc,
                                          spans_);
    client_->start();

    // Counter reads right before each crash bank the counters a restart
    // will zero; 1 ms polls time the recovery phases.
    snapshot_at(kWarm, start_);
    faults_ = std::make_unique<newtos::FaultInjector>(dut, rc.seed);
    for (const Fault& f : kFaults) {
      tb_->sim().at(f.at, [this] { observe(); });
      faults_->inject_at(f.at, f.component, newtos::FaultType::Crash);
    }
    snapshot_at(kWindowEnd, end_);
    tb_->sim().at(kWarm, [this] { poll(); });
  }

  sim::Time end() const override { return kWindowEnd + kDrain; }

  void collect(RunResult& out) override {
    client_->finish();
    const sim::Time window = kWindowEnd - kWarm;
    const std::uint64_t bytes = slice_bytes_.back() - slice_bytes_.front() +
                                rpc_bytes_end_ - rpc_bytes_start_;
    out.sim["goodput_gbps"] = {gbps(bytes, window), kGbps};
    out.sim["dut_cycles_per_kb"] = {dut_cycles_per_kb(start_, end_, bytes),
                                    "cycles/KB"};
    layer_metrics(start_, end_, {window, bytes, 1.0, ghz()}, out.sim);
    put_rpc(out, *client_, window);
    if (spans_.enabled) put_spans(out, spans_, *client_);
    for (const Fault& f : kFaults) recovery(f, out);

    out.attempted += 1;  // the stream
    const bool stream_ok = sender_->connects() == 1 &&
                           sender_->resets() == 0 &&
                           receiver_->accepted() == 1;
    if (!stream_ok) {
      ++out.failed;
      out.check_failures.push_back("stream was reset or reconnected");
    }
    if (receiver_->bad_bytes() > 0) {
      out.check_failures.push_back(
          std::to_string(receiver_->bad_bytes()) + " stream bytes corrupt");
    }
    if (receiver_->bytes() > sender_->bytes_written()) {
      out.check_failures.push_back("stream delivered unwritten bytes");
    }
    if (server_->bad_requests() > 0) {
      out.check_failures.push_back("server saw malformed requests");
    }
  }

 private:
  // One 1 ms slice: stream bytes at the peer, frames the DUT NIC sent, and
  // each faulted component's liveness.
  void poll() {
    const sim::Time now = tb_->sim().now();
    if (now == kWarm) rpc_bytes_start_ = rpc_bytes();
    if (now == kWindowEnd) rpc_bytes_end_ = rpc_bytes();
    slice_bytes_.push_back(receiver_->bytes());
    slice_tx_.push_back(tb_->newtos().nic(0)->stats().tx_frames);
    for (std::size_t i = 0; i < std::size(kFaults); ++i) {
      servers::Server* s = tb_->newtos().server(kFaults[i].component);
      live_[i].push_back(s != nullptr && s->alive() ? s->incarnation() : 0);
    }
    if (now < kWindowEnd) tb_->sim().at(now + kSlice, [this] { poll(); });
  }

  std::uint64_t rpc_bytes() const {
    return server_->request_bytes() + client_->response_bytes();
  }

  // Slice index of simulated time t (slice k ends at kWarm + k ms).
  static std::size_t slice(sim::Time t) {
    return static_cast<std::size_t>((t - kWarm) / kSlice);
  }

  // Recovery of one fault, from the 1 ms slices:
  //   restart_ms         the component is alive in a new incarnation;
  //   first_tx_ms        the DUT NIC puts a frame on the wire again;
  //   first_delivery_ms  the peer receives stream bytes again;
  //   <comp>_recovery_ms stream goodput, averaged over 10 ms, is back to
  //                      at least half its pre-fault rate after dipping.
  void recovery(const Fault& f, RunResult& out) {
    const std::size_t i = static_cast<std::size_t>(&f - kFaults);
    const std::size_t at = slice(f.at);
    const std::size_t last = slice_bytes_.size() - 1;
    const double pre = static_cast<double>(
        slice_bytes_[at] - slice_bytes_[at - slice(kWarm + kPreFault)]) /
        static_cast<double>(kPreFault / kSlice);
    auto ms = [&](std::size_t k) {
      return static_cast<double>(k - at) * static_cast<double>(kSlice) / 1e6;
    };
    // The poll at the crash instant runs after the fault, so the slice
    // before it holds the pre-crash incarnation.
    const std::uint64_t before = live_[i][at - 1];
    std::size_t restart = 0;
    for (std::size_t k = at; k <= last && restart == 0; ++k) {
      if (live_[i][k] > before) restart = k;
    }
    std::size_t first_tx = 0, first_delivery = 0;
    for (std::size_t k = std::max(restart, at + 1); restart && k <= last;
         ++k) {
      if (!first_tx && slice_tx_[k] > slice_tx_[k - 1]) first_tx = k;
      if (!first_delivery && slice_bytes_[k] > slice_bytes_[k - 1]) {
        first_delivery = k;
      }
      if (first_tx && first_delivery) break;
    }
    // Goodput dips (the first slice under half rate), then recovers.
    constexpr std::size_t kAvg = 10;
    std::size_t dip = 0, back = 0;
    for (std::size_t k = at + 1; k <= last; ++k) {
      const double got =
          static_cast<double>(slice_bytes_[k] - slice_bytes_[k - 1]);
      if (!dip && got < 0.5 * pre) dip = k;
      if (dip && k + kAvg - 1 <= last) {
        const double avg = static_cast<double>(slice_bytes_[k + kAvg - 1] -
                                               slice_bytes_[k - 1]) /
                           static_cast<double>(kAvg);
        if (avg >= 0.5 * pre) {
          back = k;
          break;
        }
      }
    }
    const std::string m = f.metric;
    const std::string comp = f.component;
    out.sim[m + "_recovery_ms"] = {dip ? (back ? ms(back - 1) : 0.0) : 0.0,
                                   kUnitSimMs};
    out.sim["servers.recovery." + comp + ".restart_ms"] = {
        restart ? ms(restart) : 0.0, kUnitSimMs};
    out.sim["servers.recovery." + comp + ".first_tx_ms"] = {
        first_tx ? ms(first_tx) : 0.0, kUnitSimMs};
    out.sim["servers.recovery." + comp + ".first_delivery_ms"] = {
        first_delivery ? ms(first_delivery) : 0.0, kUnitSimMs};
    if (!restart) {
      out.check_failures.push_back(comp + " was never restarted");
    }
    if (dip && !back) {
      out.check_failures.push_back("stream goodput never recovered after the " +
                                   comp + " crash");
    }
  }

  RpcSpans spans_;
  std::unique_ptr<StreamReceiver> receiver_;
  std::unique_ptr<StreamSender> sender_;
  std::unique_ptr<RpcServer> server_;
  std::unique_ptr<RpcClient> client_;
  std::unique_ptr<newtos::FaultInjector> faults_;
  Counters start_, end_;
  std::vector<std::uint64_t> slice_bytes_, slice_tx_;
  std::vector<std::uint64_t> live_[std::size(kFaults)];
  std::uint64_t rpc_bytes_start_ = 0, rpc_bytes_end_ = 0;
};

}  // namespace

void Scenario::snapshot_at(sim::Time t, Counters& into) {
  tb_->sim().at(t, [this, &into] { into = observe(); });
}

Counters Scenario::observe() {
  track_.observe(read_counters(*tb_));
  return track_.totals();
}

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {"bulk_tx",
       "Table II row 3: the TX data path and send pools at their busiest; "
       "bypasses RX batching, churn and faults",
       [](const RunConfig& rc) { return std::make_unique<BulkTx>(rc); }},
      {"rpc_rx",
       "open-loop small RPCs plus inbound bulk on 4 shards with RSS, "
       "coalescing and GRO: the RX and control paths",
       [](const RunConfig& rc) { return std::make_unique<RpcRx>(rc); }},
      {"crash",
       "Figure 4 link with checkpoints and supervision; ip, drv0 and tcp "
       "crash under a checked stream and RPCs",
       [](const RunConfig& rc) { return std::make_unique<Crash>(rc); }},
  };
  return all;
}

const std::map<std::string, std::string>& end_to_end_catalog() {
  static const std::map<std::string, std::string> m = {
      {"goodput_gbps", kGbps},
      {"dut_cycles_per_kb", "cycles/KB"},
      {"wall_s", "s"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return m;
}

const std::map<std::string, std::string>& per_layer_catalog() {
  static const std::map<std::string, std::string> m = [] {
    std::map<std::string, std::string> c = {
        {"rpc_per_s", "1/s"},
        {"rpc_p50_us", kUnitSimUs},
        {"rpc_p99_us", kUnitSimUs},
        {"failed_ops_frac", "fraction"},
        {"ip_recovery_ms", kUnitSimMs},
        {"drv_recovery_ms", kUnitSimMs},
        {"tcp_recovery_ms", kUnitSimMs},
        {"servers.apps.util", "fraction"},
        {"servers.apps.tasks", "count"},
        {"servers.rein.restarts", "count"},
        {"chan.msgs_per_frame", "msgs/frame"},
        {"chan.send_failures", "count"},
        {"chan.pool_allocs_per_kb", "allocs/KB"},
        {"chan.pool_failed_allocs", "count"},
        {"core.sockring.ops_per_trap", "ops/trap"},
        {"core.sock.copies_per_byte", "bytes/byte"},
        {"drv.link_util", "fraction"},
        {"drv.rx_frames_per_irq", "frames/irq"},
        {"drv.rx_no_buffer", "count"},
        {"drv.tx_ring_full", "count"},
        {"drv.nic_resets", "count"},
        {"net.tcp.retx_frac", "fraction"},
        {"net.tcp.rtos", "count"},
        {"net.tcp.fast_retransmits", "count"},
        {"net.tcp.acks_per_seg", "acks/seg"},
        {"net.tcp.frames_per_agg", "frames/agg"},
        {"net.tcp.conns_established", "count"},
        {"net.tcp.conns_restored", "count"},
        {"net.ip.fast_frac", "fraction"},
        {"core.rpc.gen_late_max_us", kUnitSimUs},
        {"sim.events", "count"},
        {"sim.host_ns_per_event", "ns"},
        {"sim.trace_overhead", "ratio"},
    };
    for (const std::string& s : reported_servers()) {
      c["servers." + s + ".util"] = "fraction";
      c["servers." + s + ".tasks"] = "count";
    }
    for (const char* comp : {"ip", "drv0", "tcp"}) {
      for (const char* phase : {"restart_ms", "first_tx_ms",
                                "first_delivery_ms"}) {
        c[std::string("servers.recovery.") + comp + "." + phase] = kUnitSimMs;
      }
    }
    for (const char* span : {"inbound", "server", "outbound"}) {
      for (const char* p : {"p50", "p99"}) {
        c[std::string("core.rpc.") + span + "_" + p + "_us"] = kUnitSimUs;
      }
    }
    std::vector<std::string> buckets = reported_servers();
    for (const char* b : {"apps", "peer", "other"}) buckets.push_back(b);
    for (const std::string& b : buckets) c["host." + b + ".share"] = "fraction";
    return c;
  }();
  return m;
}

}  // namespace perf
