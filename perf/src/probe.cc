#include "probe.h"

#include <algorithm>

#include "src/servers/driver_server.h"

namespace perf {

namespace sim = newtos::sim;
namespace servers = newtos::servers;

namespace {

constexpr const char* kBusy = "busy.";
constexpr const char* kTasks = "tasks.";
constexpr const char* kAppBusy = "busy.app:";
constexpr const char* kAppTasks = "tasks.app:";

bool starts_with(const std::string& s, const std::string& prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool ends_with(const std::string& s, const std::string& suffix) {
  return s.size() >= suffix.size() &&
         s.compare(s.size() - suffix.size(), suffix.size(), suffix) == 0;
}

// end - start of one key (zero when absent).
std::uint64_t delta(const Counters& start, const Counters& end,
                    const std::string& key) {
  auto e = end.find(key);
  if (e == end.end()) return 0;
  auto b = start.find(key);
  const std::uint64_t before = b == start.end() ? 0 : b->second;
  return e->second >= before ? e->second - before : 0;
}

// Sum over every key with the given prefix and suffix of end - start.
std::uint64_t delta_sum(const Counters& start, const Counters& end,
                        const std::string& prefix,
                        const std::string& suffix = "") {
  std::uint64_t total = 0;
  for (const auto& [k, v] : end) {
    if (starts_with(k, prefix) && ends_with(k, suffix)) {
      total += delta(start, end, k);
    }
  }
  return total;
}

double ratio(std::uint64_t num, std::uint64_t den) {
  return den == 0 ? 0.0
                  : static_cast<double>(num) / static_cast<double>(den);
}

}  // namespace

const std::vector<std::string>& reported_servers() {
  static const std::vector<std::string> names = {
      "rs",  "store", "drv0", "drv1", "drv2", "drv3", "drv4", "pf",
      "ip",  "tcp",   "tcp1", "tcp2", "tcp3", "udp",  "syscall"};
  return names;
}

Counters read_counters(newtos::Testbed& tb) {
  Counters c;
  newtos::Node& dut = tb.newtos();
  sim::Simulator& s = tb.sim();
  const std::string prefix = dut.config().name + ".";
  for (std::size_t i = 0; i < s.core_count(); ++i) {
    const sim::SimCore& core = s.core(i);
    if (!starts_with(core.name(), prefix)) continue;
    const std::string name = core.name().substr(prefix.size());
    const bool server = dut.server(name) != nullptr;
    c[(server ? kBusy : kAppBusy) + name] =
        static_cast<std::uint64_t>(core.busy_cycles());
    c[(server ? kTasks : kAppTasks) + name] = core.tasks_run();
  }

  c["chan.msgs"] = dut.total_channel_messages();
  c["chan.send_failures"] = dut.publish_channel_stats();
  std::uint64_t allocs = 0;
  std::uint64_t failed = 0;
  for (newtos::chan::Pool* pool : dut.pools().all()) {
    allocs += pool->total_allocs();
    failed += pool->failed_allocs();
  }
  c["pool.allocs"] = allocs;
  c["pool.failed"] = failed;

  for (int i = 0; i < dut.nic_count(); ++i) {
    const std::string n = "nic" + std::to_string(i) + ".";
    const auto& st = dut.nic(i)->stats();
    c[n + "tx_frames"] = st.tx_frames;
    c[n + "rx_frames"] = st.rx_frames;
    c[n + "rx_no_buffer"] = st.rx_no_buffer;
    c[n + "tx_ring_full"] = st.tx_ring_full;
    c[n + "resets"] = st.resets;
    c["wire" + std::to_string(i) + ".bytes"] = tb.wire(i).bytes_carried();
    if (auto* drv = dynamic_cast<servers::DriverServer*>(
            dut.server(servers::driver_name(i)))) {
      const std::string d = "drv" + std::to_string(i) + ".";
      c[d + "rx_frames"] = drv->rx_frames();
      c[d + "rx_msgs"] = drv->rx_msgs();
      c[d + "rx_fast"] = drv->rx_fast_frames();
    }
  }

  for (int s = 0; s < dut.tcp_shard_count(); ++s) {
    const newtos::net::TcpEngine* eng = dut.tcp_engine(s);
    if (eng == nullptr) continue;  // shard down mid-restart
    const auto& st = eng->stats();
    const std::string t = "tcp" + std::to_string(s) + ".";
    c[t + "segs_in"] = st.segs_in;
    c[t + "bytes_out"] = st.bytes_out;
    c[t + "bytes_retx"] = st.bytes_retx;
    c[t + "acks_out"] = st.acks_out;
    c[t + "rtos"] = st.rtos;
    c[t + "fast_retransmits"] = st.fast_retransmits;
    c[t + "conns_established"] = st.conns_established;
    c[t + "conns_restored"] = st.conns_restored;
    c[t + "aggs_in"] = st.aggs_in;
    c[t + "agg_frames_in"] = st.agg_frames_in;
  }

  const newtos::StatsHub& hub = dut.stats();
  c["ring.ops"] = hub.get("sockring.ops");
  c["ring.doorbells"] = hub.get("sockring.doorbells");
  c["sock.bytes_copied"] = hub.get("sock.bytes_copied");
  if (auto* rs = dut.reincarnation()) c["rs.restarts"] = rs->total_restarts();
  return c;
}

void CounterTrack::observe(const Counters& now) {
  for (const auto& [k, v] : now) {
    auto it = last_.find(k);
    if (it != last_.end() && v < it->second) banked_[k] += it->second;
    last_[k] = v;
    totals_[k] = banked_[k] + v;
  }
}

double dut_cycles_per_kb(const Counters& start, const Counters& end,
                         std::uint64_t app_bytes) {
  const std::uint64_t busy = delta_sum(start, end, kBusy);  // apps included
  return app_bytes == 0 ? 0.0
                        : static_cast<double>(busy) /
                              (static_cast<double>(app_bytes) / 1024.0);
}

void layer_metrics(const Counters& start, const Counters& end,
                   const WindowInfo& w, Metrics& out) {
  auto d = [&](const std::string& prefix, const std::string& suffix = "") {
    return delta_sum(start, end, prefix, suffix);
  };
  const double window_cycles =
      static_cast<double>(w.window) * w.ghz;
  const double kb = static_cast<double>(w.app_bytes) / 1024.0;

  // servers: utilization and tasks per DUT core.  Application cores are
  // folded into "apps" (utilization of the busiest one, tasks summed), so
  // every workload reports the same names.
  for (const std::string& name : reported_servers()) {
    const std::uint64_t busy = delta(start, end, kBusy + name);
    const std::uint64_t tasks = delta(start, end, kTasks + name);
    out["servers." + name + ".util"] = {
        window_cycles > 0 ? static_cast<double>(busy) / window_cycles : 0.0,
        "fraction"};
    out["servers." + name + ".tasks"] = {static_cast<double>(tasks),
                                         "count"};
  }
  double app_util = 0.0;
  for (const auto& [k, v] : end) {
    if (!starts_with(k, kAppBusy)) continue;
    const std::uint64_t busy = delta(start, end, k);
    if (window_cycles > 0) {
      app_util =
          std::max(app_util, static_cast<double>(busy) / window_cycles);
    }
  }
  out["servers.apps.util"] = {app_util, "fraction"};
  out["servers.apps.tasks"] = {static_cast<double>(d(kAppTasks)), "count"};

  // chan: channel messages per NIC frame and the pools behind them.
  const std::uint64_t frames =
      d("nic", ".tx_frames") + d("nic", ".rx_frames");
  out["chan.msgs_per_frame"] = {ratio(d("chan.msgs"), frames), "msgs/frame"};
  out["chan.send_failures"] = {static_cast<double>(d("chan.send_failures")),
                               "count"};
  out["chan.pool_allocs_per_kb"] = {
      kb > 0 ? static_cast<double>(d("pool.allocs")) / kb : 0.0, "allocs/KB"};
  out["chan.pool_failed_allocs"] = {static_cast<double>(d("pool.failed")),
                                    "count"};

  // core: socket rings and copies.
  out["core.sockring.ops_per_trap"] = {
      ratio(d("ring.ops"), d("ring.doorbells")), "ops/trap"};
  out["core.sock.copies_per_byte"] = {
      ratio(d("sock.bytes_copied"), w.app_bytes), "bytes/byte"};

  // drv: the busiest link, interrupt batching and device-level drops.
  double link_util = 0.0;
  const double capacity_bytes =
      w.link_gbps * 1e9 / 8.0 * static_cast<double>(w.window) / 1e9;
  for (const auto& [k, v] : end) {
    if (!starts_with(k, "wire")) continue;
    const std::uint64_t bytes = delta(start, end, k);
    if (capacity_bytes > 0) {
      link_util =
          std::max(link_util, static_cast<double>(bytes) / capacity_bytes);
    }
  }
  out["drv.link_util"] = {link_util, "fraction"};
  out["drv.rx_frames_per_irq"] = {
      ratio(d("drv", ".rx_frames"), d("drv", ".rx_msgs")), "frames/irq"};
  out["drv.rx_no_buffer"] = {static_cast<double>(d("nic", ".rx_no_buffer")),
                             "count"};
  out["drv.tx_ring_full"] = {static_cast<double>(d("nic", ".tx_ring_full")),
                             "count"};
  out["drv.nic_resets"] = {static_cast<double>(d("nic", ".resets")), "count"};

  // net: transport and IP receive path.
  const std::uint64_t bytes_out = d("tcp", ".bytes_out");
  out["net.tcp.retx_frac"] = {ratio(d("tcp", ".bytes_retx"), bytes_out),
                              "fraction"};
  out["net.tcp.rtos"] = {static_cast<double>(d("tcp", ".rtos")), "count"};
  out["net.tcp.fast_retransmits"] = {
      static_cast<double>(d("tcp", ".fast_retransmits")), "count"};
  out["net.tcp.acks_per_seg"] = {
      ratio(d("tcp", ".acks_out"), d("tcp", ".segs_in")), "acks/seg"};
  out["net.tcp.frames_per_agg"] = {
      ratio(d("tcp", ".agg_frames_in"), d("tcp", ".aggs_in")), "frames/agg"};
  out["net.tcp.conns_established"] = {
      static_cast<double>(d("tcp", ".conns_established")), "count"};
  out["net.tcp.conns_restored"] = {
      static_cast<double>(d("tcp", ".conns_restored")), "count"};
  out["net.ip.fast_frac"] = {
      ratio(d("drv", ".rx_fast"), d("drv", ".rx_frames")), "fraction"};
  out["servers.rein.restarts"] = {static_cast<double>(d("rs.restarts")),
                                  "count"};
}

}  // namespace perf
